"""Command-line front end.

Subcommands: gen, sample, sample-path, dist, verify, bench.  All outputs are
sorted-key JSON/JSONL so that a fixed seed reproduces byte-identical files.

Exit codes: 0 success; 2 parse error; 3 boundary coin; 4 invalid instance or
point outside the polytope; 5 disconnected or empty edge list / no
arborescence / every sampling polynomial vanishes; 6 restart cap exceeded;
7 instance too large for the exact oracle; 8 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
import time

from . import io
from .coins import SimulatedCoins
from .errors import (
    BoundaryCoin,
    DegenerateDistribution,
    DisconnectedEdges,
    FlowFactoryError,
    InputError,
    InvalidInstance,
    MaxRestartsExceeded,
    NoArborescence,
    NotInPolytope,
    TooLargeForOracle,
)
from .factory import DEFAULT_MAX_RESTARTS, FlowSampler, sample_path
from .graphs import (
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    require_interior_point,
)
from .oracle import (
    check_exchanges,
    check_marginal_identity,
    check_parallel_to_circ,
    check_positivity,
    check_root_independence,
    check_zls,
    exact_output_distribution,
    factored_form_mismatch,
    matrix_tree_mismatch,
)

# Mixed into the sampling seed so coin flips and uniform choices never share
# a stream even though the user provides a single --seed.
_EXTERNAL_SALT = 0x9E3779B97F4A7C15


# (error types, exit code), first match wins; any other FlowFactoryError exits 4.
# At an interior point every polynomial vanishes only on a disconnected support.
_EXIT_CODES = (
    (BoundaryCoin, 3),
    ((NotInPolytope, InvalidInstance), 4),
    ((DisconnectedEdges, NoArborescence, DegenerateDistribution), 5),
    (MaxRestartsExceeded, 6),
    (TooLargeForOracle, 7),
)


def _exit_code(exc: Exception) -> int:
    return next((code for types, code in _EXIT_CODES if isinstance(exc, types)), 4)


def _load_instance(args):
    P = io.polytope_from_dict(io.load_json(args.polytope))
    if not P.edges:
        raise DisconnectedEdges("the edge list is empty: no variable edge to sample or verify")
    biases = io.coins_from_dict(io.load_json(args.coins), len(P.edges))
    require_interior_point(P, biases)
    return P, biases


def _draw(args):
    """Load the instance; return a function making one (flow, flips,
    restarts) draw, by sample_path for `sample-path`, else by FlowSampler."""
    P, biases = _load_instance(args)
    coins = SimulatedCoins(biases, seed=args.seed)
    rng = _external_rng(args.seed)
    if args.command == "sample-path":
        def draw():
            before = coins.total_flips
            f = sample_path(P, coins, rng, max_retries=args.max_restarts)
            return f, coins.total_flips - before, 0
    else:
        sampler = FlowSampler(P, root=args.root)

        def draw():
            trace = sampler.sample(coins, rng, max_restarts=args.max_restarts)
            return trace.output, trace.total_flips, trace.restarts
    return draw


def _external_rng(seed: int) -> random.Random:
    return random.Random(seed ^ _EXTERNAL_SALT)


def _write(texts: list[str], path) -> None:
    """Write `texts` one after another to the file `path`; to stdout when `path` is None or empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(texts)
    else:
        sys.stdout.writelines(texts)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    if args.kind == "circulation":
        P = build_circulation_polytope(args.nodes)
    elif args.kind == "matching":
        P = build_matching_polytope(args.m)
    else:
        P = build_kflow_polytope(args.nodes, args.k)
    _write([io.dump_json(io.polytope_to_dict(P))], args.out)
    return 0


def cmd_sample(args) -> int:
    draw = _draw(args)
    lines, ones = [], []  # ones: per edge, the samples that take it
    for _ in range(args.samples):
        f, flips, restarts = draw()
        lines.append(io.sample_line(f, flips, restarts) + "\n")
        ones = [a + b for a, b in zip(ones, f)] if ones else list(f)
    _write(lines, args.out)
    summary = {
        "empirical_marginals": [io.empirical(c / args.samples) for c in ones],
        "samples": args.samples,
        "seed": args.seed,
    }
    sys.stdout.write(io.dump_json(summary))
    return 0


def _exact_marginals(P, dist) -> list[dict]:
    return [{"edge": i, **io.rational(dist.marginal(i))} for i in range(len(P.edges))]


def cmd_dist(args) -> int:
    P, biases = _load_instance(args)
    root = args.root if args.root is not None else P.graph.incident_nodes[0]
    dist = exact_output_distribution(P, biases, root)
    data = {
        "instance": args.polytope,
        "marginals": _exact_marginals(P, dist),
        "probabilities": {
            io.flow_key(f): io.rational(p) for f, p in sorted(dist.probabilities.items())
        },
        "root": root,
    }
    _write([io.dump_json(data)], args.out)
    return 0


def _holds(ok: bool, good: str, bad: str) -> tuple[bool, str]:
    return ok, good if ok else bad


def _no_mismatch(bad, what: str, good: str) -> tuple[bool, str]:
    """A found (f, root) fails with `what` at it; None passes with `good`."""
    return (False, f"{what} at f={io.flow_key(bad[0])} root={bad[1]}") if bad else (True, good)


#: Every check of `verify`, in report order: (P, x) -> (pass, detail).
_CHECKS = {
    "root-independence": lambda P, x: _holds(
        check_root_independence(P, x), "polynomial values agree across roots", "root disagreement"),
    "marginal": lambda P, x: _holds(
        check_marginal_identity(P, x), "sum_f (f-x) P_f(x) == 0", "marginal identity fails"),
    "positivity": lambda P, x: _holds(check_positivity(P, x), "sum_f P_f(x) > 0", "all polynomials vanish"),
    "factored-form": lambda P, x: _no_mismatch(
        factored_form_mismatch(P, x), "mismatch", "tree-sum equals prefix * arborescence-sum everywhere"),
    "bijection": lambda P, x: (True, f"verified {check_exchanges(P)} (tree, eta) pairs"),
    "parallel-to-circ": lambda P, x: _holds(
        check_parallel_to_circ(P), "vertex differences are balanced", "unbalanced difference"),
    "zls": lambda P, x: _holds(check_zls(P, x), "all principal cofactors equal", "cofactors differ"),
    "matrix-tree": lambda P, x: _no_mismatch(
        matrix_tree_mismatch(P), "count mismatch", "determinant counts match enumeration"),
}
_ALL_CHECKS = tuple(_CHECKS)


def cmd_verify(args) -> int:
    P, biases = _load_instance(args)
    checks = []
    for name in args.checks:
        try:
            ok, detail = _CHECKS[name](P, biases)
        except TooLargeForOracle:
            raise
        except FlowFactoryError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "pass": ok, "detail": detail})
    try:
        marginals = _exact_marginals(P, exact_output_distribution(P, biases))
    except FlowFactoryError:
        # e.g. every polynomial vanishes; the failing check tells the story
        marginals = []
    report = {
        "instance": args.polytope,
        "checks": checks,
        "exact_marginals": marginals,
    }
    _write([io.dump_json(report)], args.out)
    failed = ",".join(c["name"] for c in checks if not c["pass"])
    if failed:
        print(f"verification failed: {failed}", file=sys.stderr)
        return 8
    return 0


def cmd_bench(args) -> int:
    draw = _draw(args)
    flips = 0
    restarts = 0
    start = time.perf_counter()
    for _ in range(args.samples):
        _, n, r = draw()
        flips += n
        restarts += r
    elapsed = time.perf_counter() - start
    stats = {
        "mean_flips": io.empirical(flips / args.samples),
        "mean_restarts": io.empirical(restarts / args.samples),
        "samples": args.samples,
        "seed": args.seed,
    }
    data = {
        "stats": stats,
        "timing": {
            "elapsed_sec": io.empirical(elapsed),
            "samples_per_sec": io.empirical(args.samples / elapsed if elapsed else 0.0),
        },
    }
    _write([io.dump_json(data)], args.out)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def nonnegative_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n}")
    return n


def check_names(text: str) -> list[str]:
    names = text.split(",")
    unknown = [name for name in names if name not in _ALL_CHECKS]
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown check {unknown[0]!r}; choose from {','.join(_ALL_CHECKS)}")
    return names


_INSTANCE = (("polytope", {}), ("coins", {}))
_ROOT = (("--root", {"type": int, "default": None}),)


def _run_flags(samples: int) -> tuple:
    return (("--seed", {"type": nonnegative_int, "default": 0}),
            ("--samples", {"type": positive_int, "default": samples}),
            ("--max-restarts", {"type": nonnegative_int, "default": DEFAULT_MAX_RESTARTS}))


#: Every subcommand: name -> (help, handler, its arguments but the closing --out, as (name, add_argument keywords)).
_COMMANDS = {
    "gen": ("write a named polytope instance", cmd_gen, (
        ("kind", {"choices": ("circulation", "matching", "kflow")}), ("--nodes", {"type": int, "default": 3}),
        ("--m", {"type": int, "default": 2}), ("--k", {"type": int, "default": 1}))),
    "sample": ("run the flow sampler", cmd_sample, _INSTANCE + _ROOT + _run_flags(1000)),
    "sample-path": ("run the DAG path sampler", cmd_sample, _INSTANCE + _run_flags(1000)),
    "dist": ("exact output distribution and marginals", cmd_dist, _INSTANCE + _ROOT),
    "verify": ("exact identity checks; exit 8 on failure", cmd_verify, _INSTANCE + (
        ("--checks", {"type": check_names, "default": _ALL_CHECKS, "help": "comma-separated subset of checks"}),)),
    "bench": ("throughput and restart statistics", cmd_bench, _INSTANCE + _ROOT + _run_flags(100)),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    _, func, arguments = _COMMANDS[name]
    for flag, options in arguments + (("--out", {"default": None}),):
        parser.add_argument(flag, **options)
    parser.set_defaults(func=func)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser, every command a subparser.  Each parser is built once per process, on first use: parsing
    leaves it unchanged, and every default is immutable, so calls cannot pass state to one another."""
    top = argparse.ArgumentParser(prog="flowfactory", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=text), name)
    return top


@functools.cache
def command_parser(name: str) -> argparse.ArgumentParser:
    """The subcommand `name`'s parser alone, named as build_parser names its subparser."""
    return _add_arguments(argparse.ArgumentParser(prog=f"flowfactory {name}"), name)


def parse_args(argv) -> argparse.Namespace:
    """Parse `argv` as build_parser() would, building only the parser of the command argv[0] names.  With no command
    named, or arguments that command leaves unrecognised, the whole parser parses: its help and errors stand."""
    if argv and argv[0] in _COMMANDS:
        args, extras = command_parser(argv[0]).parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extras:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlowFactoryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
