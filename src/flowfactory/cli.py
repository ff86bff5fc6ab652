"""Command-line front end.

Subcommands: gen, sample, sample-path, dist, verify, bench.  All outputs are
sorted-key JSON/JSONL so that a fixed seed reproduces byte-identical files.

Exit codes: 0 success; 2 parse error; 3 boundary coin; 4 invalid instance or
point outside the polytope; 5 disconnected or empty edge list / no
arborescence; 6 restart cap exceeded; 7 instance too large for the exact
oracle; 8 verification failure.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import io
from .coins import SimulatedCoins
from .errors import (
    BoundaryCoin,
    DisconnectedEdges,
    FlowFactoryError,
    InvalidInstance,
    MaxRestartsExceeded,
    NoArborescence,
    NotInPolytope,
    TooLargeForOracle,
)
from .factory import FlowSampler, sample_path
from .graphs import (
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    require_interior_point,
)
from .oracle import (
    check_bijection,
    check_marginal_identity,
    check_parallel_to_circ,
    check_positivity,
    check_root_independence,
    eval_polynomial_factored,
    exact_output_distribution,
    polynomial_values,
    qualifying_trees,
)

# Mixed into the sampling seed so coin flips and uniform choices never share
# a stream even though the user provides a single --seed.
_EXTERNAL_SALT = 0x9E3779B97F4A7C15


def _exit_code(exc: Exception) -> int:
    if isinstance(exc, BoundaryCoin):
        return 3
    if isinstance(exc, (NotInPolytope, InvalidInstance)):
        return 4
    if isinstance(exc, (DisconnectedEdges, NoArborescence)):
        return 5
    if isinstance(exc, MaxRestartsExceeded):
        return 6
    if isinstance(exc, TooLargeForOracle):
        return 7
    return 4


def _load_instance(args):
    P = io.polytope_from_dict(io.load_json(args.polytope))
    if not P.edges:
        raise DisconnectedEdges("the edge list is empty: no variable edge to sample or verify")
    biases = io.coins_from_dict(io.load_json(args.coins), len(P.edges))
    return P, biases


def _external_rng(seed: int) -> random.Random:
    return random.Random(seed ^ _EXTERNAL_SALT)


def _write_lines(lines, path):
    text = "\n".join(lines) + ("\n" if lines else "")
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    text = io.dump_json(io.polytope_to_dict(P), args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


def cmd_sample(args) -> int:
    P, biases = _load_instance(args)
    require_interior_point(P, biases)
    coins = SimulatedCoins(biases, seed=args.seed)
    rng = _external_rng(args.seed)
    sampler = FlowSampler(P, root=args.root)
    m = len(P.edges)
    lines = []
    marg = [0] * m
    for _ in range(args.samples):
        trace = sampler.sample(coins, rng, max_restarts=args.max_restarts)
        lines.append(io.sample_line(trace.output, trace.total_flips, trace.restarts))
        for i in range(m):
            marg[i] += trace.output[i]
    _write_lines(lines, args.out)
    summary = {
        "empirical_marginals": [io.empirical(c / args.samples) for c in marg],
        "samples": args.samples,
        "seed": args.seed,
    }
    sys.stdout.write(io.dump_json(summary))
    return 0


def cmd_sample_path(args) -> int:
    P, biases = _load_instance(args)
    require_interior_point(P, biases)
    coins = SimulatedCoins(biases, seed=args.seed)
    rng = _external_rng(args.seed)
    m = len(P.edges)
    lines = []
    marg = [0] * m
    prev_flips = 0
    for _ in range(args.samples):
        f = sample_path(P, coins, rng, max_retries=args.max_restarts)
        flips = coins.total_flips - prev_flips
        prev_flips = coins.total_flips
        lines.append(io.sample_line(f, flips, 0))
        for i in range(m):
            marg[i] += f[i]
    _write_lines(lines, args.out)
    summary = {
        "empirical_marginals": [io.empirical(c / args.samples) for c in marg],
        "samples": args.samples,
        "seed": args.seed,
    }
    sys.stdout.write(io.dump_json(summary))
    return 0


def cmd_dist(args) -> int:
    P, biases = _load_instance(args)
    require_interior_point(P, biases)
    root = args.root if args.root is not None else P.graph.incident_nodes[0]
    dist = exact_output_distribution(P, biases, root)
    data = {
        "instance": args.polytope,
        "marginals": [
            {"edge": i, **io.rational(dist.marginal(i))} for i in range(len(P.edges))
        ],
        "probabilities": {
            io.flow_key(f): io.rational(p) for f, p in sorted(dist.probabilities.items())
        },
        "root": root,
    }
    text = io.dump_json(data, args.out)
    if not args.out:
        sys.stdout.write(text)
    return 0


_ALL_CHECKS = (
    "root-independence",
    "marginal",
    "positivity",
    "factored-form",
    "bijection",
    "parallel-to-circ",
    "zls",
    "matrix-tree",
)


def _run_check(name: str, P, x) -> tuple[bool, str]:
    from .graphs import enumerate_vertices, m_map
    from .spanning import (
        WeightedDigraph,
        build_laplacian,
        enumerate_directed_trees,
        qualifying_tree_count,
        zls_cofactor_check,
    )

    roots = P.graph.incident_nodes
    if name == "root-independence":
        ok = check_root_independence(P, x)
        return ok, "polynomial values agree across roots" if ok else "root disagreement"
    if name == "marginal":
        ok = check_marginal_identity(P, x)
        return ok, "sum_f (f-x) P_f(x) == 0" if ok else "marginal identity fails"
    if name == "positivity":
        ok = check_positivity(P, x)
        return ok, "sum_f P_f(x) > 0" if ok else "all polynomials vanish"
    if name == "factored-form":
        for r in roots:
            for f, value in polynomial_values(P, tuple(x), r).items():
                if value != eval_polynomial_factored(P, f, r, x):
                    return False, f"mismatch at f={io.flow_key(f)} root={r}"
        return True, "tree-sum equals prefix * arborescence-sum everywhere"
    if name == "bijection":
        trees = enumerate_directed_trees(P.graph)
        pairs = 0
        for tree in trees:
            for eta in range(len(P.edges)):
                if eta in tree:
                    continue
                check_bijection(P, tree, eta)  # raises IdentityViolated on failure
                pairs += 1
        return True, f"verified {pairs} (tree, eta) pairs"
    if name == "parallel-to-circ":
        ok = check_parallel_to_circ(P)
        return ok, "vertex differences are balanced" if ok else "unbalanced difference"
    if name == "zls":
        f0 = enumerate_vertices(P)[0]
        vec = m_map(P, f0, x)
        W = WeightedDigraph(P.graph.incident_nodes, dict(vec.values))
        ok = zls_cofactor_check(build_laplacian(W))
        return ok, "all principal cofactors equal" if ok else "cofactors differ"
    if name == "matrix-tree":
        for f in enumerate_vertices(P):
            for r in roots:
                if len(qualifying_trees(P, f, r)) != qualifying_tree_count(P, f, r):
                    return False, f"count mismatch at f={io.flow_key(f)} root={r}"
        return True, "determinant counts match enumeration"
    raise InvalidInstance(f"unknown check {name}")


def cmd_verify(args) -> int:
    P, biases = _load_instance(args)
    require_interior_point(P, biases)
    checks = []
    all_pass = True
    for name in args.checks:
        try:
            ok, detail = _run_check(name, P, biases)
        except TooLargeForOracle:
            raise
        except FlowFactoryError as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        checks.append({"name": name, "pass": ok, "detail": detail})
        all_pass = all_pass and ok
    try:
        dist = exact_output_distribution(P, biases)
        marginals = [
            {"edge": i, **io.rational(dist.marginal(i))} for i in range(len(P.edges))
        ]
    except FlowFactoryError:
        # e.g. every polynomial vanishes; the failing check tells the story
        marginals = []
    report = {
        "instance": args.polytope,
        "checks": checks,
        "exact_marginals": marginals,
    }
    text = io.dump_json(report, args.out)
    sys.stdout.write(text if not args.out else "")
    if not all_pass:
        failed = ",".join(c["name"] for c in checks if not c["pass"])
        print(f"verification failed: {failed}", file=sys.stderr)
        return 8
    return 0


def cmd_bench(args) -> int:
    P, biases = _load_instance(args)
    require_interior_point(P, biases)
    coins = SimulatedCoins(biases, seed=args.seed)
    rng = _external_rng(args.seed)
    sampler = FlowSampler(P, root=args.root)
    flips = 0
    restarts = 0
    start = time.perf_counter()
    for _ in range(args.samples):
        trace = sampler.sample(coins, rng, max_restarts=args.max_restarts)
        flips += trace.total_flips
        restarts += trace.restarts
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
    text = io.dump_json(data, args.out)
    if not args.out:
        sys.stdout.write(text)
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


def _add_run_flags(p, samples_default=1000):
    p.add_argument("--seed", type=nonnegative_int, default=0)
    p.add_argument("--samples", type=positive_int, default=samples_default)
    p.add_argument("--max-restarts", type=nonnegative_int, default=10_000_000)
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="flowfactory", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a named polytope instance")
    g.add_argument("kind", choices=["circulation", "matching", "kflow"])
    g.add_argument("--nodes", type=int, default=3)
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--k", type=int, default=1)
    g.add_argument("--out", default=None)
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("sample", help="run the flow sampler")
    s.add_argument("polytope")
    s.add_argument("coins")
    s.add_argument("--root", type=int, default=None)
    _add_run_flags(s)
    s.set_defaults(func=cmd_sample)

    sp = sub.add_parser("sample-path", help="run the DAG path sampler")
    sp.add_argument("polytope")
    sp.add_argument("coins")
    _add_run_flags(sp)
    sp.set_defaults(func=cmd_sample_path)

    d = sub.add_parser("dist", help="exact output distribution and marginals")
    d.add_argument("polytope")
    d.add_argument("coins")
    d.add_argument("--root", type=int, default=None)
    d.add_argument("--out", default=None)
    d.set_defaults(func=cmd_dist)

    v = sub.add_parser("verify", help="exact identity checks; exit 8 on failure")
    v.add_argument("polytope")
    v.add_argument("coins")
    v.add_argument("--checks", type=check_names, default=list(_ALL_CHECKS),
                   help="comma-separated subset of checks")
    v.add_argument("--out", default=None)
    v.set_defaults(func=cmd_verify)

    b = sub.add_parser("bench", help="throughput and restart statistics")
    b.add_argument("polytope")
    b.add_argument("coins")
    b.add_argument("--root", type=int, default=None)
    _add_run_flags(b, samples_default=100)
    b.set_defaults(func=cmd_bench)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FlowFactoryError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return _exit_code(exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
