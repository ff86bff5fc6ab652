"""Sampler and oracle benchmark for flowfactory.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload circ4_rounds --seed 0 --seconds 24 --trace 0

Workloads (definitions and the reason for each are in perfbench/NOTES.md):
  circ4_rounds   sampler on circ4 at x = 1/2; the restart loop dominates
  circ5m_trees   sampler on circ5m at x = 1/2; the qualifying-tree fill dominates
  circ4_verify   `flowfactory verify` (all checks) on circ4 at x = 1/2

Every call runs in a fresh interpreter (perfbench/worker.py), one at a time,
so module-level caches start cold as they do for a CLI call.  The seed only
picks the CLI seeds; the program sees the instance and coin files written
here.  With --trace 0 the end-to-end metrics are measured untraced; with
--trace 1 one untraced reference call is followed by traced calls that
record spans around each layer's public functions, and the per-layer
metrics and the tracing overhead are reported.  The outputs are checked in
both modes: exact-cost, output-law, is-vertex, CLI fidelity and verify gates.

Human-readable lines go first; the last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.  Metric names and units are
read from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

#: A whole run, calls included, must end within 180 s; this leaves a margin.
DEADLINE_S = 170.0
#: Set-up is timed in every call; set-up-only calls top it up to this many.
MIN_SETUPS = 4
#: Cap on calls per run, so a much faster program cannot turn a run into
#: mostly set-up time.
MAX_CALLS = 16
#: Measured E[rounds] and stage-1 passes must lie within this many standard
#: deviations of the oracle's exact prediction.
Z_GATE = 4.0
#: Significance of the chi-square and Hoeffding output-law test.
SIGNIFICANCE = 0.001


def circulation(n: int, drop: tuple[frozenset, ...] = ()) -> dict:
    """Polytope file for the circulation on K_n minus the node pairs in `drop`.

    Edges are every ordered pair (u, v), u != v, in lexicographic order, as
    build_circulation_polytope lists them.
    """
    edges = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
             if u != v and frozenset((u, v)) not in drop]
    return {"nodes": n, "demands": [0] * n,
            "edges": [{"id": i, "from": u, "to": v} for i, (u, v) in enumerate(edges)]}


def barycenter(poly: dict) -> dict:
    return {"coins": [{"edge": e["id"], "num": 1, "den": 2} for e in poly["edges"]]}


# `call`: the work one fresh interpreter does.  "seconds" is a share of
# --seconds spent sampling (at least `prefix` samples); "samples" is a fixed
# count.  `prefix` samples are digested and replayed through `flowfactory
# sample` for the fidelity gate.
WORKLOADS = {
    "circ4_rounds": {"poly": circulation(4), "kind": "sample",
                     "call": {"seconds": 0.25}, "prefix": 200},
    "circ5m_trees": {"poly": circulation(5, (frozenset((1, 2)),)), "kind": "sample",
                     "call": {"samples": 40}, "prefix": 3},
    "circ4_verify": {"poly": circulation(4), "kind": "verify", "call": {}, "prefix": 0},
}


class RunFailed(Exception):
    """A call could not produce results; the run prints no result line."""


def run_call(w: dict, seconds: float, seed: int, files: dict, deadline: float, *,
             trace: bool = False, fidelity: bool = False, setup_only: bool = False,
             spans_out: str | None = None) -> dict:
    spec = {"src": SRC, "kind": w["kind"], "polytope": files["poly"], "coins": files["coins"],
            "workdir": files["dir"], "seed": seed, "prefix": w["prefix"], "trace": trace,
            "fidelity": fidelity, "setup_only": setup_only, "spans_out": spans_out}
    if "seconds" in w["call"]:
        spec["seconds"] = w["call"]["seconds"] * seconds
    else:
        spec["samples"] = w["call"].get("samples")
    path = os.path.join(files["dir"], f"spec-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RunFailed("out of time before the next call")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), path, repr(time.time())]
    try:
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"call with seed {seed} did not end in {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RunFailed(f"call with seed {seed} exited with {done.returncode}")
    return json.loads(lines[-1])


def run_calls(w, seconds, seed, files, deadline, trace):
    """Untraced calls (trace 0), or one untraced reference plus traced calls."""
    untraced, traced = [], []
    k = 0
    while True:
        untraced.append(run_call(w, seconds, seed * 1000 + k, files, deadline, fidelity=k == 0))
        k += 1
        busy = sum(c["busy_s"] for c in untraced)
        if trace or busy >= seconds or len(untraced) >= MAX_CALLS:
            break
    while trace:
        spans_out = os.path.join(WORK, f"spans-{files['name']}-{len(traced)}.npz")
        traced.append(run_call(w, seconds, seed * 1000 + k, files, deadline, trace=True,
                               spans_out=spans_out))
        k += 1
        if sum(c["busy_s"] for c in traced) >= seconds / 2 or len(traced) >= MAX_CALLS:
            break
    setups = [c["setup_s"] for c in untraced]
    while not trace and len(setups) < MIN_SETUPS:
        setups.append(run_call(w, seconds, seed * 1000 + k, files, deadline,
                               setup_only=True)["setup_s"])
        k += 1
    return untraced, traced, setups


# ---------------------------------------------------------------------------
# Gates: the oracle's exact predictions and the output checks
# ---------------------------------------------------------------------------

def exact_cost(poly: dict, coins: dict) -> dict:
    """Exact E[rounds] = |T| / sum_f P_f(x) and stage-1 pass probability."""
    from flowfactory import graphs, io, oracle, spanning

    P = io.polytope_from_dict(poly)
    x = io.coins_from_dict(coins, len(P.edges))
    root = P.graph.incident_nodes[0]
    verts = graphs.enumerate_vertices(P)
    total = spanning.directed_tree_count(P.graph)
    z = sum((oracle.eval_polynomial_factored(P, f, root, x) for f in verts), Fraction(0))
    p1 = sum((math.prod(xi if b else 1 - xi for b, xi in zip(f, x)) for f in verts), Fraction(0))
    return {"P": P, "x": x, "root": root, "vertices": len(verts), "trees": total,
            "rounds": Fraction(total) / z, "accept": z / total, "stage1": p1}


def rounds_gate(ex: dict, samples: int, rounds: int) -> tuple[float, float]:
    """Mean rounds per sample and its z-score against the geometric law."""
    e = float(ex["rounds"])
    mean = rounds / samples
    return mean, (mean - e) / math.sqrt((e * e - e) / samples)


def stage1_gate(ex: dict, samples: int, rounds: int, stage1: int) -> float:
    """z-score of stage-1 passes; the last round of each sample always passes."""
    a, p1 = float(ex["accept"]), float(ex["stage1"])
    q = (p1 - a) / (1 - a)
    rejected = rounds - samples
    return (stage1 - samples - rejected * q) / math.sqrt(rejected * q * (1 - q))


def output_law_gate(ex: dict, counts: dict):
    from flowfactory import oracle

    samples = [tuple(int(c) for c in key) for key, n in counts.items() for _ in range(n)]
    return oracle.statistical_test(ex["P"], ex["x"], ex["root"], samples, SIGNIFICANCE)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten values beyond it: (percentile, value)."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def ops_per_s(calls: list[dict]) -> float:
    ok = sum(c["attempted"] - c["failed"] for c in calls)
    return ok / sum(c["busy_s"] for c in calls)


def span_stat(traced: list[dict], name: str, key: str) -> float:
    return sum(c["trace"]["names"].get(name, {}).get(key, 0) for c in traced)


def per_layer(w: dict, untraced: list[dict], traced: list[dict], ex: dict | None) -> dict:
    m = dict.fromkeys(SAMPLER_LAYER_METRICS, 0.0)
    for name in TRACED_NAMES:
        for key in ("calls", "busy_s", "self_s"):
            m[f"{name}.{key}"] = span_stat(traced, name, key)
    for layer in ("coins", "rng", "factory", "graphs", "spanning", "oracle", "cli"):
        m[f"{layer}.self_s"] = sum(c["trace"]["layers"].get(layer, 0.0) for c in traced)
    m["trace.spans"] = sum(c["trace"]["spans"] for c in traced)
    ref, tr = ops_per_s(untraced), ops_per_s(traced)
    m["trace.ops_per_s.untraced"], m["trace.ops_per_s.traced"] = ref, tr
    m["trace.overhead_ratio"] = ref / tr if tr else 0.0
    if w["kind"] == "sample":
        samples = sum(c["attempted"] - c["failed"] for c in traced)
        st = {k: sum(c["stages"][k] for c in traced) for k in ("rounds", "stage1", "stage2", "distinct")}
        everything = untraced + traced
        m["coins.flips_per_sample"] = (sum(c["flips"] for c in everything)
                                       / sum(c["attempted"] - c["failed"] for c in everything))
        lat = [s * 1e3 for c in untraced for s in c["lat_s"]]
        m["factory.sample.ms_p50"] = statistics.median(lat)
        m["factory.sample.ms_tail"] = (tail(lat) or (0.0, max(lat)))[1]
        m["factory.rounds_per_sample"] = st["rounds"] / samples
        m["factory.rounds_per_sample.predicted"] = float(ex["rounds"])
        m["factory.stage1.pass_ratio"] = st["stage1"] / st["rounds"]
        m["factory.stage1.pass_ratio.predicted"] = float(ex["stage1"])
        m["factory.stage2.pass_ratio"] = st["stage2"] / st["stage1"]
        m["factory.stage3.pass_ratio"] = samples / st["stage2"]
        m["factory.stage1.distinct_vertices"] = st["distinct"] / len(traced)
    return m


# Spans whose calls, busy time and self time are reported.
TRACED_NAMES = (
    "coins.flip_round", "coins.flip", "rng.randrange", "factory.init", "factory.sample",
    "graphs.enumerate_vertices", "graphs.flip_tree", "spanning.is_arborescence",
    "spanning.enumerate_directed_trees", "spanning.directed_tree_count",
    "spanning.count_arborescences", "oracle.eval_polynomial", "oracle.eval_polynomial_factored",
    "oracle.check_bijection", "oracle.exact_output_distribution", "cli.verify",
)
# Sampler-only metrics; zero on the verify workload, which draws no samples.
SAMPLER_LAYER_METRICS = (
    "coins.flips_per_sample", "factory.sample.ms_p50", "factory.sample.ms_tail",
    "factory.rounds_per_sample", "factory.rounds_per_sample.predicted",
    "factory.stage1.pass_ratio", "factory.stage1.pass_ratio.predicted",
    "factory.stage2.pass_ratio", "factory.stage3.pass_ratio", "factory.stage1.distinct_vertices",
)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def write_inputs(name: str, w: dict, seed: int) -> dict:
    d = os.path.join(WORK, f"{name}-s{seed}-p{os.getpid()}")
    os.makedirs(d, exist_ok=True)
    files = {"dir": d, "name": name, "poly": os.path.join(d, "poly.json"),
             "coins": os.path.join(d, "coins.json")}
    for key, data in (("poly", w["poly"]), ("coins", barycenter(w["poly"]))):
        with open(files[key], "w", encoding="utf-8") as fh:
            json.dump(data, fh, sort_keys=True, indent=2)
    return files


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    bench_file = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "flowfactory", "__init__.py")) or not os.path.isfile(bench_file):
        print(f"error: run from the root of a flowfactory checkout (no src/flowfactory or "
              f"BENCHMARK.json under {ROOT})", file=sys.stderr)
        return 2
    with open(bench_file, encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    w = WORKLOADS[args.workload]
    files = write_inputs(args.workload, w, args.seed)
    try:
        untraced, traced, setups = run_calls(w, args.seconds, args.seed, files, deadline, args.trace)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(files["dir"], ignore_errors=True)

    sys.path.insert(0, SRC)
    calls = untraced + traced
    attempted = sum(c["attempted"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    gates: list[tuple[str, bool, str]] = []
    print(f"workload {args.workload}  seed {args.seed}  calls {len(untraced)} untraced"
          f" + {len(traced)} traced  (closed loop, one client, one call at a time)")
    ex = None
    if w["kind"] == "sample":
        ex = exact_cost(w["poly"], barycenter(w["poly"]))
        print(f"instance: {len(ex['x'])} edges, |V| = {ex['vertices']}, |T| = {ex['trees']},"
              f" x = 1/2, exact E[rounds] = {float(ex['rounds']):.3f},"
              f" stage-1 pass = {float(ex['stage1']):.6f}")
        samples = sum(c["attempted"] - c["failed"] for c in calls)
        mean, z = rounds_gate(ex, samples, sum(c["rounds"] for c in calls))
        gates.append(("exact-cost", abs(z) <= Z_GATE,
                      f"rounds/sample {mean:.1f} vs {float(ex['rounds']):.1f} predicted,"
                      f" z = {z:+.2f} over {samples} samples"))
        if traced:
            st = {k: sum(c["stages"][k] for c in traced) for k in ("rounds", "stage1")}
            n = sum(c["attempted"] - c["failed"] for c in traced)
            z1 = stage1_gate(ex, n, st["rounds"], st["stage1"])
            gates.append(("stage-1", abs(z1) <= Z_GATE,
                          f"pass ratio {st['stage1'] / st['rounds']:.6f} vs"
                          f" {float(ex['stage1']):.6f} predicted, z = {z1:+.2f}"))
        nonvertex = sum(c["nonvertex"] for c in calls)
        gates.append(("is-vertex", nonvertex == 0,
                      f"{attempted - nonvertex}/{attempted} outputs are vertices"))
        if args.workload == "circ4_rounds":
            counts: dict[str, int] = {}
            for c in calls:
                for key, k in c["counts"].items():
                    counts[key] = counts.get(key, 0) + k
            rep = output_law_gate(ex, counts)
            gates.append(("output-law", rep.passed,
                          f"chi-square p = {rep.chi_pvalue:.4f}, marginals within"
                          f" {rep.marginal_band:.4f}, significance {SIGNIFICANCE}"))
        fid = untraced[0]["fidelity"]
        gates.append(("fidelity", fid["identical"],
                      f"first {fid['lines']} JSONL lines vs `flowfactory sample --seed"
                      f" {args.seed * 1000}` exit {fid['exit']}"))
        print(f"digest sha256 of the first {w['prefix']} samples: {untraced[0]['digest']}")
    else:
        bad = [c for c in calls if c["exit"] != 0 or not all(k["pass"] for k in c["checks"])
               or not c["marginals_equal_point"]]
        gates.append(("verify", not bad,
                      f"{len(calls) - len(bad)}/{len(calls)} calls exit 0 with every check"
                      f" passing and exact marginals equal to x"))
    for c in traced:
        t = c["trace"]
        ok = abs(t["self_sum_s"] - t["top_s"]) <= 1e-6 * max(1.0, t["top_s"]) and t["min_self_s"] > -1e-6
        gates.append(("self-times", ok, f"self times sum to {t['self_sum_s']:.6f} s,"
                      f" top-level spans {t['top_s']:.6f} s"))

    if args.trace:
        values = per_layer(w, untraced, traced, ex)
        print_layers(values, w)
    else:
        values = end_to_end(w, untraced, setups, attempted, failed)
    for name, ok, detail in gates:
        print(f"gate {name:<11} {'pass' if ok else 'FAIL'}  {detail}")
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": all(ok for _, ok, _ in gates) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


def end_to_end(w, untraced, setups, attempted, failed) -> dict:
    """The bounded metrics, plus a printed table of every end-to-end figure."""
    values = {
        "ops_per_s": ops_per_s(untraced),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
    }
    busy = sum(c["busy_s"] for c in untraced)
    rows = []
    if w["kind"] == "sample":
        n = sum(c["attempted"] - c["failed"] for c in untraced)
        lat = [s * 1e3 for c in untraced for s in c["lat_s"]]
        t = tail(lat)
        rows += [
            ("samples_per_s", f"{values['ops_per_s']:.3f} 1/s ({n} samples in {busy:.2f} s)"),
            ("flips_per_sample", f"{sum(c['flips'] for c in untraced) / n:.1f} flips (n = {n})"),
            ("sample_ms_p50", f"{statistics.median(lat):.3f} ms (n = {len(lat)})"),
            ("sample_ms_tail", f"p{t[0]:.2f} = {t[1]:.3f} ms (n = {len(lat)}, 10 beyond)"
             if t else f"n/a (n = {len(lat)} < 11)"),
            ("verify_s", "n/a (sampler workload)"),
        ]
    else:
        per_call = [c["busy_s"] for c in untraced]
        rows += [
            ("samples_per_s", "n/a (verify workload)"),
            ("flips_per_sample", "n/a (verify workload)"),
            ("sample_ms_p50", "n/a (verify workload)"),
            ("sample_ms_tail", "n/a (verify workload)"),
            ("verify_s", f"{statistics.median(per_call):.3f} s (median of {len(per_call)} calls;"
                         f" ops_per_s counts checks: {values['ops_per_s']:.3f} 1/s)"),
        ]
    rows += [
        ("setup_s", f"{values['setup_s']:.4f} s (median of {len(setups)} fresh interpreters)"),
        ("peak_rss_mb", f"{values['peak_rss_mb']:.1f} MB (median ru_maxrss of {len(untraced)} calls)"),
        ("failed_ratio", f"{failed}/{attempted} = {failed / attempted:.4f}"
                         f" ({'samples' if w['kind'] == 'sample' else 'checks'})"),
    ]
    for name, text in rows:
        print(f"{name:<17} {text}")
    return values


def print_layers(values: dict, w: dict) -> None:
    for name in sorted(values):
        print(f"{name:<40} {values[name]:.6g}")
    total = values["factory.sample.busy_s"]
    if w["kind"] == "sample" and total:
        trees = values["spanning.is_arborescence.busy_s"] + values["graphs.flip_tree.busy_s"]
        print(f"share of sample time: coins.flip_round {values['coins.flip_round.busy_s'] / total:.3f},"
              f" is_arborescence + flip_tree {trees / total:.3f},"
              f" factory.sample self {values['factory.sample.self_s'] / total:.3f}")


if __name__ == "__main__":
    sys.exit(main())
