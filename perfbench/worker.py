"""One call of the benchmark in a fresh interpreter, driven like the CLI.

Usage: python3 perfbench/worker.py SPEC.json SPAWN_TIME

SPEC.json names the source tree, the instance and coin files, the CLI seed
and the work; SPAWN_TIME is the parent's time.time() just before it started
this process, so set-up is timed from process start: interpreter start,
imports, instance load and (for sampling) FlowSampler construction.

Sampling follows `flowfactory sample`: SimulatedCoins(x, seed), the CLI's
salted random.Random, FlowSampler(P, root=None).sample(coins, rng) per
sample, one JSONL line per sample.  Verifying calls
`cli.main(["verify", ...])`.  With "trace" set, calls into each layer are
recorded as spans (see spans.py).  The last stdout line is one JSON object.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import os
import resource
import sys
import time
import traceback

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_sample(spec, mods, P, x, rec):
    cli, factory, graphs, ffio = mods["cli"], mods["factory"], mods["graphs"], mods["io"]
    seed = spec["seed"]
    coins = mods["coins"].SimulatedCoins(x, seed=seed)
    rng = cli._external_rng(seed)
    make, stages = factory.FlowSampler, None
    if rec is not None:
        import spans

        stages = spans.StageCounts()
        coins = spans.CoinProxy(coins, rec, stages)
        rng = spans.RngProxy(rng, rec, stages)
        make = rec.span("factory.init", make)
    sampler = make(P, root=None)
    sample = sampler.sample if rec is None else rec.span("factory.sample", sampler.sample)
    setup_s = time.time() - spec["spawn_time"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s}

    target, share, prefix = spec.get("samples"), spec.get("seconds"), spec["prefix"]
    clock = time.perf_counter
    lat, lines, counts = [], [], {}
    failed = flips = rounds = 0
    t0 = clock()
    while True:
        done = len(lat)
        if target is not None:
            if done >= target:
                break
        elif done >= prefix and clock() - t0 >= share:
            break
        a = clock()
        try:
            trace = sample(coins, rng)
        except Exception:  # any failure, MaxRestartsExceeded included, is a failed sample
            lat.append(clock() - a)
            failed += 1
            lines.append("")
            traceback.print_exc(file=sys.stderr)
            continue
        lat.append(clock() - a)
        f = trace.output
        lines.append(ffio.sample_line(f, trace.total_flips, trace.restarts))
        counts[f] = counts.get(f, 0) + 1
        flips += trace.total_flips
        rounds += trace.restarts + 1
    busy_s = clock() - t0
    rss = _peak_rss_mb()

    nonvertex = sum(n for f, n in counts.items() if not graphs.is_vertex(P, f))
    head = lines[:prefix]
    out = {
        "setup_s": setup_s,
        "busy_s": busy_s,
        "attempted": len(lat),
        "failed": failed + nonvertex,
        "nonvertex": nonvertex,
        "lat_s": lat,
        "flips": flips,
        "rounds": rounds,
        "counts": {ffio.flow_key(f): n for f, n in counts.items()},
        "peak_rss_mb": rss,
        "digest": hashlib.sha256("".join(l + "\n" for l in head).encode()).hexdigest(),
    }
    if spec.get("fidelity"):
        path = os.path.join(spec["workdir"], f"cli-sample-{seed}.jsonl")
        argv = ["sample", spec["polytope"], spec["coins"], "--samples", str(prefix),
                "--seed", str(seed), "--out", path]
        with contextlib.redirect_stdout(stdio.StringIO()):
            code = cli.main(argv)
        with open(path, encoding="utf-8") as fh:
            got = fh.read()
        out["fidelity"] = {"exit": code, "lines": prefix,
                           "identical": code == 0 and got == "".join(l + "\n" for l in head)}
    if stages is not None:
        out["stages"] = {"rounds": stages.rounds, "stage1": stages.stage1,
                         "stage2": stages.stage2, "distinct": len(stages.masks)}
    return out


def run_verify(spec, mods, P, x, rec):
    cli = mods["cli"]
    main = cli.main if rec is None else rec.span("cli.verify", cli.main)
    path = os.path.join(spec["workdir"], f"verify-{os.getpid()}.json")
    setup_s = time.time() - spec["spawn_time"]
    if spec.get("setup_only"):
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    try:
        code = main(["verify", spec["polytope"], spec["coins"], "--out", path])
    except Exception:  # a traceback from the CLI fails every check
        traceback.print_exc(file=sys.stderr)
        code = None
    busy_s = time.perf_counter() - t0
    rss = _peak_rss_mb()
    n_checks = len(cli._ALL_CHECKS)
    checks, marginals = [], []
    if code is not None and os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        checks, marginals = report["checks"], report["exact_marginals"]
    passed = sum(1 for c in checks if c["pass"]) if code == 0 else 0
    return {
        "setup_s": setup_s,
        "busy_s": busy_s,
        "attempted": max(n_checks, len(checks)),
        "failed": max(n_checks, len(checks)) - passed,
        "exit": code,
        "checks": [{"name": c["name"], "pass": c["pass"]} for c in checks],
        "marginals_equal_point": [(m["num"], m["den"]) for m in marginals]
        == [(b.numerator, b.denominator) for b in x],
        "peak_rss_mb": rss,
    }


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    spec["spawn_time"] = float(sys.argv[2])
    sys.path.insert(0, spec["src"])
    from flowfactory import cli, coins, factory, graphs, oracle, spanning
    from flowfactory import io as ffio

    mods = {"cli": cli, "coins": coins, "factory": factory, "graphs": graphs,
            "io": ffio, "oracle": oracle, "spanning": spanning}
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"flowfactory was imported from {cli.__file__}, not {spec['src']}", file=sys.stderr)
        return 2
    rec = None
    if spec["trace"]:
        import spans

        rec = spans.Recorder()
        spans.install(rec, mods)
    P = ffio.polytope_from_dict(ffio.load_json(spec["polytope"]))
    x = ffio.coins_from_dict(ffio.load_json(spec["coins"]), len(P.edges))
    graphs.require_interior_point(P, x)
    run = run_verify if spec["kind"] == "verify" else run_sample
    out = run(spec, mods, P, x, rec)
    if rec is not None:
        out["trace"] = rec.summarize()
        if spec.get("spans_out"):
            rec.save(spec["spans_out"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
