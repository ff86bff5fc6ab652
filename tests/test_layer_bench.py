"""Micro-benchmarks of the sampler's per-round layers, its output lines and the oracle's orientation table (pytest-benchmark).

Fixed rounds keep them short; compare runs with `pytest tests/test_layer_bench.py
--benchmark-only` or `--benchmark-autosave`.
"""

import json
import random
from fractions import Fraction

from flowfactory import (
    SimulatedCoins,
    build_circulation_polytope,
    build_matching_polytope,
    enumerate_vertices,
    oracle,
)
from flowfactory.cli import _CHECKS
from flowfactory.coins import _BUFFER
from flowfactory.io import sample_line
from flowfactory.spanning import ExitTables, flip_laplacians, qualifying_tree_count, root_minors

from instances import HALF, THIRD, circ5m


def test_bench_flip_round_circ4(benchmark):
    coins = SimulatedCoins([HALF] * len(build_circulation_polytope(4).edges), seed=0)
    coins.flip_round()

    def rounds():
        for _ in range(10_000):
            coins.flip_round()

    benchmark.pedantic(rounds, rounds=5, iterations=1)
    assert coins.total_flips == 12 * (1 + 5 * 10_000)


def _bench_refill_circ4(benchmark, p):
    """Refill a round buffer of circ4's 12 edges, all at bias p; check the heads frequency."""
    coins = SimulatedCoins([p] * len(build_circulation_polytope(4).edges), seed=0)
    benchmark.pedantic(coins._refill, rounds=5, iterations=1)
    n = 12 * _BUFFER
    heads = sum(w.bit_count() for w in coins._rows.ravel().tolist())
    assert abs(heads - float(n * p)) < 4 * float(n * p * (1 - p)) ** 0.5
    assert coins.total_flips == 0


def test_bench_refill_circ4_half(benchmark):
    _bench_refill_circ4(benchmark, HALF)


def test_bench_refill_circ4_third(benchmark):
    _bench_refill_circ4(benchmark, THIRD)


def test_bench_refill_circ4_huge_den(benchmark):
    _bench_refill_circ4(benchmark, Fraction(2**64, 2**65 + 1))


def test_bench_stage1_scan_circ4(benchmark):
    # 1,000 hit walks, each stopped at its first hit.
    P = build_circulation_polytope(4)
    vertices = ExitTables(P, 1)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)
    rounds = []

    def hits():
        for _ in range(1000):
            walk = coins.hits_in(vertices, 1 << 20)
            _, span = next(walk)
            rounds.append(walk.send(span[0]))

    benchmark.pedantic(hits, rounds=5, iterations=1)
    assert len(rounds) == 5 * 1000
    assert coins.total_flips == 12 * sum(rounds)


def test_bench_hit_walk_circ4(benchmark):
    # One walk over four buffers, reading every hit's mask, as a sample's
    # restarts do; refills and scans included.
    P = build_circulation_polytope(4)
    vertices = ExitTables(P, 1)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)
    seen = []

    def walk():
        seen[:] = [masks[i] for masks, span in coins.hits_in(vertices, 4 * _BUFFER) for i in span]

    benchmark.pedantic(walk, rounds=5, iterations=1)
    assert coins.total_flips == 12 * 5 * 4 * _BUFFER
    assert len(seen) > 4 * _BUFFER * 152 / 4096 / 2 and all(w in vertices for w in seen)


def test_bench_refill_and_scan_circ5m(benchmark):
    P = circ5m()
    vertices = ExitTables(P, 1)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)

    def refill_and_scan():
        coins._refill()
        list(coins.hits_in(vertices, 1))  # tests the whole buffer, flips one round

    benchmark.pedantic(refill_and_scan, rounds=5, iterations=1)
    assert coins.total_flips == 18 * 5
    at, _ = coins._hits[vertices]
    assert len(at) > _BUFFER * 2440 / (1 << 18) / 2


def test_bench_refill_and_scan_circ6(benchmark):
    P = build_circulation_polytope(6)
    vertices = ExitTables(P, 1)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)

    def refill_and_scan():
        coins._refill()
        list(coins.hits_in(vertices, 1))

    benchmark.pedantic(refill_and_scan, rounds=5, iterations=1)
    assert coins.total_flips == 30 * 5
    at, masks = coins._hits[vertices]
    rows = coins._rows.tolist()
    assert masks == [sum((rows[e][j // 64] >> j % 64 & 1) << e for e in range(30)) for j in at]
    assert masks and all(w in vertices for w in masks)


def test_bench_sample_line_circ4(benchmark):
    # The output stage on its own: 10,000 JSONL lines of circ4 vertices.
    vertices = enumerate_vertices(build_circulation_polytope(4))
    lines = []

    def format_lines():
        lines[:] = [sample_line(vertices[k % 152], 12 * 1542 + k, 1541 + k) for k in range(10_000)]

    benchmark.pedantic(format_lines, rounds=5, iterations=1)
    assert lines[0] == json.dumps({"flips": 18504, "flow": [i for i, b in enumerate(vertices[0]) if b],
                                   "restarts": 1541}, sort_keys=True)


def test_bench_tree_count_circ5m(benchmark):
    # Root 1's minors of 200 vertices' flip images in one stacked
    # elimination, as verify's matrix-tree check takes them.
    P = circ5m()
    vertices = enumerate_vertices(P)[:200]
    ones = (1,) * len(P.edges)
    counts = []

    def count():
        counts[:] = root_minors(flip_laplacians(P, vertices, ones, ones), P.graph.incident_nodes.index(1))

    benchmark.pedantic(count, rounds=5, iterations=1)
    assert len(counts) == 200 and min(counts) > 0


def test_bench_exit_maps_circ5m(benchmark):
    # One set of tables for every draw, as FlowSampler keeps them: building
    # them per draw (sample_flip_tree) would take most of the time.
    P = circ5m()
    tables = ExitTables(P, 1)
    masks = [sum(b << i for i, b in enumerate(f)) for f in enumerate_vertices(P)[:1000]]
    rng = random.Random(0)
    trees = []

    def draws():
        trees.clear()
        for mask in masks:
            while (tree := tables.tree(mask, rng.randrange(tables.bound))) is None:
                pass
            trees.append(tree)

    benchmark.pedantic(draws, rounds=5, iterations=1)
    assert len(trees) == 1000 and all(len(t) == 4 for t in trees)


def test_bench_tree_stage_circ5m(benchmark):
    # Every draw below B on 200 vertices' masks, as the tree stage reads them
    # (B = 192 at root 1): more than half of the maps have a cycle and are
    # rejected, so the cyclic maps dominate.
    P = circ5m()
    tables = ExitTables(P, 1)
    vertices = enumerate_vertices(P)[:200]
    masks = [sum(b << i for i, b in enumerate(f)) for f in vertices]
    kept = []

    def draws():
        kept[:] = [sum(tables.tree(mask, u) is not None for u in range(tables.bound)) for mask in masks]

    benchmark.pedantic(draws, rounds=5, iterations=1)
    assert tables.bound == 192 and kept == [qualifying_tree_count(P, f, 1) for f in vertices]
    assert 2 * sum(kept) < 192 * 200


def _bench_per_root_pass(benchmark, P):
    """The orientation table from cold, then root 1's pass over the trees: every
    vertex's polynomial value at 1/2 and its qualifying-tree count."""
    x = (HALF,) * len(P.edges)
    counts = []

    def build():
        oracle._orientations.cache_clear()
        oracle._weights.cache_clear()
        oracle._weights(P, x, 1)
        counts[:] = oracle.qualifying_counts(P, 1)

    benchmark.pedantic(build, rounds=5, iterations=1)
    assert counts == [qualifying_tree_count(P, f, 1) for f in enumerate_vertices(P)]


def test_bench_orientations_and_qualifying_table_circ4(benchmark):
    _bench_per_root_pass(benchmark, build_circulation_polytope(4))


def test_bench_orientations_and_qualifying_table_circ5m(benchmark):
    # The same at a larger |V| (2,440 vertices, 1,200 trees), where each
    # (tree, root) entry's compare runs over every vertex's mask.
    _bench_per_root_pass(benchmark, circ5m())


def test_bench_bijection_check_circ4(benchmark):
    # verify's whole bijection check, every (tree, eta) pair, with the
    # orientation table built from cold.
    P = build_circulation_polytope(4)
    details = []

    def check():
        oracle._orientations.cache_clear()
        details[:] = [_CHECKS["bijection"](P, [HALF] * len(P.edges))]

    benchmark.pedantic(check, rounds=5, iterations=1)
    assert details == [(True, "verified 1152 (tree, eta) pairs")]  # 128 trees x 9 edges off each


def test_bench_bijection_check_match4(benchmark):
    # The same on match4: 36,864 pairs over only 24 vertices, so the cost
    # per pair, not the families, dominates.
    P = build_matching_polytope(4)
    details = []

    def check():
        oracle._orientations.cache_clear()
        details[:] = [_CHECKS["bijection"](P, [HALF] * len(P.edges))]

    benchmark.pedantic(check, rounds=5, iterations=1)
    assert details == [(True, "verified 36864 (tree, eta) pairs")]


def test_bench_factored_form_check_circ4(benchmark):
    # verify's whole factored-form check, every (vertex, root) pair, with the
    # tree-sum tables already cached as the root-independence check leaves
    # them, so only the factored side is timed.
    P = build_circulation_polytope(4)
    x = [HALF] * len(P.edges)
    for r in P.graph.incident_nodes:
        oracle._weights(P, tuple(x), r)
    details = []

    def check():
        details[:] = [_CHECKS["factored-form"](P, x)]

    benchmark.pedantic(check, rounds=5, iterations=1)
    assert details == [(True, "tree-sum equals prefix * arborescence-sum everywhere")]
