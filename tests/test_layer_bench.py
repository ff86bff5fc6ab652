"""Micro-benchmarks of the sampler's per-round layers and the oracle's orientation table (pytest-benchmark).

Fixed rounds keep them short; compare runs with `pytest tests/test_layer_bench.py
--benchmark-only` or `--benchmark-autosave`.
"""

import random
from fractions import Fraction

from flowfactory import SimulatedCoins, build_circulation_polytope, enumerate_vertices, oracle
from flowfactory.cli import _run_check
from flowfactory.coins import _BUFFER, VertexTest
from flowfactory.spanning import ExitTables, qualifying_tree_count

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


def test_bench_refill_circ4_third(benchmark):
    _bench_refill_circ4(benchmark, THIRD)


def test_bench_refill_circ4_huge_den(benchmark):
    _bench_refill_circ4(benchmark, Fraction(2**64, 2**65 + 1))


def test_bench_stage1_scan_circ4(benchmark):
    P = build_circulation_polytope(4)
    vertices = VertexTest(P)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)
    rounds = []

    def hits():
        for _ in range(1000):
            mask, n = next(coins.hits_in(vertices, 1 << 20))
            rounds.append(n)

    benchmark.pedantic(hits, rounds=5, iterations=1)
    assert len(rounds) == 5 * 1000
    assert coins.total_flips == 12 * sum(rounds)


def test_bench_refill_and_scan_circ5m(benchmark):
    P = circ5m()
    vertices = VertexTest(P)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)

    def refill_and_scan():
        coins._refill()
        next(coins.hits_in(vertices, 1), None)  # tests the whole buffer, flips one round

    benchmark.pedantic(refill_and_scan, rounds=5, iterations=1)
    assert coins.total_flips == 18 * 5
    at, _ = coins._hits[vertices]
    assert len(at) > _BUFFER * 2440 / (1 << 18) / 2


def test_bench_refill_and_scan_circ6(benchmark):
    P = build_circulation_polytope(6)
    vertices = VertexTest(P)
    coins = SimulatedCoins([HALF] * len(P.edges), seed=0)

    def refill_and_scan():
        coins._refill()
        next(coins.hits_in(vertices, 1), None)

    benchmark.pedantic(refill_and_scan, rounds=5, iterations=1)
    assert coins.total_flips == 30 * 5
    at, masks = coins._hits[vertices]
    rows = coins._rows.tolist()
    assert masks == [sum((rows[e][j // 64] >> j % 64 & 1) << e for e in range(30)) for j in at]
    assert masks and all(w in vertices for w in masks)


def test_bench_tree_count_circ5m(benchmark):
    P = circ5m()
    vertices = enumerate_vertices(P)[:200]
    counts = []

    def count():
        counts[:] = [qualifying_tree_count(P, f, 1) for f in vertices]

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
            bound = tables.maps(mask)
            while (tree := tables.tree(mask, rng.randrange(bound))) is None:
                pass
            trees.append(tree)

    benchmark.pedantic(draws, rounds=5, iterations=1)
    assert len(trees) == 1000 and all(len(t) == 4 for t in trees)


def test_bench_orientations_and_qualifying_table_circ4(benchmark):
    # The per-polytope orientation table, built from cold, and every
    # vertex's qualifying trees at root 1 read from it.
    P = build_circulation_polytope(4)
    vertices = enumerate_vertices(P)
    tables = []

    def build():
        oracle._orientations.cache_clear()
        tables[:] = [oracle.qualifying_trees(P, f, 1) for f in vertices]

    benchmark.pedantic(build, rounds=5, iterations=1)
    assert [len(t) for t in tables] == [qualifying_tree_count(P, f, 1) for f in vertices]


def test_bench_bijection_check_circ4(benchmark):
    # verify's whole bijection check, every (tree, eta) pair, with the
    # orientation table built from cold.
    P = build_circulation_polytope(4)
    details = []

    def check():
        oracle._orientations.cache_clear()
        details[:] = [_run_check("bijection", P, [HALF] * len(P.edges))]

    benchmark.pedantic(check, rounds=5, iterations=1)
    assert details == [(True, "verified 1152 (tree, eta) pairs")]  # 128 trees x 9 edges off each
