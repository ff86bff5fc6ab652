"""The per-round coin path and the qualifying-tree fill of FlowSampler.

Seed-to-bytes goldens pin the sampler's output for fixed seeds; the fill is
checked tree by tree against the flip_tree + is_arborescence reference.
"""

import hashlib
import json
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from flowfactory import (
    FlowPolytope,
    FlowSampler,
    Graph,
    SimulatedCoins,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    enumerate_vertices,
)
from flowfactory.cli import main
from flowfactory.graphs import flip_tree
from flowfactory.io import polytope_to_dict
from flowfactory.spanning import is_arborescence

from instances import HALF, THIRD, circ5m, six_node_exchange, square


def _sample_digest(tmp_path, P, samples):
    poly, coins, out = (tmp_path / n for n in ("poly.json", "coins.json", "out.jsonl"))
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(
        {"coins": [{"edge": i, "num": 1, "den": 2} for i in range(len(P.edges))]}))
    argv = ["sample", str(poly), str(coins), "--samples", str(samples), "--seed", "0",
            "--out", str(out)]
    assert main(argv) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_sample_bytes_golden_circ4(tmp_path, capsys):
    assert _sample_digest(tmp_path, build_circulation_polytope(4), 200) == (
        "e0daaae12ba277a0c94bb1afab9725e70b0ae4c2b33c9e0cf41642903b998f68")


def test_sample_bytes_golden_circ5m(tmp_path, capsys):
    assert _sample_digest(tmp_path, circ5m(), 3) == (
        "129d0ca40d9172978766ac6fca4fbbff809e13303fa90116a2b557902fe3adef")


def test_flip_counts_exact_under_mixed_use():
    coins = SimulatedCoins([THIRD, HALF, Fraction(2, 5)], seed=3)
    expected = [0, 0, 0]
    for i in range(70000):  # crosses a mask-buffer refill
        coins.flip_round()
        expected = [c + 1 for c in expected]
        if i % 7 == 0:
            coins.flip(i % 3)
            expected[i % 3] += 1
        if i % 20000 == 0:
            assert coins.flip_counts == tuple(expected)
            assert coins.total_flips == sum(expected)
    assert coins.flip_counts == tuple(expected)
    assert coins.total_flips == sum(expected)


def test_flip_round_independent_bits_beyond_64_edges():
    biases = [HALF] * 64 + [THIRD] * 6
    coins = SimulatedCoins(biases, seed=11)
    n = 20000
    ones = [0] * 70
    disagree = 0
    for _ in range(n):
        mask = coins.flip_round()
        for e in range(63, 70):
            ones[e] += (mask >> e) & 1
        disagree += ((mask >> 63) ^ (mask >> 64)) & 1
    assert mask >> 70 == 0
    for e in range(63, 70):
        p = float(biases[e])
        assert abs(ones[e] - n * p) < 4 * (n * p * (1 - p)) ** 0.5, e
    p = 1 / 2 * 2 / 3 + 1 / 2 * 1 / 3
    assert abs(disagree - n * p) < 4 * (n * p * (1 - p)) ** 0.5
    assert coins.flip_counts == (n,) * 70


def _assert_fill_matches_reference(P):
    for root in P.graph.incident_nodes:
        sampler = FlowSampler(P, root=root)
        for f in enumerate_vertices(P):
            mask = sum(b << i for i, b in enumerate(f))
            expected = tuple(t for t in sampler._all_trees
                             if is_arborescence(flip_tree(P.graph, f, t), root))
            assert sampler._qualifying_trees(mask, f) == expected, (root, f)


def test_qualifying_tree_fill_matches_reference():
    instances = [build_circulation_polytope(n) for n in (2, 3, 4)]
    instances += [build_matching_polytope(2), build_matching_polytope(3),
                  build_kflow_polytope(4, 2), square(), six_node_exchange()[0]]
    for P in instances:
        _assert_fill_matches_reference(P)


@st.composite
def strongly_connected_circulations(draw):
    n = draw(st.integers(2, 5))
    cycle = [(v, v % n + 1) for v in range(1, n + 1)]
    others = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1)
              if u != v and (u, v) not in cycle]
    extra = draw(st.lists(st.sampled_from(others), unique=True, max_size=5)) if others else []
    return FlowPolytope(Graph(n, tuple(cycle + extra)), (0,) * n)


@settings(max_examples=60, deadline=None)
@given(strongly_connected_circulations())
def test_qualifying_tree_fill_matches_reference_random(P):
    _assert_fill_matches_reference(P)
