"""The per-round coin path, the stage-1 vertex test and the tree stage of FlowSampler.

Seed-to-bytes goldens pin the sampler's output for fixed seeds, circ6 (30
edges) among them, and the path sampler's single-flip stream; each coin
draw is checked flip by flip against [U < p] rebuilt from the raw words it
took, and biases with denominators above 2^63 by their frequencies and
end to end; the stage-1 vertex test of ExitTables
is checked against is_vertex at every root, both on single masks and over
whole buffers of per-edge flip rows, and the bulk scan of SimulatedCoins
against a flip_round loop; the tree count K_f, its bound B and the exit maps below B
are checked against the flip_tree + is_arborescence reference, and K_f,
zero at every vertex or at none, against the sampler's one NoArborescence
check.
"""

import hashlib
import json
import math
import random
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flowfactory import (
    FlowPolytope,
    FlowSampler,
    Graph,
    InvalidInstance,
    MaxRestartsExceeded,
    NoArborescence,
    SimulatedCoins,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    enumerate_vertices,
    factory,
    random_interior_point,
    sample_flip_tree,
)
from flowfactory.cli import main
from flowfactory.coins import _BUFFER, _SLICED, CoinSource, _unpack
from flowfactory.graphs import flip_tree, is_vertex
from flowfactory.io import polytope_from_dict, polytope_to_dict
from flowfactory.oracle import qualifying_counts
from flowfactory.spanning import (
    ExitTables,
    directed_tree_count,
    enumerate_directed_trees,
    is_arborescence,
    qualifying_tree_count,
)

from instances import (
    HALF,
    THIRD,
    WORD,
    circ5m,
    coins_to_dict,
    demands_in_range,
    interior_instances,
    no_vertex,
    six_node_exchange,
    square,
    subprocess_env,
)


def _write_instance(tmp_path, P, p=HALF):
    """Write P and coins at x = p, one bias for every edge or a sequence of them;
    return the two paths as strings."""
    x = p if isinstance(p, (list, tuple)) else [p] * len(P.edges)
    poly, coins = tmp_path / "poly.json", tmp_path / "coins.json"
    poly.write_text(json.dumps(polytope_to_dict(P)))
    coins.write_text(json.dumps(coins_to_dict(x)))
    return str(poly), str(coins)


def _sample_digest(tmp_path, P, samples, p=HALF, root=None):
    """sha256 of `flowfactory sample` at x = p, seed 0, at `root` if one is given;
    every output must be a vertex."""
    out = tmp_path / "out.jsonl"
    argv = ["sample", *_write_instance(tmp_path, P, p), "--samples", str(samples),
            "--seed", "0", "--out", str(out)] + (["--root", str(root)] if root else [])
    assert main(argv) == 0
    for line in out.read_text().splitlines():
        flow = set(json.loads(line)["flow"])
        assert is_vertex(P, [int(i in flow) for i in range(len(P.edges))])
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_sample_bytes_golden_circ4(tmp_path, capsys):
    assert _sample_digest(tmp_path, build_circulation_polytope(4), 200) == (
        "b332f27f16d76158c6e7da92f8b77b8eda653ef8dfa92d63538c1a47cc028e71")


def test_sample_bytes_golden_circ4_last_root(tmp_path, capsys):
    # The stage-1 test leaves out the root's count, so at root 4 it counts node 1's.
    P = build_circulation_polytope(4)
    assert _sample_digest(tmp_path, P, 200, root=P.graph.incident_nodes[-1]) == (
        "288ae42ef885c9fcac5edea3d67f8a9a7ffa20651289005b163a02c256a65ade")


def test_sample_bytes_golden_circ5m(tmp_path, capsys):
    assert _sample_digest(tmp_path, circ5m(), 3) == (
        "25240625a676180cf5cfc958952cf51f72fc4477b4607c7a39dcde9d4df57618")


def test_sample_bytes_golden_circ6(tmp_path, capsys):
    assert _sample_digest(tmp_path, build_circulation_polytope(6), 2) == (
        "65fc62a6d692cd7dedcfa35a09455274b3746d7bedfcac1da84e279a79eddae5")


def test_sample_bytes_golden_kflow5_2(tmp_path, capsys):
    # Nodes 1 and 5 have demands 2 and -2, so their exit radices outdeg(v) - d(v)
    # differ from their out-degrees; the point is the barycenter of the 14 vertices.
    P = build_kflow_polytope(5, 2)
    vertices = enumerate_vertices(P)
    x = [Fraction(sum(f[i] for f in vertices), len(vertices)) for i in range(len(P.edges))]
    assert _sample_digest(tmp_path, P, 20, x) == (
        "31f695d9d7d46f76d1f4c86ee8f5c43d6cfb7de48305171eeffa14ef1636d991")


def test_sample_bytes_golden_kflow5_2_last_root(tmp_path, capsys):
    # At root 5, the sink, the bound B takes the source's radix outdeg(1) - 2 in place of the sink's.
    P = build_kflow_polytope(5, 2)
    vertices = enumerate_vertices(P)
    x = [Fraction(sum(f[i] for f in vertices), len(vertices)) for i in range(len(P.edges))]
    assert _sample_digest(tmp_path, P, 20, x, root=P.graph.incident_nodes[-1]) == (
        "239cfbccad23bf447652e8331d7736e0bd594d393cc6f1166b0426da74847573")


def test_sample_path_bytes_golden_kflow5(tmp_path, capsys, monkeypatch):
    # Single flips only, at a non-dyadic point; 40,000 paths take about 40,000
    # flips of every edge, so each edge's flip buffer refills once.
    monkeypatch.chdir(tmp_path)
    assert main(["gen", "kflow", "--nodes", "5", "--k", "1", "--out", "poly.json"]) == 0
    P = polytope_from_dict(json.loads((tmp_path / "poly.json").read_text()))
    x = random_interior_point(P, random.Random(0))
    assert all(b.denominator & (b.denominator - 1) for b in x)
    (tmp_path / "coins.json").write_text(json.dumps(coins_to_dict(x)))
    assert main(["sample-path", "poly.json", "coins.json", "--samples", "40000",
                 "--seed", "0", "--out", "out.jsonl"]) == 0
    assert hashlib.sha256((tmp_path / "out.jsonl").read_bytes()).hexdigest() == (
        "6d41736de8b8261930865e7a031b29b7f6996113cdbbd5416b38241c3d0c6df5")


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


def _drawn(coins, edge, n):
    """n flips of `edge` drawn into fresh words."""
    out = np.empty((n + 63) // 64, dtype=np.uint64)
    coins._draw_bits(edge, n, out)
    return out


def test_single_flips_cross_refills_byte_for_byte():
    # An edge's single flips are its own _draw_bits rows, one after another,
    # with rounds flipped in between from a buffer drawn before them.
    biases = [THIRD, Fraction(2, 5)]
    coins, ref = SimulatedCoins(biases, seed=7), SimulatedCoins(biases, seed=7)
    n = 2 * _BUFFER + 5
    masks = [coins.flip_round()]
    got = []
    for i in range(n):
        got.append(coins.flip(0))
        if i % 1000 == 0:
            masks.append(coins.flip_round())
            assert coins.flip_counts == (i + 1 + len(masks), len(masks))
    rounds = [_unpack(_drawn(ref, e, _BUFFER), len(masks)).tolist() for e in range(2)]
    flips = np.concatenate([_drawn(ref, 0, _BUFFER) for _ in range(3)])
    assert got == [int(b) for b in _unpack(flips, n)]
    assert masks == [rounds[0][j] | rounds[1][j] << 1 for j in range(len(masks))]
    assert coins.flip_counts == (n + len(masks), len(masks))
    assert coins.total_flips == n + 2 * len(masks)


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


# Biases whose draws stop at a dyadic digit (1/2, 1/16), within the 64-digit
# tail (1/2^70), or never (the rest); 10^30/(10^30+1) has a denominator
# above 2^63.
_EXACT_BIASES = [HALF, THIRD, Fraction(2, 5), Fraction(1, 16), Fraction(3, 7), Fraction(1, 2**70),
                 Fraction(10**30, 10**30 + 1)]
# Denominators of 65 and 102 bits.
_HUGE_BIASES = [Fraction(2**64, 2**65 + 1), Fraction(10**30, 3 * 10**30 + 1)]


class RawRecorder:
    """Stands in for a SimulatedCoins rng: hands out the raw words of `raw` and keeps each call's words."""

    def __init__(self, raw):
        self.bit_generator = self
        self._raw = raw
        self.calls = []

    def random_raw(self, size):
        words = np.asarray(self._raw(size), dtype=np.uint64)
        self.calls.append(words.tolist())
        return words


def _decided(p, a, t):
    """True or False once U, known to its first t digits a, is surely below p or surely not; else None."""
    low = Fraction(a, 1 << t)
    if low + Fraction(1, 1 << t) <= p:
        return True
    return False if low >= p else None


def _flips_from_words(p, calls, n):
    """The flips [U_j < p], j < n, with each U_j's digits rebuilt from the raw words a draw took.

    The first calls, one per sliced digit of p, hold that digit of every U_j
    (bit j % 64 of word j // 64); each later call holds the next 64 digits of
    every flip still undecided, in order.  The calls must have exactly those
    lengths, so the draw took no word more or fewer than that needs.
    """
    words = (n + 63) // 64
    den = p.denominator
    sliced = min(_SLICED, den.bit_length() - 1) if den & (den - 1) == 0 else _SLICED
    assert [len(c) for c in calls[:sliced]] == [words] * sliced
    digits = [0] * n
    for c in calls[:sliced]:
        digits = [2 * a + (c[j // 64] >> (j % 64) & 1) for j, a in enumerate(digits)]
    t = [sliced] * n
    for c in calls[sliced:]:
        lanes = [j for j in range(n) if _decided(p, digits[j], t[j]) is None]
        assert len(c) == len(lanes)
        for j, u in zip(lanes, c):
            digits[j], t[j] = (digits[j] << 64) | u, t[j] + 64
    flips = [_decided(p, a, k) for a, k in zip(digits, t)]
    assert None not in flips
    return flips


@pytest.mark.parametrize("p", _EXACT_BIASES, ids=str)
def test_draw_bits_is_u_below_p_at_the_first_differing_digit(p):
    coins = SimulatedCoins([p], seed=5)
    recorder = coins._rng = RawRecorder(np.random.default_rng(6).bit_generator.random_raw)
    for n in (_BUFFER, 1000):
        recorder.calls.clear()
        out = _unpack(_drawn(coins, 0, n), n)
        assert out.tolist() == _flips_from_words(p, recorder.calls, n)
        # Only 1/2 and 1/16 stop within the sliced digits; the rest reach the tail.
        assert (len(recorder.calls) > _SLICED) == (p.denominator not in (2, 16))


@pytest.mark.parametrize("p", [THIRD, Fraction(3, 7), Fraction(10**30, 10**30 + 1), Fraction(1, 2**70)],
                         ids=str)
def test_draw_bits_continues_while_u_equals_p(p):
    """Raw words that repeat p's own digits, which random words do with probability 2^-64 a
    word, keep every flip open through the sliced digits and two 64-digit words."""
    rng = np.random.default_rng(7)
    sent = []

    def digits_of_p(size):
        t = len(sent)
        if t < _SLICED:
            word = WORD if math.floor(p * 2 ** (t + 1)) & 1 else 0
        elif t < _SLICED + 2:
            word = math.floor(p * 2 ** (_SLICED + 64 * (t - _SLICED + 1))) & WORD
        else:
            return rng.bit_generator.random_raw(size)
        sent.append(word)
        return np.full(size, word, dtype=np.uint64)

    coins = SimulatedCoins([p], seed=0)
    coins._rng = recorder = RawRecorder(digits_of_p)
    n = 256
    out = _unpack(_drawn(coins, 0, n), n)
    assert out.tolist() == _flips_from_words(p, recorder.calls, n)
    if p.denominator == 2**70:
        # p's digits end within the first 64-digit word: a flip equal to p that far is tails.
        assert len(recorder.calls) == _SLICED + 1 and not out.any()
    else:
        assert [len(c) for c in recorder.calls[_SLICED:]] == [n, n, n]


@pytest.mark.parametrize("p", _HUGE_BIASES, ids=str)
def test_huge_denominator_flip_frequencies(p):
    coins = SimulatedCoins([p, p, p], seed=12)
    n = 40000
    ones = [0, 0, 0]
    for _ in range(n):
        mask = coins.flip_round()
        for e in range(3):
            ones[e] += (mask >> e) & 1
    single = sum(coins.flip(1) for _ in range(n))
    sd = float(n * p * (1 - p)) ** 0.5
    for count in ones + [single]:
        assert abs(count - float(n * p)) < 4 * sd, (ones, single)
    assert coins.flip_counts == (n, 2 * n, n)


def test_sample_with_huge_denominator_coins(tmp_path, capsys):
    _sample_digest(tmp_path, build_circulation_polytope(3), 50, _HUGE_BIASES[0])


class PerRound:
    """Coins seen only through flip_round and flip, so stage 1 runs round by round."""

    def __init__(self, coins):
        self.num_edges = coins.num_edges
        self.flip_round = coins.flip_round
        self.flip = coins.flip


def _two_cycle_chain(pairs, end_demand=0):
    """A path of 2-cycles on 2 * pairs edges.  With the default zero demands any
    union of 2-cycles is a vertex; otherwise one unit flows from end to end."""
    edges = tuple(e for v in range(1, pairs + 1) for e in ((v, v + 1), (v + 1, v)))
    return FlowPolytope(Graph(pairs + 1, edges), (end_demand,) + (0,) * (pairs - 1) + (-end_demand,))


def _ten_edge_tests():
    """Vertex tests over ten edges on four nodes, each at a root of its own: demands
    with vertices, and two in their nodes' ranges that no mask meets."""
    edges = ((1, 2), (2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (4, 1), (1, 4), (1, 3), (2, 4))
    demands = [(0, 0, 0, 0), (1, 0, 0, -1), (2, -1, 1, -2), (3, 3, -3, -3), (3, -2, 2, -3)]
    return [ExitTables(FlowPolytope(Graph(4, edges), d), 1 + i % 4) for i, d in enumerate(demands)]


class CountingRounds(SimulatedCoins):
    """SimulatedCoins that counts its flip_round calls."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rounds_read = 0

    def flip_round(self):
        self.rounds_read += 1
        return super().flip_round()


def _first_hit(hits, limit):
    """The first (mask, rounds) of a hit walk, stopped there, or (None, limit) when none of its `limit` rounds hits."""
    masks, span = next(hits, (None, None))
    return (None, limit) if masks is None else (masks[span[0]], hits.send(span[0]))


def _assert_first_hit_matches_loop(biases, tests, calls):
    m = len(biases)
    bulk, loop = SimulatedCoins(biases, seed=4), CountingRounds(biases, seed=4)
    pick = random.Random(9)
    rounds = hits = 0
    for i in range(calls):
        vertices = tests[i % len(tests)]
        # Limits that end right at a buffer boundary, and ones that cross it.
        limit = _BUFFER - rounds % _BUFFER if i % 50 == 0 else pick.choice((1, 7, 3000, 40000))
        got = _first_hit(bulk.hits_in(vertices, limit), limit)
        assert got == _first_hit(CoinSource.hits_in(loop, vertices, limit), limit), i
        rounds += got[1]
        hits += got[0] is not None
        if i % 3 == 0:
            assert bulk.flip(i % m) == loop.flip(i % m)
        assert bulk.flip_counts == loop.flip_counts
    assert rounds > 3 * _BUFFER and hits > 0
    # The reference really walked round by round, not through the bulk scan.
    assert loop.rounds_read == rounds
    assert [bulk.flip_round() for _ in range(_BUFFER)] == [loop.flip_round() for _ in range(_BUFFER)]


def test_first_hit_matches_flip_round_loop():
    _assert_first_hit_matches_loop([Fraction(k, 11) for k in range(1, 11)], _ten_edge_tests(), 400)
    # Each pairs a test that hits often with one that (almost) never does,
    # so that calls also run to their limits across buffers.
    circ6 = build_circulation_polytope(6).graph
    _assert_first_hit_matches_loop(
        [HALF] * 30,
        [ExitTables(FlowPolytope(circ6, d), 6) for d in [(0,) * 6, (5, 5, 5, -5, -5, -5)]], 60)
    # Sparse coins below edge 64 and dense ones above: hits carry bits of both words.
    _assert_first_hit_matches_loop(
        [Fraction(1, 16)] * 64 + [Fraction(15, 16)] * 6,
        [ExitTables(P, 1) for P in [_two_cycle_chain(35), _two_cycle_chain(35, 1)]], 60)


@pytest.mark.parametrize("P,start,limit", [
    # circ4 hits about 1,200 rounds a buffer; circ6 about 45, with gaps of
    # hundreds of rounds carried across each refill.
    pytest.param(build_circulation_polytope(4), 0, _BUFFER, id="circ4-to-a-refill"),
    pytest.param(build_circulation_polytope(4), 1000, 2 * _BUFFER - 1000, id="circ4-mid-to-a-refill"),
    pytest.param(build_circulation_polytope(4), 5, 3 * _BUFFER + 17, id="circ4-across-refills"),
    pytest.param(build_circulation_polytope(6), 0, 6 * _BUFFER, id="circ6-to-a-refill"),
    pytest.param(build_circulation_polytope(6), 7, 5 * _BUFFER + 3, id="circ6-across-refills"),
])
def test_hit_walk_matches_flip_round_walk(P, start, limit):
    m = len(P.edges)
    vertices = ExitTables(P, 1)
    bulk, loop = SimulatedCoins([HALF] * m, seed=6), CountingRounds([HALF] * m, seed=6)
    for coins in (bulk, loop):
        for _ in range(start):
            coins.flip_round()
    loop.rounds_read = 0

    def walk(coins, hits, stop):
        """Every hit's mask up to hit number `stop` (or the walk's end), with
        single flips between hits, as the re-flip stage makes them; and the
        rounds the walk answers when stopped there."""
        seen, flips = [], []
        for masks, span in hits:
            for i in span:
                seen.append(masks[i])
                if len(seen) % 5 == 1:
                    flips.append(coins.flip(len(seen) % m))
                if len(seen) == stop:
                    return seen, flips, hits.send(i), coins.flip_counts
        return seen, flips, None, coins.flip_counts

    got = walk(bulk, bulk.hits_in(vertices, limit), None)
    assert got == walk(loop, CoinSource.hits_in(loop, vertices, limit), None)
    assert loop.rounds_read == limit and bulk._rounds == start + limit
    hits = got[0]
    assert len(hits) > 10
    assert [bulk.flip_round() for _ in range(100)] == [loop.flip_round() for _ in range(100)]
    # Stopped at a hit, each walk answers the rounds through it and leaves the cursor just past it.
    for stop in (len(hits) // 2, len(hits)):
        bulk, loop = SimulatedCoins([HALF] * m, seed=6), SimulatedCoins([HALF] * m, seed=6)
        for coins in (bulk, loop):
            for _ in range(start):
                coins.flip_round()
        got = walk(bulk, bulk.hits_in(vertices, limit), stop)
        assert got == walk(loop, CoinSource.hits_in(loop, vertices, limit), stop)
        assert len(got[0]) == stop and got[2] <= limit and bulk._rounds == start + got[2]
        assert [bulk.flip_round() for _ in range(100)] == [loop.flip_round() for _ in range(100)]


@pytest.mark.parametrize("demand", [1 << 15, 1 << 16])
def test_vertex_test_never_hits_through_a_wrapped_count(demand):
    # The demand (or demand plus in-degree) wrapped to 8 or 16 bits is a
    # value the node's exit count reaches, so a scan target of k_v =
    # outdeg(v) - d(v) past v's count planes could hit.  No such target
    # arises: the polytope is refused when it is built.
    with pytest.raises(InvalidInstance, match=rf"^demand {demand} of node 1 lies outside its range \[-1, 1\]$"):
        FlowPolytope(Graph(3, ((1, 2), (2, 1), (2, 3), (3, 2))), (demand, 0, -demand))


def _scan(vertices, masks, m):
    """The vertex test run over `masks` as one buffer of per-edge flip rows."""
    nbytes = max(1, (m + 7) // 8)
    cols = np.frombuffer(b"".join(w.to_bytes(nbytes, "little") for w in masks), dtype=np.uint8)
    bits = np.unpackbits(cols.reshape(len(masks), nbytes), axis=1, bitorder="little")[:, :m]
    rows = np.zeros((m, 64 * ((len(masks) + 63) // 64)), dtype=np.uint8)
    rows[:, :len(masks)] = bits.T
    rows = np.packbits(rows, axis=1, bitorder="little").view(np.uint64)
    return _unpack(vertices.scan(rows), len(masks)).tolist()


def _assert_vertex_test_matches_is_vertex(P, masks):
    m = len(P.edges)
    expected = [is_vertex(P, [(w >> i) & 1 for i in range(m)]) for w in masks]
    for root in P.graph.incident_nodes:
        vertices = ExitTables(P, root)
        assert [w in vertices for w in masks] == expected, root
        assert _scan(vertices, masks, m) == expected, root
        assert _scan(vertices, masks[:1], m) == expected[:1], root  # a buffer of one word


def _triangle_and_isolated_nodes(demands):
    """The triangle's six edges on nodes 1-3 with `demands` on more nodes, and every mask:
    the test leaves out the root's count, and a node no edge touches has none."""
    edges = ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1))
    return FlowPolytope(Graph(len(demands), edges), demands), list(range(1 << len(edges)))


@st.composite
def polytopes_and_masks(draw):
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
                  if pairs else ())
    assume(edges)  # an edgeless graph has no root, and FlowSampler rejects it
    G = Graph(n, edges)
    P = FlowPolytope(G, draw(demands_in_range(G)))  # with no vertex or with some
    m = len(edges)
    masks = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1, max_size=64))
    if m <= 12:
        masks += [sum(b << i for i, b in enumerate(f)) for f in enumerate_vertices(P)]
    return P, masks


@settings(max_examples=80, deadline=None)
@given(polytopes_and_masks())
@example(_triangle_and_isolated_nodes((1, -1, 0, 0)))
@example(_triangle_and_isolated_nodes((0, 1, -1, 0, 0)))
def test_vertex_test_matches_is_vertex_random(case):
    _assert_vertex_test_matches_is_vertex(*case)


@pytest.mark.parametrize("P", [
    pytest.param(_two_cycle_chain(32), id="m64"),
    pytest.param(_two_cycle_chain(35), id="m70"),
])
def test_vertex_test_matches_is_vertex_over_a_buffer(P):
    # Sparse coins make unions of 2-cycles, vertices among them, common; at
    # 64 edges half the words of uniform masks are 2^63 or more.
    m = len(P.edges)
    sparse, uniform = SimulatedCoins([Fraction(1, 16)] * m, seed=2), SimulatedCoins([HALF] * m, seed=3)
    masks = [sparse.flip_round() for _ in range(_BUFFER)]
    masks += [uniform.flip_round() for _ in range(2048)]
    assert any(w >> 63 for w in masks) and any(w >> 64 for w in masks) == (m > 64)
    _assert_vertex_test_matches_is_vertex(P, masks)


def test_round_buffer_refills_fault_in_no_new_memory():
    """Reused round buffers: 40 refills plus scans on circ4 take almost no minor page faults.

    Arrays allocated afresh for every buffer are returned to the OS and faulted
    in again (hundreds of faults a refill); a fresh interpreter sees that.
    """
    script = (
        "import resource\n"
        "from fractions import Fraction\n"
        "from flowfactory import FlowPolytope, build_circulation_polytope\n"
        "from flowfactory.coins import _BUFFER, SimulatedCoins\n"
        "from flowfactory.spanning import ExitTables\n"
        "# circ4's edges with demands no mask meets, though each is within its node's degree\n"
        "graph = build_circulation_polytope(4).graph\n"
        "none = ExitTables(FlowPolytope(graph, (3, 3, -3, -3)), 1)\n"
        "coins = SimulatedCoins([Fraction(1, 2)] * 12, seed=0)\n"
        "next(coins.hits_in(none, _BUFFER), None)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "assert next(coins.hits_in(none, 40 * _BUFFER), None) is None\n"
        "assert coins.total_flips == 12 * 41 * _BUFFER\n"
        "print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 40)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    faults_per_refill = float(proc.stdout)
    assert faults_per_refill < 64, faults_per_refill


def _alternating_traces(P, other, samples, coins):
    """Traces of two samplers taking turns on one coin source."""
    samplers = (FlowSampler(P), FlowSampler(other))
    rng = random.Random(1)
    return [samplers[i % 2].sample(coins, rng) for i in range(samples)]


def _source_sink(P):
    return FlowPolytope(P.graph, (1,) + (0,) * (P.n - 2) + (-1,))


@pytest.mark.parametrize("P,x,samples", [
    pytest.param(build_circulation_polytope(4), None, 90, id="circ4"),
    pytest.param(build_circulation_polytope(4),
                 random_interior_point(build_circulation_polytope(4), random.Random(2)), 90,
                 id="circ4-nonuniform"),
    pytest.param(circ5m(), None, 8, id="circ5m"),
])
def test_bulk_scan_matches_per_round_path(P, x, samples):
    x = x or [HALF] * len(P.edges)
    bulk, per_round = SimulatedCoins(x, seed=7), SimulatedCoins(x, seed=7)
    traces = _alternating_traces(P, _source_sink(P), samples, bulk)
    assert traces == _alternating_traces(P, _source_sink(P), samples, PerRound(per_round))
    assert bulk.flip_counts == per_round.flip_counts
    # Enough rounds to cross at least two mask-buffer refills.
    assert sum(t.restarts + 1 for t in traces) > 2 * _BUFFER


def _dict_entries(value):
    """Entries of every dict in `value`, looking into dicts, lists and tuples."""
    if isinstance(value, dict):
        return len(value) + sum(_dict_entries(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return sum(_dict_entries(v) for v in value)
    return 0


def test_sampler_state_is_bounded_by_the_exit_tables():
    # The sampler's own state, its exit tables' included, holds no entry per
    # vertex met: at most one per local edge pattern of each non-root node.
    P = circ5m()
    sampler = FlowSampler(P)
    coins, rng = SimulatedCoins([HALF] * len(P.edges), seed=2), random.Random(3)
    for _ in range(200):
        sampler.sample(coins, rng)
    degree = {v: sum(v in e for e in P.edges) for v in P.graph.incident_nodes}
    patterns = sum(2 ** d for v, d in degree.items() if v != sampler.root)
    entries = _dict_entries([*vars(sampler).values(), *vars(sampler.exits).values()])
    assert 0 < entries <= patterns


def test_unreachable_root_raises_before_any_walk():
    # In every flip image nodes 1 and 2 exit only toward each other, so
    # neither reaches node 3 and no tree qualifies toward it.  The first
    # stage-1 pass finds K_f = 0 and raises there, before any rng draw, with
    # the walk's cursor just past that hit.  The cap is far above that hit
    # and small, so a sampler that drew on would fail fast.
    P = FlowPolytope(Graph(3, ((1, 2), (2, 1), (3, 2))), (0, 0, 0))
    sampler = FlowSampler(P, root=3)
    for seed in range(4):
        coins, rng = SimulatedCoins([HALF] * 3, seed=seed), random.Random(seed)
        state = rng.getstate()
        with pytest.raises(NoArborescence):
            sampler.sample(coins, rng, max_restarts=1000)
        ref = SimulatedCoins([HALF] * 3, seed=seed)
        _, rounds = _first_hit(ref.hits_in(sampler.exits, 1000), 1000)
        assert coins.total_flips == 3 * rounds < 3000 and rng.getstate() == state
        assert coins.flip_round() == ref.flip_round() and not sampler.qualifies
    rng = random.Random(0)
    state = rng.getstate()
    vertices = enumerate_vertices(P)
    assert qualifying_counts(P, 3).tolist() == [0] * len(vertices)
    for f in vertices:
        assert qualifying_tree_count(P, f, 3) == 0
        with pytest.raises(NoArborescence):
            sample_flip_tree(P, f, 3, rng)
    assert rng.getstate() == state


def test_node_without_exit_raises_at_the_first_stage1_pass():
    # Under its only vertex the edge 1->2 flips to 2->1, so node 1 has no
    # exit toward root 2: B = 0 and K_f = 0, and the first stage-1 pass
    # raises before any accept draw, however high the restart cap.  (No
    # interior point exists here, so the CLI never gets this far.)
    P = FlowPolytope(Graph(2, ((1, 2),)), (1, -1))
    sampler = FlowSampler(P, root=2)
    assert sampler.exits.bound == 0 and sampler.total_trees == 1
    coins, rng = SimulatedCoins([HALF], seed=0), random.Random(0)
    state = rng.getstate()
    with pytest.raises(NoArborescence):
        sampler.sample(coins, rng)
    _, rounds = _first_hit(SimulatedCoins([HALF], seed=0).hits_in(sampler.exits, 1000), 1000)
    assert coins.total_flips == rounds and rng.getstate() == state


_NO_ARBORESCENCE = [
    pytest.param(FlowPolytope(Graph(3, ((1, 2), (2, 1), (3, 2))), (0, 0, 0)), 3, id="unreachable-root"),
    pytest.param(FlowPolytope(Graph(2, ((1, 2),)), (1, -1)), 2, id="b-0"),
]


@pytest.mark.parametrize("P,root", _NO_ARBORESCENCE)
def test_no_arborescence_raises_at_every_call(P, root):
    # The check's answer is kept only once a tree qualifies: a sampler that
    # raised checks again at its next call's first stage-1 pass.  The small
    # cap makes a sampler that skipped the check and drew on fail fast.
    sampler = FlowSampler(P, root=root)
    coins, rng = SimulatedCoins([HALF] * len(P.edges), seed=0), random.Random(0)
    for _ in range(2):
        with pytest.raises(NoArborescence):
            sampler.sample(coins, rng, max_restarts=100)


def test_tree_count_runs_once_per_sampler(monkeypatch):
    # K_f is 0 for every vertex or for none, so the first stage-1 pass of a
    # sampler's life decides it and no later one asks again.
    calls = []

    def counted(*args):
        calls.append(args)
        return qualifying_tree_count(*args)

    monkeypatch.setattr(factory, "qualifying_tree_count", counted)
    P = build_circulation_polytope(4)
    sampler = FlowSampler(P)
    coins, rng = SimulatedCoins([HALF] * len(P.edges), seed=0), random.Random(0)
    for _ in range(50):
        sampler.sample(coins, rng)
    assert len(calls) == 1 and sampler.qualifies


def test_negative_degree_factors_are_no_bound():
    # An exit count k_v = outdeg(v) - d(v) below 0 or above deg(v) would make
    # B, the product of the k_v, count maps that do not exist.  Such demands
    # are refused when the polytope is built, so every factor lies in [0, deg(v)].
    for n, edges, demands, message in [
        # Nodes 1 and 2 each need two units out of one out-edge: the factors
        # (-1)(-1) would give B = 1 with no vertex.
        (3, ((1, 2), (2, 3), (3, 1)), (2, 2, -4), "demand 2 of node 1 lies outside its range [-1, 1]"),
        # Node 1 sends two units over one out-edge, and node 3, taking two
        # units in over one in-edge, would have factor 3 above its degree.
        (3, ((1, 2), (2, 1), (2, 3), (3, 2)), (2, 0, -2), "demand 2 of node 1 lies outside its range [-1, 1]"),
    ]:
        with pytest.raises(InvalidInstance, match=rf"^{re.escape(message)}$"):
            FlowPolytope(Graph(n, edges), demands)
    # Every factor in range and still no vertex: B = 4 at root 1 counts maps
    # that exist, and no mask passes stage 1 to read them.
    assert enumerate_vertices(no_vertex()) == [] and ExitTables(no_vertex(), 1).bound == 4


class ReflipCountingCoins(SimulatedCoins):
    """SimulatedCoins that also tallies single flips, which only the re-flip stage uses."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reflips = [0] * self.num_edges

    def flip(self, edge):
        self.reflips[edge] += 1
        return super().flip(edge)


@pytest.mark.parametrize("per_round", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2, 5])
def test_restart_cap_consumes_exactly_cap_plus_one_rounds(per_round, k):
    P = build_circulation_polytope(4)
    coins = ReflipCountingCoins([HALF] * len(P.edges), seed=k)
    with pytest.raises(MaxRestartsExceeded):
        FlowSampler(P).sample(PerRound(coins) if per_round else coins, random.Random(k),
                              max_restarts=k)
    rounds = [c - r for c, r in zip(coins.flip_counts, coins.reflips)]
    assert rounds == [k + 1] * len(P.edges)


@pytest.mark.parametrize("per_round", [False, True])
@pytest.mark.parametrize("cap", [_BUFFER - 2, _BUFFER - 1, _BUFFER])
def test_restart_cap_at_a_buffer_edge_consumes_exactly_cap_plus_one_rounds(per_round, cap):
    # A polytope with no vertex: no round passes stage 1, so the walk runs to
    # its limit, one round short of a buffer's end, at it, and one round into
    # the next buffer.
    P = no_vertex()
    coins, ref, rng = SimulatedCoins([HALF] * 5, seed=0), SimulatedCoins([HALF] * 5, seed=0), random.Random(0)
    state = rng.getstate()
    with pytest.raises(MaxRestartsExceeded):
        FlowSampler(P, root=1).sample(PerRound(coins) if per_round else coins, rng, max_restarts=cap)
    assert coins.flip_counts == (cap + 1,) * 5 and rng.getstate() == state
    assert coins.flip_round() == [ref.flip_round() for _ in range(cap + 2)][-1]


@pytest.mark.parametrize("P,root,seed,draws", [
    # circ4 at coin seed 12: round _BUFFER - 1 is a vertex, and at rng seed 6
    # its first tree draw qualifies and every re-flip differs, so it is accepted.
    pytest.param(build_circulation_polytope(4), None, 12, 6, id="accept"),
    # test_unreachable_root_raises_before_any_walk's instance: round
    # _BUFFER - 1 at coin seed 0 is the first stage-1 pass, and K_f = 0 there.
    pytest.param(FlowPolytope(Graph(3, ((1, 2), (2, 1), (3, 2))), (0, 0, 0)), 3, 0, 1,
                 id="no-arborescence-unreachable-root"),
    # test_node_without_exit_raises_at_the_first_stage1_pass's instance: B = 0.
    pytest.param(FlowPolytope(Graph(2, ((1, 2),)), (1, -1)), 2, 1, 0, id="no-arborescence-at-b-0"),
])
def test_stop_at_the_last_round_of_a_buffer(P, root, seed, draws):
    """A sample that stops at a hit on the last round of a buffer leaves the
    coins and the rng as the per-round walk leaves them."""
    sampler = FlowSampler(P, root=root)
    m = len(P.edges)
    ends = []
    for per_round in (False, True):
        coins, rng = SimulatedCoins([HALF] * m, seed=seed), random.Random(draws)
        for _ in range(_BUFFER - 1):
            coins.flip_round()
        try:
            result = sampler.sample(PerRound(coins) if per_round else coins, rng)
        except NoArborescence as exc:
            result = str(exc)
        ends.append((result, coins.flip_counts, coins.total_flips, rng.getstate(), coins.flip_round()))
    assert ends[0] == ends[1]
    result, _, total_flips = ends[0][:3]
    if root is None:
        assert result.restarts == 0 and total_flips == m * (_BUFFER - 1) + result.total_flips
    else:
        assert total_flips == m * _BUFFER


def test_cli_restart_cap_exits_6_without_traceback(tmp_path):
    paths = _write_instance(tmp_path, build_circulation_polytope(4))
    proc = subprocess.run(
        [sys.executable, "-c", "from flowfactory.cli import entry; entry()", "sample", *paths,
         "--samples", "5", "--seed", "0", "--max-restarts", "0"],
        capture_output=True, text=True, env=subprocess_env(), timeout=120)
    assert proc.returncode == 6, proc.stderr
    assert "MaxRestartsExceeded" in proc.stderr
    assert "Traceback" not in proc.stderr


def _assert_tree_stage_matches_reference(P):
    trees = set(enumerate_directed_trees(P.graph))
    assert directed_tree_count(P.graph) == len(trees)
    for root in P.graph.incident_nodes:
        tables = ExitTables(P, root)
        bound = tables.bound
        for f in enumerate_vertices(P):
            mask = sum(b << i for i, b in enumerate(f))
            qualifying = {t for t in trees if is_arborescence(flip_tree(P.graph, f, t), root)}
            assert qualifying_tree_count(P, f, root) == len(qualifying), (root, f)
            # Where no tree qualifies, every map below B is rejected: the
            # tables never raise, qualifying_tree_count alone decides.
            maps = [tables.tree(mask, u) for u in range(bound)]
            named = sorted(tuple(sorted(t)) for t in maps if t is not None)
            assert named == sorted(qualifying), (root, f)


def test_tree_count_and_exit_tables_match_reference():
    instances = [build_circulation_polytope(n) for n in (2, 3, 4)]
    instances += [build_matching_polytope(2), build_matching_polytope(3),
                  build_kflow_polytope(4, 2), square(), six_node_exchange()[0]]
    for P in instances:
        _assert_tree_stage_matches_reference(P)


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
def test_tree_count_and_exit_tables_match_reference_random(P):
    _assert_tree_stage_matches_reference(P)


@st.composite
def no_interior_instances(draw):
    """A connected digraph on 2-5 nodes and at most 8 edges, under the demands
    of a random 0/1 flow on it, with no interior point: some edge takes one
    value at every vertex (a bridge always does)."""
    n = draw(st.integers(2, 5))
    edges = []
    for v in range(2, n + 1):  # a spanning tree, each node hung from an earlier one
        u = draw(st.integers(1, v - 1))
        edges.append((u, v) if draw(st.booleans()) else (v, u))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v and (u, v) not in edges]
    edges += draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8 - len(edges)))
    flow = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    demands = [0] * n
    for (u, v), on in zip(edges, flow):
        demands[u - 1] += on
        demands[v - 1] -= on
    P = FlowPolytope(Graph(n, tuple(edges)), tuple(demands))
    bits = np.array(enumerate_vertices(P))
    assume((bits.min(axis=0) == bits.max(axis=0)).any())
    return P


def _assert_qualifying_at_every_vertex_or_none(P):
    # Two vertices' flip images differ by reversing edge-disjoint directed
    # cycles, which keeps who reaches whom; a tree qualifies toward root iff
    # every node reaches it.  So K_f > 0 at every vertex or at none.
    for root in P.graph.incident_nodes:
        counts = qualifying_counts(P, root)
        assert counts.all() or not counts.any(), (root, counts)


@settings(max_examples=60, deadline=None)
@given(interior_instances())
def test_qualifying_at_every_vertex_and_root_with_an_interior_point(case):
    # M_f(x) is balanced with positive weights, so strongly connected: every
    # root's counts are positive, the "every vertex" side of the property.
    P, _ = case
    for root in P.graph.incident_nodes:
        assert qualifying_counts(P, root).all(), root


@settings(max_examples=60, deadline=None)
@given(strongly_connected_circulations())
def test_qualifying_at_every_vertex_or_none_on_circulations(P):
    _assert_qualifying_at_every_vertex_or_none(P)


@settings(max_examples=100, deadline=None)
@given(no_interior_instances())
def test_qualifying_at_every_vertex_or_none_without_an_interior_point(P):
    _assert_qualifying_at_every_vertex_or_none(P)
