import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfactory import (
    BoundaryCoin,
    CoinSource,
    DisconnectedEdges,
    FlowPolytope,
    FlowSampler,
    Graph,
    InvalidInstance,
    MaxRestartsExceeded,
    SimulatedCoins,
    build_circulation_polytope,
    is_vertex,
    sample_path,
)

from instances import (
    HALF,
    THIRD,
    crossed_diamond,
    dag6,
    dag6_point,
    diamond_dag,
    disconnected_pair,
    interior_instances,
    triangle,
    two_node,
)


def test_simulated_coins_reject_boundary():
    with pytest.raises(BoundaryCoin):
        SimulatedCoins([Fraction(0), HALF])
    with pytest.raises(BoundaryCoin):
        SimulatedCoins([HALF, Fraction(1)])


def test_simulated_coins_frequency():
    coins = SimulatedCoins([THIRD], seed=42)
    n = 50000
    heads = sum(coins.flip(0) for _ in range(n))
    assert abs(heads - n / 3) < 4 * (n * (1 / 3) * (2 / 3)) ** 0.5
    assert coins.flip_counts == (n,)


def test_flip_round_matches_single_flips_in_distribution():
    coins = SimulatedCoins([THIRD, HALF], seed=9)
    n = 30000
    ones = [0, 0]
    for _ in range(n):
        mask = coins.flip_round()
        ones[0] += mask & 1
        ones[1] += (mask >> 1) & 1
    assert abs(ones[0] - n / 3) < 4 * (n * (1 / 3) * (2 / 3)) ** 0.5
    assert abs(ones[1] - n / 2) < 4 * (n * 0.25) ** 0.5


class RecordingCoins(CoinSource):
    """Passes on the flips of `coins` one at a time, logging each as (edge, bit)."""

    def __init__(self, coins):
        self.num_edges = coins.num_edges
        self._flip = coins.flip
        self.tape = []

    def flip(self, edge):
        bit = self._flip(edge)
        self.tape.append((edge, bit))
        return bit


class TapeCoins(CoinSource):
    """Replays a recorded (edge, bit) sequence; holds no bias information.

    Raises InvalidInstance when consumption diverges from the recording or
    the tape runs out.
    """

    def __init__(self, tape, num_edges):
        self.num_edges = num_edges
        self._tape = list(tape)
        self._pos = 0

    def flip(self, edge):
        if self._pos >= len(self._tape):
            raise InvalidInstance("coin tape exhausted")
        rec_edge, bit = self._tape[self._pos]
        if rec_edge != edge:
            raise InvalidInstance(f"tape expected a flip of edge {rec_edge}, got edge {edge}")
        self._pos += 1
        return bit


def test_tape_replay():
    coins = RecordingCoins(SimulatedCoins([THIRD, THIRD], seed=3))
    seq = [coins.flip(i % 2) for i in range(20)]
    replay = TapeCoins(coins.tape, 2)
    assert [replay.flip(i % 2) for i in range(20)] == seq
    with pytest.raises(InvalidInstance):
        replay.flip(0)  # tape exhausted
    replay2 = TapeCoins(coins.tape, 2)
    with pytest.raises(InvalidInstance):
        replay2.flip(1)  # diverges from the recorded edge


@pytest.mark.parametrize("make", [two_node, triangle, lambda: build_circulation_polytope(4)],
                         ids=["two_node", "triangle", "circ4"])
def test_sampler_runs_on_bias_free_tape(make):
    # the sampler must work given only bits: record a run, replay it, and
    # check both runs produce identical traces without bias access
    P = make()
    m = len(P.edges)
    sampler = FlowSampler(P)

    def traces(coins):
        rng = random.Random(15)
        return [sampler.sample(coins, rng) for _ in range(5)]

    coins = RecordingCoins(SimulatedCoins([THIRD] * m, seed=8))
    first = traces(coins)
    replay = TapeCoins(coins.tape, m)
    assert traces(replay) == first
    with pytest.raises(InvalidInstance):
        replay.flip(0)  # every recorded flip was consumed


@settings(max_examples=60, deadline=None)
@given(interior_instances(), st.integers(0, 1 << 16))
def test_sampler_replays_from_tape_on_random_instances(case, seed):
    P, x = case
    m = len(P.edges)
    sampler = FlowSampler(P)

    def traces(coins):
        rng = random.Random(seed)
        out = []
        try:
            for _ in range(4):
                out.append(sampler.sample(coins, rng, max_restarts=20_000))
        except MaxRestartsExceeded:
            out.append(None)
        return out

    coins = RecordingCoins(SimulatedCoins(x, seed=seed))
    first = traces(coins)
    replay = TapeCoins(coins.tape, m)
    assert traces(replay) == first
    assert all(is_vertex(P, t.output) for t in first if t is not None)
    with pytest.raises(InvalidInstance):
        replay.flip(0)  # every recorded flip was consumed


def test_sample_path_diamond():
    P = diamond_dag()
    coins = SimulatedCoins([HALF] * 4, seed=1)
    rng = random.Random(7)
    counts = {}
    n = 20000
    for _ in range(n):
        f = sample_path(P, coins, rng)
        assert is_vertex(P, f)
        counts[f] = counts.get(f, 0) + 1
    assert len(counts) == 2
    for c in counts.values():
        assert abs(c - n / 2) < 4 * (n * 0.25) ** 0.5


def test_sample_path_single_path():
    P = dag6()
    # biases concentrated on one path: still interior but the straight
    # chain must have probability close to its marginal product
    from flowfactory import FlowPolytope, Graph

    chain = FlowPolytope(Graph(3, ((1, 2), (2, 3))), (1, 0, -1))
    coins = SimulatedCoins([Fraction(99, 100)] * 2, seed=2)
    rng = random.Random(3)
    for _ in range(20):
        assert sample_path(chain, coins, rng) == (1, 1)


def test_sample_path_checks_the_dag_once_per_polytope(monkeypatch):
    from flowfactory import factory

    P = dag6()
    reads = []
    honest = FlowPolytope.demand
    monkeypatch.setattr(FlowPolytope, "demand", lambda self, v: reads.append(v) or honest(self, v))
    factory._unit_flow_dag_endpoints.cache_clear()
    coins, rng = SimulatedCoins(dag6_point(P), seed=0), random.Random(0)
    sample_path(P, coins, rng)
    first = len(reads)
    for _ in range(99):
        sample_path(P, coins, rng)
    assert first > 0 and len(reads) == first


@pytest.mark.parametrize("extra", [-1, 2], ids=["short", "long"])
@pytest.mark.parametrize("P, draw", [
    (triangle(), lambda P, coins, rng: FlowSampler(P).sample(coins, rng)),
    (diamond_dag(), sample_path),
], ids=["flow", "path"])
def test_samplers_reject_a_coin_source_of_the_wrong_size(P, draw, extra):
    m = len(P.edges)
    coins, rng = SimulatedCoins([HALF] * (m + extra), seed=0), random.Random(0)
    state = rng.getstate()
    with pytest.raises(InvalidInstance, match=f"has {m + extra} coins for {m} edges"):
        draw(P, coins, rng)
    assert coins.total_flips == 0 and rng.getstate() == state


def test_sample_path_rejects_non_dag():
    P = two_node()
    coins = SimulatedCoins([THIRD, THIRD], seed=0)
    with pytest.raises(InvalidInstance):
        sample_path(P, coins, random.Random(0))


def test_sample_path_rejects_a_directed_cycle_under_unit_demands():
    # Unit demands hold here, so only the acyclicity check can refuse it.
    P, x = crossed_diamond()
    with pytest.raises(InvalidInstance, match=r"^graph contains a directed cycle; not a DAG$"):
        sample_path(P, SimulatedCoins(x, seed=0), random.Random(0))


def test_sample_path_marginals_dag6():
    P = dag6()
    x = dag6_point(P)
    coins = SimulatedCoins(x, seed=11)
    rng = random.Random(12)
    n = 20000
    marg = [0] * len(P.edges)
    for _ in range(n):
        f = sample_path(P, coins, rng)
        assert is_vertex(P, f)
        for i, b in enumerate(f):
            marg[i] += b
    for i, c in enumerate(marg):
        p = float(x[i])
        assert abs(c - n * p) < 4 * (n * p * (1 - p)) ** 0.5


def test_sample_flow_two_node_distribution():
    P = two_node()
    coins = SimulatedCoins([THIRD, THIRD], seed=21)
    rng = random.Random(22)
    sampler = FlowSampler(P)
    n = 30000
    empty = 0
    for _ in range(n):
        trace = sampler.sample(coins, rng)
        assert is_vertex(P, trace.output)
        if trace.output == (0, 0):
            empty += 1
    # exact probability of the empty flow is 2/3
    assert abs(empty - n * 2 / 3) < 4 * (n * (2 / 3) * (1 / 3)) ** 0.5


def test_sample_flow_rejects_disconnected():
    P = disconnected_pair()
    with pytest.raises(DisconnectedEdges):
        FlowSampler(P)


def test_sample_flow_trace_accounting():
    P = two_node()
    coins = SimulatedCoins([THIRD, THIRD], seed=31)
    rng = random.Random(32)
    before = coins.total_flips
    trace = FlowSampler(P).sample(coins, rng)
    assert coins.total_flips - before == trace.total_flips
    assert trace.restarts >= 0


def test_sample_flow_root_choice_preserves_distribution():
    P = two_node()
    n = 20000
    empties = []
    for root in (1, 2):
        coins = SimulatedCoins([THIRD, THIRD], seed=41)
        rng = random.Random(42)
        sampler = FlowSampler(P, root=root)
        empty = sum(sampler.sample(coins, rng).output == (0, 0) for _ in range(n))
        empties.append(empty)
    for empty in empties:
        assert abs(empty - n * 2 / 3) < 4 * (n * (2 / 3) * (1 / 3)) ** 0.5
