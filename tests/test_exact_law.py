"""The sampler's one-round law, exactly, by replaying every branch of a round.

With max_restarts=0 one call of FlowSampler.sample is one round: a finite
tree of choices, two outcomes per coin flip and n per randrange(n).  The
replay below serves as both the coin source and the rng: it takes a fixed
prefix of choices, branch 0 at every choice after it, and records each
choice's width and the exact probability of the path taken.  A depth-first
walk over all prefixes visits every leaf once, so summing the accepted
leaves per output gives the one-round law in Fractions.  It must be
P_f(x) / |T(E)| for every vertex f, and, with no oracle code, its mean
vertex must be x: the sum of law(f) f is x times the sum of law(f).
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings

from flowfactory import (
    CoinSource,
    FlowSampler,
    MaxRestartsExceeded,
    SampleTrace,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    enumerate_vertices,
    eval_polynomial,
    random_interior_point,
)
from flowfactory.spanning import ExitTables, directed_tree_count

from instances import interior_instances


class Replay(CoinSource):
    """Coins and rng of one round, taking `prefix` and then branch 0 at every choice."""

    def __init__(self, x, prefix):
        self.num_edges = len(x)
        self._x = x
        self.prefix = prefix
        self.taken: list[int] = []
        self.widths: list[int] = []
        self.probability = Fraction(1)

    def _choose(self, width: int) -> int:
        i = len(self.taken)
        choice = self.prefix[i] if i < len(self.prefix) else 0
        self.taken.append(choice)
        self.widths.append(width)
        return choice

    def flip(self, edge: int) -> int:
        bit = self._choose(2)
        self.probability *= self._x[edge] if bit else 1 - self._x[edge]
        return bit

    def randrange(self, n: int) -> int:
        self.probability /= n
        return self._choose(n)


def one_round_law(sampler, x) -> tuple[dict, Fraction]:
    """(output -> exact probability that one round outputs it, total probability of the paths walked)."""
    law: dict = {}
    stack = [()]
    walked = Fraction(0)
    while stack:
        replay = Replay(x, stack.pop())
        try:
            f = sampler.sample(replay, replay, max_restarts=0).output
            law[f] = law.get(f, Fraction(0)) + replay.probability
        except MaxRestartsExceeded:
            pass
        walked += replay.probability
        start = len(replay.prefix)
        for i in range(start, len(replay.taken)):
            stack.extend((*replay.taken[:i], c) for c in range(1, replay.widths[i]))
    return law, walked


def expected_law(P, x, root) -> dict:
    trees = directed_tree_count(P.graph)
    return {f: eval_polynomial(P, f, root, x) / trees for f in enumerate_vertices(P)}


def mean_is_x(law, x) -> bool:
    """True iff the law's mean vertex is x, exactly: sum of law(f) f = x sum of law(f)."""
    total = sum(law.values(), Fraction(0))
    return all(sum((p for f, p in law.items() if f[i]), Fraction(0)) == c * total for i, c in enumerate(x))


def instance(name):
    P = {
        "circ3": lambda: build_circulation_polytope(3),
        "kflow4_2": lambda: build_kflow_polytope(4, 2),
        "match3": lambda: build_matching_polytope(3),
        "kflow5_2": lambda: build_kflow_polytope(5, 2),
    }[name]()
    return P, random_interior_point(P, Random(3))


@pytest.mark.parametrize("name, root", [
    ("circ3", None), ("circ3", 3), ("kflow4_2", None), ("match3", None), ("kflow5_2", None),
])
def test_one_round_law_is_exact(name, root):
    P, x = instance(name)
    sampler = FlowSampler(P, root=root)
    law, walked = one_round_law(sampler, x)
    assert walked == 1  # every path of the round, each once
    assert set(law) <= set(enumerate_vertices(P))
    expected = expected_law(P, x, sampler.root)
    assert {f: law.get(f, Fraction(0)) for f in expected} == expected
    assert mean_is_x(law, x)


@settings(max_examples=25, deadline=None)
@given(interior_instances())
def test_one_round_law_is_exact_on_every_shape_and_root(case):
    P, x = case
    for root in P.graph.incident_nodes:
        sampler = FlowSampler(P, root=root)
        law, walked = one_round_law(sampler, x)
        assert walked == 1
        expected = expected_law(P, x, root)
        assert set(law) <= set(expected)
        assert {f: law.get(f, Fraction(0)) for f in expected} == expected
        assert mean_is_x(law, x)


class LastReflipOnTheFlippedBit:
    """Negative control: FlowSampler's round, save that the re-flip of the
    tree's last edge restarts when it shows the flipped bit 1 - f_e, not f_e."""

    def __init__(self, P):
        self.P = P
        self.exits = ExitTables(P, P.graph.incident_nodes[0])
        self.root = self.exits.root
        self.total_trees = directed_tree_count(P.graph)

    def sample(self, coins, rng, max_restarts=0):
        m = len(self.P.edges)
        mask = coins.flip_round()
        f = tuple(mask >> i & 1 for i in range(m))
        if mask in self.exits:
            u = rng.randrange(self.total_trees)
            tree = self.exits.tree(mask, u) if u < self.exits.bound else None
            if tree is not None and all(coins.flip(e) != f[e] ^ (e == tree[-1]) for e in tree):
                return SampleTrace(output=f, total_flips=0, restarts=0)
        raise MaxRestartsExceeded("the one round restarts")


def drop_the_last_reflip(monkeypatch):
    """Negative control: patch the tree stage to skip re-flipping its tree's last edge."""
    honest = ExitTables.tree

    def short(self, mask, u):
        tree = honest(self, mask, u)
        return None if tree is None else tree[:-1]

    monkeypatch.setattr(ExitTables, "tree", short)


def test_one_round_law_sees_a_dropped_reflip(monkeypatch):
    # A tree stage that skips re-flipping its last edge accepts too often,
    # and the replay must see it.
    P, x = instance("circ3")
    drop_the_last_reflip(monkeypatch)
    sampler = FlowSampler(P)
    law, _ = one_round_law(sampler, x)
    expected = expected_law(P, x, sampler.root)
    assert {f: law.get(f, Fraction(0)) for f in expected} != expected


@pytest.mark.parametrize("name", ["circ3", "kflow4_2", "match3", "kflow5_2"])
@pytest.mark.parametrize("control", ["dropped reflip", "last reflip on the flipped bit"])
def test_the_mean_alone_sees_both_controls(name, control, monkeypatch):
    # The mean check reads no oracle code, so it stands as a judge on its
    # own: it must refuse both broken samplers.
    P, x = instance(name)
    if control == "dropped reflip":
        drop_the_last_reflip(monkeypatch)
        sampler = FlowSampler(P)
    else:
        sampler = LastReflipOnTheFlippedBit(P)
    law, walked = one_round_law(sampler, x)
    assert walked == 1 and law
    assert not mean_is_x(law, x)
