"""The exchange check pair by pair, in plain Python, as the reference for the oracle's array form.

`reference_check_bijection` runs the six checks of one (tree, eta) pair in
order.  It reads the same (tree, root) entries and vertex edge-bit ints as
`oracle._exchange_failures`, so under any perturbation of those the two
must fail at the same pair with the same message, or both pass the same
number of pairs.
"""

import random
from fractions import Fraction

import pytest

from flowfactory import (
    IdentityViolated,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
)
from flowfactory.cli import _CHECKS
from flowfactory.graphs import _connects, reverse_edge
from flowfactory.oracle import _EXCHANGE_CHECKS, _exchange_failures, _Orientations, _orientations

INSTANCES = {
    "circ3": lambda: build_circulation_polytope(3),
    "circ4": lambda: build_circulation_polytope(4),
    "kflow4_2": lambda: build_kflow_polytope(4, 2),
    "match3": lambda: build_matching_polytope(3),
}


def _is_directed_cycle(arcs) -> bool:
    """True iff the arcs form one directed cycle: each of their nodes is the
    tail of one arc and the head of one, and the arcs join those nodes."""
    tails, heads = {u for u, _ in arcs}, {v for _, v in arcs}
    return tails == heads and len(tails) == len(arcs) and _connects(tails, list(arcs))


def reference_check_bijection(P, tree, eta) -> None:
    """One pair's six checks in order; raises IdentityViolated at the first that fails."""
    m = len(P.edges)
    table = _orientations(P)
    tree_bits = sum(1 << i for i in tree)
    s, t = P.edges[eta]
    pattern_s, at_s = table.orientation(tree, s)
    pattern_t, at_t = table.orientation(tree, t)
    plus = 1 << eta | pattern_t & ~pattern_s
    minus = pattern_s & ~pattern_t
    support = plus | minus

    # g must be balanced and supported inside T + eta.
    if any((plus & out).bit_count() - (minus & out).bit_count()
           != (plus & into).bit_count() - (minus & into).bit_count() for out, into in P.graph.node_bits):
        raise IdentityViolated("exchange vector is not balanced")
    if support & ~(tree_bits | 1 << eta):
        raise IdentityViolated("exchange vector leaves the tree support")

    # Cycle decomposition: g = (cycle through eta) - two-cycles of its minus edges.
    ids = [i for i in range(m) if support >> i & 1]
    g = [0] * m
    for i in ids:
        g[i] = 1 if plus >> i & 1 else -1
    cycle = {P.edges[i] if g[i] > 0 else reverse_edge(P.edges[i]) for i in ids}
    if not _is_directed_cycle(cycle):
        raise IdentityViolated("eta with the exchange edges is not a directed cycle")
    recomposed = dict.fromkeys(cycle, 1)
    for i in ids:
        if g[i] < 0:
            for a in (P.edges[i], reverse_edge(P.edges[i])):
                recomposed[a] = recomposed.get(a, 0) - 1
    recomposed = {e: v for e, v in recomposed.items() if v}
    if recomposed != {P.edges[i]: g[i] for i in ids}:
        raise IdentityViolated("cycle decomposition does not recompose the vector")

    # Both flow families, split on eta's bit, and the map between them.
    masks = table.masks
    sources = [j for j in at_s if not masks[j] >> eta & 1]
    targets = [j for j in at_t if masks[j] >> eta & 1]
    if any(masks[j] & support != minus for j in sources):
        raise IdentityViolated("image of the exchange map leaves {0,1}")
    if {masks[j] ^ support for j in sources} != {masks[j] for j in targets}:
        raise IdentityViolated("exchange map is not a bijection onto the target family")


def _pairs(P):
    return [(tree, eta) for tree in _orientations(P).trees
            for eta in range(len(P.edges)) if eta not in tree]


def _reference_outcomes(P, pairs):
    """Per pair, the message of its first failing check, or None."""
    outcomes = []
    for tree, eta in pairs:
        try:
            reference_check_bijection(P, tree, eta)
            outcomes.append(None)
        except IdentityViolated as exc:
            outcomes.append(str(exc))
    return outcomes


def _array_outcomes(P, pairs):
    failed = _exchange_failures(P, pairs)
    return [_EXCHANGE_CHECKS[column.argmax()] if column.any() else None for column in failed.T]


def _perturb(kind, P, rng, monkeypatch):
    """Perturb one (tree, root) entry or one vertex's edge-bit int; return an undo."""
    table = _orientations(P)
    tree = rng.choice(table.trees)
    root = rng.choice(P.graph.incident_nodes)
    honest = _Orientations.orientation
    if kind == "mask":
        # Every root's entries are built first, from the honest bits.
        for r in P.graph.incident_nodes:
            table.entries(r)
        j, bit = rng.randrange(len(table.masks)), 1 << rng.randrange(len(P.edges))
        table.masks[j] ^= bit
        return lambda: table.masks.__setitem__(j, table.masks[j] ^ bit)
    if kind == "pattern":
        # A pattern bit flipped, on or off the tree; the family stays.
        bit = 1 << rng.randrange(len(P.edges))

        def perturbed(self, t, r):
            pattern, positions = honest(self, t, r)
            return (pattern ^ bit if (t, r) == (tree, root) else pattern), positions
    elif kind == "eta":
        # The tail entry's pattern is the head entry's with eta's bit set: g's only arc is eta.
        eta = rng.choice([e for e in range(len(P.edges)) if e not in tree])
        tail, head = P.edges[eta]

        def perturbed(self, t, r):
            pattern, positions = honest(self, t, r)
            return (honest(self, tree, head)[0] | 1 << eta if (t, r) == (tree, tail) else pattern), positions
    else:
        # The pattern stays, but the family is the vertices one tree bit off it.
        bit = 1 << rng.choice(tree)

        def perturbed(self, t, r):
            pattern, positions = honest(self, t, r)
            if (t, r) == (tree, root):
                positions = [j for j, f in enumerate(self.masks) if f & sum(1 << i for i in t) == pattern ^ bit]
            return pattern, positions
    monkeypatch.setattr(_Orientations, "orientation", perturbed)
    return monkeypatch.undo


@pytest.mark.parametrize("name", INSTANCES)
@pytest.mark.parametrize("kind", ["honest", "pattern", "family", "mask", "eta"])
def test_array_exchange_check_agrees_with_the_reference(name, kind, monkeypatch):
    # Each pair's first failing check, and verify's result over every pair in
    # blocks, agree with the reference, honest and under seeded perturbations.
    P = INSTANCES[name]()
    x = [Fraction(1, 2)] * len(P.edges)
    pairs = _pairs(P)
    rng = random.Random(f"{name}-{kind}")
    failures = 0
    for _ in range(1 if kind == "honest" else 8):
        undo = (lambda: None) if kind == "honest" else _perturb(kind, P, rng, monkeypatch)
        try:
            expected = _reference_outcomes(P, pairs)
            assert _array_outcomes(P, pairs) == expected
            first = next((message for message in expected if message), None)
            if first is None:
                assert _CHECKS["bijection"](P, x) == (True, f"verified {len(pairs)} (tree, eta) pairs")
            else:
                failures += 1
                with pytest.raises(IdentityViolated) as raised:
                    _CHECKS["bijection"](P, x)
                assert str(raised.value) == first
        finally:
            undo()
    assert (failures > 0) == (kind != "honest")  # each kind of perturbation is seen

