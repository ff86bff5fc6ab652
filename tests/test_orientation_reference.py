"""The oracle's tree table entry by entry, in plain Python, as the reference for its bulk numpy build.

`reference_entry` orients one tree toward one root by a search from the
root and lists, position by position, the vertices whose bits on the tree
are that orientation's pattern; `reference_weights` adds each tree's term
at those positions one at a time and multiplies by each vertex's prefix.
The oracle builds all of a root's entries in one pass and sums them with
one `np.add.at`, so its entries, its integer sums and its weight table must
equal these everywhere.
"""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings

from flowfactory import InvalidInstance, build_circulation_polytope
from flowfactory.oracle import (
    _orientations,
    _over_common_denominator,
    _weights,
    eval_polynomial,
    eval_polynomial_factored,
    qualifying_counts,
)

from instances import interior_instances


def _orient_toward(edges, root):
    """Unique orientation of a tree's undirected support with every edge toward root."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    oriented, seen, stack = set(), {root}, [root]
    while stack:
        v = stack.pop()
        for w in adj.get(v, []):
            if w not in seen:
                seen.add(w)
                oriented.add((w, v))
                stack.append(w)
    if len(oriented) != len(edges):
        raise InvalidInstance("support is not a tree containing the root")
    return frozenset(oriented)


def reference_entry(P, tree, root):
    """(pattern, positions): the tree edges that orienting toward root reverses, and the vertices whose bits spell it."""
    toward = _orient_toward([P.edges[i] for i in tree], root)
    pattern = sum(1 << i for i in tree if P.edges[i] not in toward)
    vertices = _orientations(P).vertices
    return pattern, [j for j, f in enumerate(vertices) if all(f[i] == pattern >> i & 1 for i in tree)]


def reference_tree_sums(P, root, term):
    """Per vertex, term(tree, pattern) summed over the trees whose entry lists it, one position at a time."""
    table = _orientations(P)
    sums = [0] * len(table.vertices)
    for tree in table.trees:
        pattern, positions = reference_entry(P, tree, root)
        value = term(tree, pattern)
        for j in positions:
            sums[j] += value
    return sums


def reference_weights(P, x, root):
    """Per vertex, prefix_f * treesum_f over x's common denominator d: P_f(x) d^(|E|+k-1)."""
    num, den = _over_common_denominator(tuple(x))
    sums = reference_tree_sums(P, root, lambda tree, pattern: prod(
        den - num[i] if pattern >> i & 1 else num[i] for i in tree))
    return [prod(n if b else den - n for n, b in zip(num, f)) * s
            for f, s in zip(_orientations(P).vertices, sums)]


def _assert_table_matches_reference(P, x):
    table = _orientations(P)
    for root in P.graph.incident_nodes:
        for tree in table.trees:
            pattern, positions = table.orientation(tree, root)
            assert (pattern, positions.tolist()) == reference_entry(P, tree, root), (tree, root)
        assert qualifying_counts(P, root).tolist() == reference_tree_sums(P, root, lambda tree, pattern: 1)
        assert _weights(P, tuple(x), root).tolist() == reference_weights(P, x, root), root


@settings(max_examples=60, deadline=None)
@given(interior_instances())
def test_bulk_table_matches_the_reference_on_random_instances(case):
    # Every (tree, root) entry, the tree counts and the weight table at every
    # incident root, on shapes with isolated nodes and non-contiguous labels.
    _assert_table_matches_reference(*case)


@pytest.mark.parametrize("x, dtype", [
    (Fraction(1, 2), np.int64),
    (Fraction(2 ** 61 + 1, 2 ** 62), object),
    (Fraction(-3), np.int64),
    (Fraction(10 ** 4), object),
    (Fraction(-10 ** 4), object),
], ids=["int64", "object", "negative-int64", "large", "large-negative"])
def test_both_weight_dtypes_match_the_reference_on_circ4(x, dtype):
    # A constant point is balanced on K4, where every node has equal in- and
    # out-degree.  Over d = 2^62 a single tree term already exceeds 2^63, so
    # the table must hold Python ints; at +-10^4 d is 1 but the factors x and
    # 1 - x are large, and a prefix alone is about 10^48.
    P = build_circulation_polytope(4)
    point = (x,) * len(P.edges)
    assert _weights(P, point, 1).dtype == dtype
    assert (max(map(abs, _weights(P, point, 1))) >= 2 ** 63) == (dtype is object)
    _assert_table_matches_reference(P, point)
    table = _orientations(P)
    assert [eval_polynomial(P, f, 1, point) for f in table.vertices] == [
        eval_polynomial_factored(P, f, 1, point) for f in table.vertices]
