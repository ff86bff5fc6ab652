import itertools
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowfactory import (
    FlowPolytope,
    Graph,
    InvalidInstance,
    NoArborescence,
    NotCirculation,
    WeightedDigraph,
    build_circulation_polytope,
    count_arborescences,
    enumerate_directed_trees,
    enumerate_vertices,
    sample_flip_tree,
)
from flowfactory.graphs import flip_tree, is_vertex
from flowfactory.spanning import (
    ExitTables,
    _laplacians,
    det_stack,
    directed_tree_count,
    flip_laplacians,
    is_arborescence,
    qualifying_tree_count,
    root_minors,
)

from instances import THIRD, interior_instances, square, square_cycle_flow, triangle, two_node


def _det(matrix: list[list[int]]) -> int:
    """det_stack of one matrix."""
    n = len(matrix)
    return det_stack(np.array(matrix, dtype=object).reshape(1, n, n))[0]


def test_det_bareiss_small():
    assert _det([]) == 1
    assert _det([[5]]) == 5
    assert _det([[1, 2], [3, 4]]) == -2
    assert _det([[0, 1], [1, 0]]) == -1
    assert _det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


def det_cofactor(matrix) -> Fraction:
    """Independent reference: determinant by cofactor expansion."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(matrix[0][0])
    total = Fraction(0)
    for j in range(n):
        if matrix[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in matrix[1:]]
        term = Fraction(matrix[0][j]) * det_cofactor(minor)
        total += term if j % 2 == 0 else -term
    return total


def test_det_exact_vs_cofactor_random():
    rng = random.Random(321)
    for _ in range(25):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        assert _det(m) == det_cofactor(m)
    # Stacks in which each matrix takes its own row swaps: sparse entries make
    # zero pivots, a repeated row makes a singular matrix, and entries reach
    # past 2^63, so an int64 elimination would overflow.
    for _ in range(40):
        n = rng.randrange(0, 6)
        stack = []
        for _ in range(rng.randrange(1, 9)):
            top = rng.choice([9, 2 ** 80])
            m = [[rng.choice([0, 0, rng.randrange(-top, top + 1)]) for _ in range(n)] for _ in range(n)]
            if n > 1 and rng.random() < 0.25:
                m[rng.randrange(1, n)] = list(m[0])
            stack.append(m)
        dets = det_stack(np.array(stack, dtype=object).reshape(len(stack), n, n))
        assert list(dets) == [det_cofactor(m) for m in stack], stack
        assert all(type(d) is int for d in dets)
    assert det_stack(np.array([[[0, 0], [0, 5]], [[0, 2 ** 70], [3, 0]]], dtype=object)).tolist() == [
        0, -3 * 2 ** 70]


def test_count_arborescences_two_node():
    W = WeightedDigraph((1, 2), {(1, 2): 7, (2, 1): 4})
    assert count_arborescences(W, 1) == 4
    assert count_arborescences(W, 2) == 7


def test_count_arborescences_complete_3():
    W = WeightedDigraph((1, 2, 3), {(u, v): 1 for u in (1, 2, 3) for v in (1, 2, 3) if u != v})
    for r in (1, 2, 3):
        assert count_arborescences(W, r) == 3


@pytest.mark.parametrize("nodes", [(1, 1, 2), (1, 2, 2)])
def test_weighted_digraph_rejects_a_repeated_node(nodes):
    with pytest.raises(InvalidInstance, match="repeats a node"):
        WeightedDigraph(nodes, {(1, 2): 1, (2, 1): 1})


def test_count_arborescences_path():
    W = WeightedDigraph((1, 2, 3), {(1, 2): 1, (2, 3): 1})
    assert count_arborescences(W, 1) == 0
    assert count_arborescences(W, 3) == 1


def _brute_count(W, root):
    # expand multiplicities into labelled parallel edges and count
    # toward-root spanning sets directly
    import itertools

    labelled = []
    for e, w in W.weights.items():
        labelled.extend([e] * w)
    n = len(W.nodes)
    total = 0
    for combo in itertools.combinations(range(len(labelled)), n - 1):
        edges = [labelled[i] for i in combo]
        if len({e[0] for e in edges}) == n - 1 and is_arborescence(set(edges), root):
            # distinct tails and arborescence test; parallel copies count
            # separately, which is exactly the multiplicity product
            total += 1
    return total


def test_matrix_tree_random_digraphs():
    rng = random.Random(777)
    for _ in range(40):
        n = rng.randrange(2, 6)
        nodes = tuple(range(1, n + 1))
        weights = {}
        for u in nodes:
            for v in nodes:
                if u != v and rng.random() < 0.6:
                    weights[(u, v)] = rng.randrange(1, 3)
        W = WeightedDigraph(nodes, weights)
        for r in nodes:
            assert count_arborescences(W, r) == _brute_count(W, r)
    # Nodes out of order, where every count is positive, and a node (4) with no arc, where none is.
    weights = {(1, 2): 2, (2, 1): 1, (3, 1): 1, (3, 2): 2, (2, 3): 1}
    for nodes, positive in (((3, 1, 2), True), ((1, 2, 3, 4), False)):
        W = WeightedDigraph(nodes, weights)
        counts = [count_arborescences(W, r) for r in nodes]
        assert counts == [_brute_count(W, r) for r in nodes]
        assert all(counts) if positive else not any(counts)


def test_matrix_tree_random_rational_weights():
    # unbalanced digraphs with rational weights: the count scaled back from
    # the integer minor equals the product-sum over enumerated arborescences
    import itertools

    rng = random.Random(778)
    for _ in range(30):
        n = rng.randrange(2, 6)
        nodes = tuple(range(1, n + 1))
        weights = {
            (u, v): Fraction(rng.randrange(1, 10), rng.randrange(1, 8))
            for u in nodes for v in nodes if u != v and rng.random() < 0.6
        }
        W = WeightedDigraph(nodes, weights)
        for r in nodes:
            brute = Fraction(0)
            for arcs in itertools.combinations(weights, n - 1):
                if is_arborescence(arcs, r):
                    term = Fraction(1)
                    for e in arcs:
                        term *= weights[e]
                    brute += term
            assert count_arborescences(W, r) == brute, (weights, r)


def _balanced(weights: dict) -> bool:
    """True iff arc weights {(u, v): w} have zero net flow at every node."""
    net: dict[int, Fraction] = {}
    for (u, v), w in weights.items():
        net[u] = net.get(u, 0) + w
        net[v] = net.get(v, 0) - w
    return all(x == 0 for x in net.values())


def sarb(weights: dict, root: int, nodes: tuple[int, ...]) -> Fraction:
    """Sum over arborescences toward `root` of the product of the arc weights {(u, v): w}.

    Root-independent for balanced weights (ZLS Laplacian); raises
    NotCirculation otherwise.
    """
    if not _balanced(weights):
        raise NotCirculation("vector violates the balance equations")
    weights = {e: Fraction(w) for e, w in weights.items() if w != 0}
    return Fraction(count_arborescences(WeightedDigraph(nodes, weights), root))


def test_sarb_examples():
    ones = {(u, v): Fraction(1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v}
    for r in (1, 2, 3):
        assert sarb(ones, r, (1, 2, 3)) == 3
    two_cycle = {(1, 2): Fraction(1), (2, 1): Fraction(1)}
    for r in (1, 2, 3):
        assert sarb(two_cycle, r, (1, 2, 3)) == 0
    # M_f(x) on two_node at f = (1, 1) and x = 1/3: both edges turned, each of weight 1 - 1/3.
    vec = {(2, 1): 1 - THIRD, (1, 2): 1 - THIRD}
    assert sarb(vec, 1, nodes=(1, 2)) == Fraction(2, 3)
    assert sarb(vec, 2, nodes=(1, 2)) == Fraction(2, 3)


def test_sarb_rejects_unbalanced():
    bad = {(1, 2): Fraction(1)}
    with pytest.raises(NotCirculation):
        sarb(bad, 1, (1, 2, 3))


def _random_circulation(rng, n):
    """Nonnegative rational combination of directed-cycle indicators."""
    values = {}
    nodes = list(range(1, n + 1))
    for _ in range(rng.randrange(2, 5)):
        k = rng.randrange(2, n + 1)
        cyc = rng.sample(nodes, k)
        coef = Fraction(rng.randrange(1, 7), rng.randrange(1, 5))
        for i in range(k):
            e = (cyc[i], cyc[(i + 1) % k])
            values[e] = values.get(e, Fraction(0)) + coef
    return {e: v for e, v in values.items() if v}


def test_sarb_root_independence_random():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(3, 6)
        x = _random_circulation(rng, n)
        assert _balanced(x)
        vals = {sarb(x, r, nodes=tuple(range(1, n + 1))) for r in range(1, n + 1)}
        assert len(vals) == 1


def test_zls_cofactor_random():
    # A zero-line-sum matrix is the out-Laplacian of the arcs i -> j of
    # weight -m[i][j], so its root minor at each node is that principal
    # cofactor, and all agree.
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randrange(2, 7)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        # correct last column then last row so all lines sum to zero
        for i in range(n):
            m[i][n - 1] = -sum(m[i][:-1])
        for j in range(n):
            m[n - 1][j] = -sum(m[i][j] for i in range(n - 1))
        arcs = [(i, j, -m[i][j]) for i in range(n) for j in range(n) if i != j]
        tail, head, w = zip(*arcs)
        L = _laplacians(n, np.array([tail]), np.array([head]), np.array([w], dtype=object))
        assert L.tolist() == [m]
        minors = [root_minors(L, r)[0] for r in range(n)]
        assert minors == [
            det_cofactor([row[:r] + row[r + 1:] for k, row in enumerate(m) if k != r])
            for r in range(n)
        ]
        assert len(set(minors)) == 1


@pytest.mark.parametrize("top, dtype", [(322, np.int64), (323, object), (1 << 16, object)])
def test_root_minors_run_in_int64_only_below_its_bound(monkeypatch, top, dtype):
    # On 4 x 4 stacks, 2 (4 max|L|)^6 < 2^63 holds up to max|L| = 322: there
    # the eliminations run in int64, one past it in Python ints, and on both
    # sides every root's minors equal cofactor expansions.  At 2^16 the last
    # step's products of 2 x 2 minors are near 2^67, past int64.
    import flowfactory.spanning as spanning

    seen, honest = [], spanning.det_stack
    monkeypatch.setattr(spanning, "det_stack", lambda stack: seen.append(stack.dtype) or honest(stack))
    rng = random.Random(top)
    stack = [[[rng.choice([-top, top, rng.randrange(-top, top + 1)]) for _ in range(4)] for _ in range(4)]
             for _ in range(30)]
    minors = root_minors(np.array(stack, dtype=object), np.arange(4))
    assert seen == [dtype] and all(type(v) is int for v in minors.ravel())
    assert minors.tolist() == [[det_cofactor([row[:r] + row[r + 1:] for k, row in enumerate(m) if k != r])
                                for m in stack] for r in range(4)]


def _laplacian_by_arcs(P, f, kept, turned):
    """flip_laplacians of one vertex built one arc at a time: a k x k list of ints."""
    at = {v: i for i, v in enumerate(P.graph.incident_nodes)}
    L = [[0] * len(at) for _ in at]
    for i, (u, v) in enumerate(P.edges):
        tail, head, w = (v, u, turned[i]) if f[i] else (u, v, kept[i])
        L[at[tail]][at[tail]] += w
        L[at[tail]][at[head]] -= w
    return L


def _assert_flip_laplacians_match_a_per_arc_build(P, seed):
    # Random weights past int64, on the whole vertex stack and on stacks of one.
    rng = random.Random(seed)
    kept, turned = ([rng.randrange(1 << 70) for _ in P.edges] for _ in range(2))
    vertices = enumerate_vertices(P)
    expected = [_laplacian_by_arcs(P, f, kept, turned) for f in vertices]
    assert flip_laplacians(P, vertices, kept, turned).tolist() == expected
    for f, L in zip(vertices, expected):
        assert flip_laplacians(P, [f], kept, turned).tolist() == [L]


@settings(max_examples=60, deadline=None)
@given(interior_instances(), st.integers(0, 1 << 16))
def test_flip_laplacians_match_a_per_arc_build(case, seed):
    _assert_flip_laplacians_match_a_per_arc_build(case[0], seed)


def test_flip_laplacians_match_a_per_arc_build_on_the_triangle():
    # In the triangle every node is the tail of two arcs at the zero flow,
    # and an edge turned against its kept reversal puts two arcs on one
    # off-diagonal cell: cells that take several arcs at once.  Built in the
    # body, so a fault in building it fails this test, not the collection.
    _assert_flip_laplacians_match_a_per_arc_build(triangle(), 0)


def test_flip_laplacians_sum_the_arcs_that_share_a_cell():
    # Triangle, edge (1, 2) turned and (2, 1) kept: both are arcs 2 -> 1, and
    # node 2 is also the tail of the kept arc 2 -> 3.
    P = triangle()
    idx = P.graph.edge_index
    f = tuple(int(e == (1, 2)) for e in P.edges)
    kept, turned = [10 ** i for i in range(6)], [7 * 10 ** i for i in range(6)]
    (L,) = flip_laplacians(P, [f], kept, turned)
    assert L[1, 0] == -(turned[idx[(1, 2)]] + kept[idx[(2, 1)]])
    assert L[1, 1] == turned[idx[(1, 2)]] + kept[idx[(2, 1)]] + kept[idx[(2, 3)]]
    assert L.tolist() == _laplacian_by_arcs(P, f, kept, turned)


def test_enumerate_directed_trees():
    G = Graph(2, ((1, 2), (2, 1)))
    assert enumerate_directed_trees(G) == ((0,), (1,))
    assert len(enumerate_directed_trees(square().graph)) == 32
    assert enumerate_directed_trees(Graph(4, ((1, 2), (3, 4)))) == ()
    assert directed_tree_count(square().graph) == 32
    assert directed_tree_count(triangle().graph) == 12


def test_is_arborescence():
    assert is_arborescence({(2, 1), (3, 1)}, 1)
    assert is_arborescence({(2, 1), (3, 2)}, 1)
    assert not is_arborescence({(1, 2), (3, 1)}, 1)
    assert not is_arborescence({(2, 1)}, 3)
    assert not is_arborescence({(2, 1), (3, 1), (3, 2)}, 1)


def test_sample_arborescence_unique():
    # The flip image is the single edge (2,1): one arborescence toward 1.
    P = FlowPolytope(Graph(2, ((2, 1),)), (0, 0))
    rng = random.Random(0)
    for _ in range(10):
        assert sample_flip_tree(P, (0,), 1, rng) == frozenset({0})


def test_sample_arborescence_no_solution():
    # The flip image is the path 1 -> 2 -> 3: nothing reaches node 1.
    P = FlowPolytope(Graph(3, ((1, 2), (2, 3))), (0, 0, 0))
    with pytest.raises(NoArborescence):
        sample_flip_tree(P, (0, 0), 1, random.Random(0))


def test_sample_arborescence_uniform_complete_3():
    # Under the empty flow the triangle's flip image is the complete digraph.
    P = triangle()
    rng = random.Random(1234)
    counts = {}
    n = 30000
    for _ in range(n):
        a = flip_tree(P.graph, (0,) * 6, tuple(sample_flip_tree(P, (0,) * 6, 1, rng)))
        counts[a] = counts.get(a, 0) + 1
    assert len(counts) == 3
    for c in counts.values():
        # binomial 4-sigma band around n/3
        assert abs(c - n / 3) < 4 * (n * (1 / 3) * (2 / 3)) ** 0.5


def test_sample_arborescence_multiplicity_weighting():
    # Under f the image edge (2,1) has two preimages, edge 0 = (1,2) reversed
    # and edge 1 = (2,1) kept, so it weighs twice in the arborescence law.
    P = FlowPolytope(Graph(3, ((1, 2), (2, 1), (3, 1), (2, 3), (3, 2))), (1, -1, 0))
    f = (1, 0, 0, 0, 0)
    assert is_vertex(P, f)
    assert qualifying_tree_count(P, f, 1) == 2 * 1 + 2 * 1 + 1 * 1  # {21,31},{21,32},{23,31}
    rng = random.Random(99)
    counts = {}
    n = 30000
    for _ in range(n):
        t = sample_flip_tree(P, f, 1, rng)
        counts[t] = counts.get(t, 0) + 1
    # Five qualifying trees, each equally likely.
    assert set(counts) == {frozenset(t) for t in ((0, 2), (1, 2), (0, 4), (1, 4), (3, 2))}
    for c in counts.values():
        assert abs(c - n / 5) < 4 * (n * (1 / 5) * (4 / 5)) ** 0.5
    arborescences = {}
    for t, c in counts.items():
        a = flip_tree(P.graph, f, tuple(t))
        arborescences[a] = arborescences.get(a, 0) + c
    exact = {
        frozenset({(2, 1), (3, 1)}): 2 / 5,
        frozenset({(2, 1), (3, 2)}): 2 / 5,
        frozenset({(2, 3), (3, 1)}): 1 / 5,
    }
    assert set(arborescences) == set(exact)
    for a, p in exact.items():
        assert abs(arborescences[a] - n * p) < 4 * (n * p * (1 - p)) ** 0.5


def test_flip_multigraph_multiplicities():
    # Node 1 takes one unit in, so f = (0, 1), the flow on edge 1 = (2,1), is
    # the one vertex.  Both edges map onto (1,2) under f: one kept, one
    # reversed, so node 1 has two exits toward root 2, edges 0 and 1, and
    # each is a tree.
    P = FlowPolytope(two_node().graph, (-1, 1))
    assert enumerate_vertices(P) == [(0, 1)]
    tables = ExitTables(P, 2)
    assert tables.bound == 2
    assert [tables.tree(0b10, u) for u in range(2)] == [[0], [1]]
    assert qualifying_tree_count(P, (0, 1), 2) == 2
    assert qualifying_tree_count(P, (0, 1), 1) == 0


def test_qualifying_tree_count_triangle():
    P = triangle()
    # every vertex has 3 qualifying trees at root 1 except the two
    # 3-cycles, which have 4
    assert qualifying_tree_count(P, (0,) * 6, 1) == 3
    c3 = tuple(1 if e in {(1, 2), (2, 3), (3, 1)} else 0 for e in P.edges)
    assert qualifying_tree_count(P, c3, 1) == 4
    with pytest.raises(InvalidInstance):
        qualifying_tree_count(P, c3, 4)


def test_sample_flip_tree_two_node():
    P = two_node()
    rng = random.Random(5)
    for _ in range(5):
        assert sample_flip_tree(P, (0, 0), 1, rng) == frozenset({P.graph.edge_index[(2, 1)]})
        assert sample_flip_tree(P, (1, 1), 1, rng) == frozenset({P.graph.edge_index[(1, 2)]})


def test_sample_flip_tree_rejects_a_non_vertex_before_any_draw():
    # circ3's 0/1 vectors that are no vertex: some trees still flip to an
    # arborescence under them, and their exit counts need not be B's factors.
    P = build_circulation_polytope(3)
    rng = random.Random(0)
    state = rng.getstate()
    bad = [f for f in itertools.product((0, 1), repeat=6) if not is_vertex(P, f)]
    assert len(bad) == 54 and any(qualifying_tree_count(P, f, 1) for f in bad)
    for f in bad:
        with pytest.raises(InvalidInstance, match=rf"^{re.escape(str(f))} is no vertex of the polytope$"):
            sample_flip_tree(P, f, 1, rng)
    assert rng.getstate() == state


def test_sample_flip_tree_always_qualifies():
    P = square()
    f = square_cycle_flow(P)
    rng = random.Random(17)
    for _ in range(200):
        t = sample_flip_tree(P, f, 1, rng)
        assert is_arborescence(flip_tree(P.graph, f, tuple(t)), 1)


@pytest.mark.parametrize("bad, match", [
    ((0, 1, 0, 1, 1), "expected 6 edge bits, got 5"),
    ((0, 1, 0, 1, 1, 1, 0), "expected 6 edge bits, got 7"),
    ((2,) * 6, "vertex coordinates must be 0 or 1"),
    ((0, 1, 0, 1, 1, -1), "vertex coordinates must be 0 or 1"),
])
def test_flip_tree_count_and_draw_reject_an_f_that_is_no_edge_bit_vector(bad, match):
    # circ3's (0,1,0,1,1,1) is a vertex; each bad f is it cut, padded or off {0,1}.
    P = build_circulation_polytope(3)
    assert is_vertex(P, (0, 1, 0, 1, 1, 1))
    with pytest.raises(InvalidInstance, match=rf"^{re.escape(match)}$"):
        qualifying_tree_count(P, bad, 1)
    with pytest.raises(InvalidInstance, match=rf"^{re.escape(match)}$"):
        sample_flip_tree(P, bad, 1, random.Random(0))
