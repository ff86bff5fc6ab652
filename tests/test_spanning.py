import random
from fractions import Fraction

import pytest

from flowfactory import (
    CirculationVector,
    FlowPolytope,
    Graph,
    InvalidInstance,
    NoArborescence,
    NotCirculation,
    WeightedDigraph,
    build_laplacian,
    count_arborescences,
    enumerate_directed_trees,
    sample_flip_tree,
    zls_cofactor_check,
)
from flowfactory.errors import NotZLS
from flowfactory.graphs import flip_tree, is_vertex, m_map
from flowfactory.spanning import (
    ExitTables,
    det_bareiss,
    det_exact,
    directed_tree_count,
    is_arborescence,
    qualifying_tree_count,
)

from instances import THIRD, square, square_cycle_flow, triangle, two_node


def test_det_bareiss_small():
    assert det_bareiss([]) == 1
    assert det_bareiss([[5]]) == 5
    assert det_bareiss([[1, 2], [3, 4]]) == -2
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


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
        m = [
            [Fraction(rng.randrange(-9, 10), rng.randrange(1, 7)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_exact(m) == det_cofactor(m)


def test_build_laplacian():
    W = WeightedDigraph((1, 2), {(1, 2): 3, (2, 1): 5})
    assert build_laplacian(W) == [[3, -3], [-5, 5]]
    assert build_laplacian(WeightedDigraph((1, 2, 3), {})) == [
        [0, 0, 0],
        [0, 0, 0],
        [0, 0, 0],
    ]


def test_laplacian_of_circulation_is_zls():
    x = CirculationVector(3, {e: Fraction(1) for e in [(1, 2), (2, 3), (3, 1)]})
    W = WeightedDigraph((1, 2, 3), dict(x.values))
    L = build_laplacian(W)
    for i in range(3):
        assert sum(L[i]) == 0
        assert sum(row[i] for row in L) == 0


def test_count_arborescences_two_node():
    W = WeightedDigraph((1, 2), {(1, 2): 7, (2, 1): 4})
    assert count_arborescences(W, 1) == 4
    assert count_arborescences(W, 2) == 7


def test_count_arborescences_complete_3():
    W = WeightedDigraph((1, 2, 3), {(u, v): 1 for u in (1, 2, 3) for v in (1, 2, 3) if u != v})
    for r in (1, 2, 3):
        assert count_arborescences(W, r) == 3


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


def sarb(x: CirculationVector, root: int, nodes: tuple[int, ...] | None = None) -> Fraction:
    """Sum over arborescences toward `root` of the product of x's edge values.

    Root-independent for balanced vectors (ZLS Laplacian); raises
    NotCirculation otherwise.
    """
    if not x.is_balanced():
        raise NotCirculation("vector violates the balance equations")
    if nodes is None:
        nodes = tuple(range(1, x.n + 1))
    weights = {e: Fraction(w) for e, w in x.values.items() if w != 0}
    return Fraction(count_arborescences(WeightedDigraph(nodes, weights), root))


def test_sarb_examples():
    ones = CirculationVector(3, {(u, v): Fraction(1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v})
    for r in (1, 2, 3):
        assert sarb(ones, r) == 3
    two_cycle = CirculationVector(3, {(1, 2): Fraction(1), (2, 1): Fraction(1)})
    for r in (1, 2, 3):
        assert sarb(two_cycle, r) == 0
    vec = m_map(two_node(), (1, 1), (THIRD, THIRD))
    assert sarb(vec, 1, nodes=(1, 2)) == Fraction(2, 3)
    assert sarb(vec, 2, nodes=(1, 2)) == Fraction(2, 3)


def test_sarb_rejects_unbalanced():
    bad = CirculationVector(3, {(1, 2): Fraction(1)})
    with pytest.raises(NotCirculation):
        sarb(bad, 1)


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
    return CirculationVector(n, {e: v for e, v in values.items() if v})


def test_sarb_root_independence_random():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(3, 6)
        x = _random_circulation(rng, n)
        assert x.is_balanced()
        vals = {sarb(x, r, nodes=tuple(range(1, n + 1))) for r in range(1, n + 1)}
        assert len(vals) == 1


def test_zls_cofactor_check():
    assert zls_cofactor_check([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    ones = CirculationVector(3, {(u, v): Fraction(1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v})
    L = build_laplacian(WeightedDigraph((1, 2, 3), dict(ones.values)))
    assert zls_cofactor_check(L)
    with pytest.raises(NotZLS):
        zls_cofactor_check([[1, 0], [0, 1]])


def test_zls_cofactor_random():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randrange(2, 7)
        m = [[Fraction(rng.randrange(-5, 6)) for _ in range(n)] for _ in range(n)]
        # correct last column then last row so all lines sum to zero
        for i in range(n):
            m[i][n - 1] = -sum(m[i][:-1])
        for j in range(n):
            m[n - 1][j] = -sum(m[i][j] for i in range(n - 1))
        assert zls_cofactor_check(m)


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
    P = two_node()
    # both edges map onto (1,2) under f = (0, 1): one kept, one reversed
    # so node 1 has two exits toward root 2, edges 0 and 1, and each is a tree
    tables = ExitTables(P, 2)
    assert tables.maps(0b10) == 2
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


def test_sample_flip_tree_always_qualifies():
    P = square()
    f = square_cycle_flow(P)
    rng = random.Random(17)
    for _ in range(200):
        t = sample_flip_tree(P, f, 1, rng)
        assert is_arborescence(flip_tree(P.graph, f, tuple(t)), 1)
