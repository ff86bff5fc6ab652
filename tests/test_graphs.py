import hashlib
import re
import tracemalloc
from fractions import Fraction
from itertools import chain, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowfactory import (
    BoundaryCoin,
    FlowPolytope,
    Graph,
    InvalidInstance,
    NotInPolytope,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    enumerate_vertices,
    flip_edge,
    flip_tree,
    is_vertex,
    undirected_connected,
)
from flowfactory.errors import TooLargeForOracle
from flowfactory.graphs import _net_flow, require_interior_point
from flowfactory.oracle import _over_common_denominator
from flowfactory.spanning import flip_laplacians

from instances import THIRD, demands_in_range, disconnected_pair, square, square_cycle_flow, triangle, two_node


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(InvalidInstance):
        Graph(2, ((1, 1),))
    with pytest.raises(InvalidInstance):
        Graph(2, ((1, 2), (1, 2)))
    with pytest.raises(InvalidInstance):
        Graph(2, ((1, 3),))


def test_demands_must_balance():
    with pytest.raises(InvalidInstance):
        FlowPolytope(Graph(2, ((1, 2),)), (1, 0))


@pytest.mark.parametrize("n, edges, demands, message", [
    (3, ((1, 2), (2, 1)), (1, 0, -1), "demand -1 of node 3 lies outside its range [0, 0]"),
    (5, ((1, 2), (2, 1), (2, 3), (3, 2), (1, 3), (3, 1)), (0, 0, 0, 1, -1),
     "demand 1 of node 4 lies outside its range [0, 0]"),
    (2, ((1, 2), (2, 1)), (2, -2), "demand 2 of node 1 lies outside its range [-1, 1]"),
    (3, ((1, 2), (1, 3), (2, 3)), (1, -2, 1), "demand -2 of node 2 lies outside its range [-1, 1]"),
    (2, ((1, 2), (2, 1)), (1 << 70, -(1 << 70)), f"demand {1 << 70} of node 1 lies outside its range [-1, 1]"),
], ids=["edgeless-node", "two-edgeless-nodes-balancing", "above-out-degree", "below-minus-in-degree",
        "past-any-machine-int"])
def test_demands_outside_a_nodes_degree_range_are_rejected(n, edges, demands, message):
    # A 0/1 flow sends node v between -indeg(v) and outdeg(v) units, so no
    # polytope is built that would have no vertex for that reason alone;
    # the error names the first such node and its range.
    with pytest.raises(InvalidInstance, match=rf"^{re.escape(message)}$"):
        FlowPolytope(Graph(n, edges), demands)


def test_circulation_constructor():
    P = build_circulation_polytope(2)
    assert P.edges == ((1, 2), (2, 1))
    assert P.demands == (0, 0)
    assert len(build_circulation_polytope(3).edges) == 6
    with pytest.raises(InvalidInstance):
        build_circulation_polytope(1)


def test_matching_constructor():
    P = build_matching_polytope(1)
    assert P.edges == ((1, 2),)
    assert P.demands == (1, -1)
    assert enumerate_vertices(P) == [(1,)]
    P2 = build_matching_polytope(2)
    assert len(P2.edges) == 4
    assert P2.demands == (1, 1, -1, -1)
    with pytest.raises(InvalidInstance):
        build_matching_polytope(0)


def test_kflow_constructor():
    P = build_kflow_polytope(2, 1)
    assert P.edges == ((1, 2),)
    assert P.demands == (1, -1)
    P2 = build_kflow_polytope(4, 2)
    assert len(P2.edges) == 6
    assert P2.demands == (2, 0, 0, -2)
    with pytest.raises(InvalidInstance):
        build_kflow_polytope(4, 0)


def test_is_vertex_triangle():
    P = triangle()
    assert is_vertex(P, (0,) * 6)
    only_12 = tuple(1 if e == (1, 2) else 0 for e in P.edges)
    assert not is_vertex(P, only_12)
    cycle = tuple(1 if e in {(1, 2), (2, 3), (3, 1)} else 0 for e in P.edges)
    assert is_vertex(P, cycle)
    with pytest.raises(InvalidInstance):
        is_vertex(P, (0,) * 5)
    with pytest.raises(InvalidInstance):
        is_vertex(P, (2,) + (0,) * 5)


def test_validate_point():
    P = two_node()
    require_interior_point(P, (THIRD, THIRD))
    with pytest.raises(NotInPolytope):
        require_interior_point(P, (THIRD, Fraction(1, 2)))
    with pytest.raises(BoundaryCoin):
        require_interior_point(P, (Fraction(1), THIRD))
    with pytest.raises(InvalidInstance):
        require_interior_point(P, (Fraction(3, 2), THIRD))


def test_flip_edge_and_tree():
    P = triangle()
    f0 = (0,) * 6
    for i in range(6):
        assert flip_edge(P.graph, f0, i) == P.edges[i]
    f1 = tuple(1 if e == (1, 2) else 0 for e in P.edges)
    i12 = P.graph.edge_index[(1, 2)]
    assert flip_edge(P.graph, f1, i12) == (2, 1)
    # all-zero flow leaves any tree unchanged
    tree = (P.graph.edge_index[(2, 1)], P.graph.edge_index[(3, 1)])
    assert flip_tree(P.graph, f0, tree) == frozenset({(2, 1), (3, 1)})


def test_flip_square_cycle_case():
    # reversing exactly the cycle edges of the square flow turns the
    # mixed-orientation tree into an arborescence at node 1
    P = square()
    f = square_cycle_flow(P)
    idx = P.graph.edge_index
    tree = (idx[(3, 4)], idx[(2, 1)], idx[(2, 4)])
    assert flip_tree(P.graph, f, tree) == frozenset({(3, 4), (2, 1), (4, 2)})


def m_map_laplacian(P, f, x):
    """M_f(x)'s out-Laplacian, weights x and 1 - x over x's common
    denominator, and a reader of its arc weights: (u, v) -> -L[u, v] over it."""
    num, den = _over_common_denominator(tuple(x))
    (L,) = flip_laplacians(P, [f], num, [den - n for n in num])
    at = {v: i for i, v in enumerate(P.graph.incident_nodes)}
    return L, lambda u, v: Fraction(-L[at[u], at[v]], den)


def test_m_map_zero_flow_is_identity():
    P = triangle()
    x = (THIRD,) * 6
    L, value = m_map_laplacian(P, (0,) * 6, x)
    for i, e in enumerate(P.edges):
        assert value(*e) == x[i]
    assert not L.sum(axis=0).any()


def test_m_map_two_node_all_ones():
    P = two_node()
    _, value = m_map_laplacian(P, (1, 1), (THIRD, THIRD))
    assert value(1, 2) == Fraction(2, 3)
    assert value(2, 1) == Fraction(2, 3)


def test_m_map_balanced_on_random_instances():
    import random

    rng = random.Random(4821)
    from flowfactory import random_interior_point

    for P in [two_node(), triangle(), square(), build_matching_polytope(2)]:
        verts = enumerate_vertices(P)
        for _ in range(5):
            f = verts[rng.randrange(len(verts))]
            x = random_interior_point(P, rng)
            assert not m_map_laplacian(P, f, x)[0].sum(axis=0).any()


def test_connectivity():
    assert undirected_connected(triangle().graph)
    assert not undirected_connected(disconnected_pair().graph)
    assert undirected_connected(square().graph)


def test_enumerate_vertices_counts():
    assert enumerate_vertices(two_node()) == [(0, 0), (1, 1)]
    assert len(enumerate_vertices(triangle())) == 10
    assert len(enumerate_vertices(build_matching_polytope(3))) == 6
    for f in enumerate_vertices(triangle()):
        assert is_vertex(triangle(), f)


def test_enumerate_vertices_matches_brute_force():
    import itertools

    P = triangle()
    brute = [
        bits
        for bits in itertools.product((0, 1), repeat=6)
        if is_vertex(P, bits)
    ]
    assert enumerate_vertices(P) == brute


@st.composite
def small_polytopes(draw):
    """Digraphs of at most 10 edges, often with edgeless nodes, under demands
    in their nodes' ranges summing to 0, with no vertex or with some: each as
    its (node count, edges, demands), for the test body to build, so that a
    fault in building a polytope fails the test rather than its collection."""
    n = draw(st.integers(1, 6))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True, max_size=10)) if pairs else ())
    return n, edges, draw(demands_in_range(Graph(n, edges)))


@settings(max_examples=150, deadline=None)
@given(small_polytopes())
@example((4, ((1, 2), (2, 1), (3, 2), (3, 4), (4, 3)), (1, 0, 0, -1)))  # in range, no vertex
def test_enumerate_vertices_matches_brute_force_random(spec):
    n, edges, demands = spec
    P = FlowPolytope(Graph(n, edges), demands)
    brute = [bits for bits in product((0, 1), repeat=len(P.edges)) if is_vertex(P, bits)]
    assert enumerate_vertices(P) == brute


@settings(max_examples=100, deadline=None)
@given(small_polytopes())
@example((5, ((3, 1), (1, 3), (4, 1)), (0,) * 5))  # nodes 2 and 5 touch no edge
def test_edge_ends_and_node_bits_match_each_edge(spec):
    n, edges, demands = spec
    G = FlowPolytope(Graph(n, edges), demands).graph
    nodes = G.incident_nodes
    assert G.ends.shape == (2, len(G.edges)) and not G.ends.flags.writeable
    assert [(nodes[u], nodes[v]) for u, v in G.ends.T.tolist()] == list(G.edges)
    assert G.node_bits == tuple((sum(1 << i for i, (u, _) in enumerate(G.edges) if u == v),
                                 sum(1 << i for i, (_, w) in enumerate(G.edges) if w == v))
                                for v in nodes)


def _circ6_without_three_pairs():
    """K6's circulation without the pairs {1,2}, {3,4} and {5,6}: 24 edges, the cap."""
    edges = tuple((u, v) for u in range(1, 7) for v in range(1, 7)
                  if u != v and {u, v} not in ({1, 2}, {3, 4}, {5, 6}))
    return FlowPolytope(Graph(6, edges), (0,) * 6)


@pytest.mark.parametrize("make, count, digest", [
    (lambda: build_circulation_polytope(5), 7736,
     "791479da6e8ed0a985dfb7888b8b8af4d88a7acf0cff42440212a949fd2ce9d7"),
    (_circ6_without_three_pairs, 37446,
     "a5ff3ab69581b55d49aa1435f9819489d7436f00456bb7b3bc9a4d70501fc6e9"),
], ids=["circ5", "circ6_minus_3_pairs"])
def test_enumerate_vertices_golden(make, count, digest):
    # Every vertex's bits, vertex after vertex, in order: far past the sizes
    # the brute-force checks reach.
    vertices = enumerate_vertices(make())
    assert len(vertices) == count
    assert hashlib.sha256(bytes(chain.from_iterable(vertices))).hexdigest() == digest


def test_enumerate_vertices_is_lean_on_nodes_no_edge_touches():
    # circ4's edges among 100,000 nodes: the nodes without an edge must cost
    # next to nothing, not a column each in every partial assignment.
    circ4 = build_circulation_polytope(4)
    P = FlowPolytope(Graph(100_000, circ4.edges), (0,) * 100_000)
    tracemalloc.start()
    try:
        vertices = enumerate_vertices(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vertices == enumerate_vertices(circ4)
    assert peak < 8_000_000


def test_enumeration_cap():
    P = build_circulation_polytope(6)  # 30 edges
    with pytest.raises(TooLargeForOracle):
        enumerate_vertices(P)


def test_kflow_vertices_decompose_into_paths():
    P = build_kflow_polytope(4, 2)
    for f in enumerate_vertices(P):
        # strip two edge-disjoint 1->4 paths greedily; both must exist
        edges = {P.edges[i] for i in range(6) if f[i]}
        for _ in range(2):
            v, path = 1, []
            while v != 4:
                nxt = next(e for e in sorted(edges) if e[0] == v)
                path.append(nxt)
                v = nxt[1]
            edges -= set(path)
        assert not edges


def test_vertex_differences_are_balanced():
    P = triangle()
    verts = enumerate_vertices(P)
    for a in verts:
        for b in verts:
            diff = [ai - bi for ai, bi in zip(a, b)]
            assert not any(_net_flow(P, diff).values())
