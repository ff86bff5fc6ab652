"""Shared small instances, and the environment of child interpreters, used across the test modules."""

import os
import random
from fractions import Fraction

from hypothesis import strategies as st

from flowfactory import (
    FlowPolytope,
    Graph,
    build_circulation_polytope,
    random_interior_point,
)

THIRD = Fraction(1, 3)
HALF = Fraction(1, 2)
WORD = (1 << 64) - 1  # every bit of a raw 64-bit word


def subprocess_env():
    """os.environ with this checkout's src first on PYTHONPATH, for a fresh interpreter."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def coins_to_dict(biases) -> dict:
    """The coin file holding each edge's bias as a fraction in lowest terms."""
    return {"coins": [{"edge": i, "num": b.numerator, "den": b.denominator} for i, b in enumerate(biases)]}


def two_node():
    return build_circulation_polytope(2)


def triangle():
    return build_circulation_polytope(3)


def circ5m():
    """Circulation on K5 without the pair {1,2}: 18 edges, |T| = 1200."""
    edges = tuple((u, v) for u in range(1, 6) for v in range(1, 6) if u != v and {u, v} != {1, 2})
    return FlowPolytope(Graph(5, edges), (0,) * 5)


def square():
    # Undirected 4-cycle 1-2-4-3-1, both directions of every side.
    edges = []
    for u, v in [(1, 2), (2, 4), (4, 3), (3, 1)]:
        edges.append((u, v))
        edges.append((v, u))
    return FlowPolytope(Graph(4, tuple(edges)), (0, 0, 0, 0))


def square_cycle_flow(P=None):
    """The directed cycle 3->1->2->4->3 as a vertex of the square polytope."""
    P = P or square()
    f = [0] * 8
    for e in [(3, 1), (1, 2), (2, 4), (4, 3)]:
        f[P.graph.edge_index[e]] = 1
    return tuple(f)


def six_node_exchange():
    """Six-node circulation instance with a pentagon-plus-chords shape.

    Carries one directed tree T and one extra edge eta=(1,6) arranged so the
    exchange vector between the two tree roots is forced to use both signs.
    """
    edges = ((1, 3), (3, 2), (4, 3), (5, 4), (4, 6), (1, 6), (2, 4), (6, 1))
    P = FlowPolytope(Graph(6, edges), (0,) * 6)
    tree = tuple(P.graph.edge_index[e] for e in [(1, 3), (3, 2), (4, 3), (5, 4), (4, 6)])
    eta = P.graph.edge_index[(1, 6)]
    return P, tree, eta


def diamond_dag():
    return FlowPolytope(Graph(4, ((1, 2), (1, 3), (2, 4), (3, 4))), (1, 0, 0, -1))


def crossed_diamond():
    """The diamond 1->{2,3}->4 with both arcs between 2 and 3: unit demands,
    a directed cycle 2->3->2, and an interior point of its polytope."""
    edges = ((1, 2), (1, 3), (2, 3), (3, 2), (2, 4), (3, 4))
    quarter = Fraction(1, 4)
    return FlowPolytope(Graph(4, edges), (1, 0, 0, -1)), (HALF, HALF, quarter, quarter, HALF, HALF)


def dag6():
    """Six-node DAG whose interior point below mixes four distinct paths."""
    edges = ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6), (5, 6))
    return FlowPolytope(Graph(6, edges), (1, 0, 0, 0, 0, -1))


def dag6_point(P=None):
    """Average of four 1->6 paths; every edge used, all coords in (0,1)."""
    P = P or dag6()
    paths = [
        [(1, 2), (2, 4), (4, 6)],
        [(1, 3), (3, 5), (5, 6)],
        [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)],
        [(1, 3), (3, 4), (4, 6)],
    ]
    point = [Fraction(0)] * len(P.edges)
    for path in paths:
        for e in path:
            point[P.graph.edge_index[e]] += Fraction(1, 4)
    return tuple(point)


def no_vertex():
    """Every demand in its node's range, and no vertex: node 1 must use 1->2
    and node 4 must use 3->4, so node 3 sends out more than it takes in."""
    return FlowPolytope(Graph(4, ((1, 2), (2, 1), (3, 2), (3, 4), (4, 3))), (1, 0, 0, -1))


def disconnected_pair():
    """Two vertex-disjoint 2-cycles; undirected support is disconnected."""
    edges = ((1, 2), (2, 1), (3, 4), (4, 3))
    return FlowPolytope(Graph(4, edges), (0, 0, 0, 0))


@st.composite
def demands_in_range(draw, G):
    """Demands on G's nodes that sum to zero, each in its node's range
    [-indeg(v), outdeg(v)]: drawn node by node, then moved toward one end of
    their ranges, node by node, until they sum to zero.  The ranges sum to
    [-|E|, |E|], so that always ends; many such demands have no vertex."""
    lo = [-sum(head == v for _, head in G.edges) for v in range(1, G.n + 1)]
    hi = [sum(tail == v for tail, _ in G.edges) for v in range(1, G.n + 1)]
    demands = [draw(st.integers(a, b)) for a, b in zip(lo, hi)]
    excess = sum(demands)
    for v in range(G.n):
        shift = min(excess, demands[v] - lo[v]) if excess > 0 else max(excess, demands[v] - hi[v])
        demands[v] -= shift
        excess -= shift
    return tuple(demands)


@st.composite
def interior_instances(draw):
    """A digraph on 2-5 nodes and at most 9 edges, connected on the 2 or more
    nodes its edges touch (the others isolated, so the touched labels need
    not be contiguous), whose demands are those of a random 0/1 flow f on
    it, and a random interior point.

    An interior point exists iff every edge takes both values at some
    vertex, that is iff every arc of f's flip image lies on a directed
    cycle; with the graph connected, iff the image is strongly connected.
    So a closed walk through the touched nodes (a random order of them with
    some inserted again) is drawn first, and after the edges among them and
    f are drawn each step a -> b of the walk is put into the image where it
    is missing: as a new idle edge (a, b), else as a new edge (b, a)
    carrying flow, else, with both edges there and the image holding b -> a
    through both, by idling (a, b).  No step takes away an arc that another
    needs, so no draw is rejected.
    """
    n = draw(st.integers(2, 5))
    nodes = draw(st.lists(st.integers(1, n), unique=True, min_size=2))
    walk = list(nodes)
    for v in draw(st.lists(st.sampled_from(nodes), max_size=len(nodes) - 1)):
        walk.insert(draw(st.integers(0, len(walk))), v)
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=9 - len(walk)))
    flow = dict(zip(edges, draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))))
    for a, b in zip(walk, walk[1:] + walk[:1]):
        if a == b or flow.get((a, b)) is False or flow.get((b, a)) is True:
            continue
        if (a, b) not in flow:
            flow[a, b] = False
        elif (b, a) not in flow:
            flow[b, a] = True
        else:
            flow[a, b] = False
    demands = [0] * n
    for (u, v), on in flow.items():
        demands[u - 1] += on
        demands[v - 1] -= on
    P = FlowPolytope(Graph(n, tuple(flow)), tuple(demands))
    return P, random_interior_point(P, random.Random(draw(st.integers(0, 1 << 16))))
