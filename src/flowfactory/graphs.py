"""Directed graphs, flow polytopes, and the flip map the samplers are built on.

Nodes are labelled 1..n.  Edges are ordered pairs of distinct nodes and carry a
stable integer id equal to their position in the edge sequence.  A Graph
builds, once, the two edge facts that every layer reads: `ends`, each edge's
tail and head as positions in `incident_nodes`, and `node_bits`, each
incident node's out- and in-edges as edge-bit ints.  A *flow polytope* is
the set of points in [0,1]^E whose net outflow at every node equals that
node's integer demand; its vertices are 0/1 flows.  The flip of
a 0/1 flow f keeps the edges where f is 0 and reverses those where it is 1.
M_f(x), the flip-affine image of a point x, weighs the flip image's arcs by
x and 1 - x; it is built only as a Laplacian, by `spanning.flip_laplacians`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryCoin,
    InvalidInstance,
    NotInPolytope,
    TooLargeForOracle,
)

Edge = tuple[int, int]
FlowVertex = tuple[int, ...]

#: Default limit on |E| for operations that enumerate 0/1 vectors or trees.
ENUMERATION_CAP = 24


def reverse_edge(e: Edge) -> Edge:
    return (e[1], e[0])


@dataclass(frozen=True)
class Graph:
    """Simple directed graph: no self-loops, no duplicate directed edges."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise InvalidInstance(f"node count must be positive, got {self.n}")
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise InvalidInstance(f"self-loop ({u},{v}) not allowed")
            if not (1 <= u <= self.n and 1 <= v <= self.n):
                raise InvalidInstance(f"edge ({u},{v}) outside node range 1..{self.n}")
            if (u, v) in seen:
                raise InvalidInstance(f"duplicate directed edge ({u},{v})")
            seen.add((u, v))

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def incident_nodes(self) -> tuple[int, ...]:
        nodes = set()
        for u, v in self.edges:
            nodes.add(u)
            nodes.add(v)
        return tuple(sorted(nodes))

    @cached_property
    def ends(self) -> np.ndarray:
        """The read-only (2, m) array of every edge's tail and head, as positions in incident_nodes."""
        ends = np.searchsorted(self.incident_nodes,
                               np.array(self.edges, dtype=np.intp).reshape(len(self.edges), 2).T)
        ends.flags.writeable = False
        return ends

    @cached_property
    def node_bits(self) -> tuple[tuple[int, int], ...]:
        """Per incident node, the edge-bit ints (bit i for edge i) of its out-edges and of its in-edges."""
        bits = [[0, 0] for _ in self.incident_nodes]
        for i, (u, v) in enumerate(self.ends.T.tolist()):
            bits[u][0] |= 1 << i
            bits[v][1] |= 1 << i
        return tuple(map(tuple, bits))

    @cached_property
    def out_edges(self) -> dict[int, tuple[int, ...]]:
        """Node -> ascending ids of edges leaving it, read from node_bits; () where no edge touches it."""
        out = dict.fromkeys(range(1, self.n + 1), ())
        for v, (bits, _) in zip(self.incident_nodes, self.node_bits):
            out[v] = tuple(i for i in range(bits.bit_length()) if bits >> i & 1)
        return out


@dataclass(frozen=True)
class FlowPolytope:
    """A graph together with an integer demand per node.

    The demands sum to zero, and each lies in [-indeg(v), outdeg(v)], the
    net outflows a 0/1 flow can give v (so is 0 where no edge touches v), as
    no vertex meets a demand outside it; InvalidInstance is raised otherwise.
    """

    graph: Graph
    demands: tuple[int, ...]

    def __post_init__(self):
        if len(self.demands) != self.graph.n:
            raise InvalidInstance(
                f"expected {self.graph.n} demands, got {len(self.demands)}"
            )
        if sum(self.demands) != 0:
            raise InvalidInstance("demands must sum to zero")
        bits = dict(zip(self.graph.incident_nodes, self.graph.node_bits))
        for v, d in enumerate(self.demands, 1):
            out, into = (b.bit_count() for b in bits.get(v, (0, 0)))
            if not -into <= d <= out:
                raise InvalidInstance(f"demand {d} of node {v} lies outside its range [{-into}, {out}]")

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @property
    def n(self) -> int:
        return self.graph.n

    def demand(self, v: int) -> int:
        return self.demands[v - 1]


# ---------------------------------------------------------------------------
# Named polytope constructors
# ---------------------------------------------------------------------------

def build_circulation_polytope(n: int) -> FlowPolytope:
    """All n(n-1) non-loop edges, zero demand everywhere."""
    if n < 2:
        raise InvalidInstance(f"circulation polytope needs n >= 2, got {n}")
    edges = tuple((u, v) for u in range(1, n + 1) for v in range(1, n + 1) if u != v)
    return FlowPolytope(Graph(n, edges), (0,) * n)


def build_matching_polytope(m: int) -> FlowPolytope:
    """Bipartite perfect matchings on m+m nodes (Birkhoff-von Neumann)."""
    if m < 1:
        raise InvalidInstance(f"matching polytope needs m >= 1, got {m}")
    edges = tuple((u, v + m) for u in range(1, m + 1) for v in range(1, m + 1))
    demands = (1,) * m + (-1,) * m
    return FlowPolytope(Graph(2 * m, edges), demands)


def build_kflow_polytope(n: int, k: int) -> FlowPolytope:
    """Unions of k edge-disjoint paths from node 1 to node n in the full DAG."""
    if n < 2:
        raise InvalidInstance(f"k-flow polytope needs n >= 2, got {n}")
    if not 1 <= k <= n - 1:
        # Node 1 has n - 1 out-edges, so no 0/1 flow sends it more than n - 1 units.
        raise InvalidInstance(f"k-flow polytope on {n} nodes needs 1 <= k <= {n - 1}, got {k}")
    edges = tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))
    demands = (k,) + (0,) * (n - 2) + (-k,)
    return FlowPolytope(Graph(n, edges), demands)


# ---------------------------------------------------------------------------
# Membership predicates
# ---------------------------------------------------------------------------

def _net_flow(P: FlowPolytope, coords: Sequence) -> dict[int, object]:
    net = {v: 0 for v in range(1, P.n + 1)}
    for i, (u, v) in enumerate(P.edges):
        net[u] += coords[i]
        net[v] -= coords[i]
    return net


def _require_bits(P: FlowPolytope, bits: Sequence[int]) -> None:
    """Raise InvalidInstance unless `bits` holds one 0 or 1 per edge of P."""
    if len(bits) != len(P.edges):
        raise InvalidInstance(
            f"expected {len(P.edges)} edge bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise InvalidInstance("vertex coordinates must be 0 or 1")


def _require_root(P: FlowPolytope, root: int) -> None:
    """Raise InvalidInstance unless root is an endpoint of some edge of P."""
    if root not in P.graph.incident_nodes:
        raise InvalidInstance(f"root {root} touches no variable edge")


def is_vertex(P: FlowPolytope, bits: Sequence[int]) -> bool:
    """True iff `bits` is a 0/1 assignment meeting every demand constraint."""
    _require_bits(P, bits)
    net = _net_flow(P, bits)
    return all(net[v] == P.demand(v) for v in net)


def _require_vertex(P: FlowPolytope, f: FlowVertex) -> None:
    """Raise InvalidInstance unless f is a 0/1 vector and a vertex of P."""
    if not is_vertex(P, f):
        raise InvalidInstance(f"{tuple(f)} is no vertex of the polytope")


def require_interior_point(P: FlowPolytope, x: Sequence[Fraction]) -> None:
    """Raise unless x is strictly inside (0,1)^E and exactly balanced.

    Raises InvalidInstance for a length mismatch or coordinates outside
    [0,1], BoundaryCoin for coordinates equal to 0 or 1, and NotInPolytope
    when a node's net flow differs from its demand.
    """
    if len(x) != len(P.edges):
        raise InvalidInstance(f"expected {len(P.edges)} coordinates, got {len(x)}")
    for i, c in enumerate(x):
        if c == 0 or c == 1:
            raise BoundaryCoin(f"coordinate of edge {i} is {c}")
        if c < 0 or c > 1:
            raise InvalidInstance(f"coordinate of edge {i} is outside [0,1]")
    net = _net_flow(P, x)
    if any(net[v] != P.demand(v) for v in net):
        raise NotInPolytope("point violates the flow balance constraints")


# ---------------------------------------------------------------------------
# The flip map
# ---------------------------------------------------------------------------

def flip_edge(G: Graph, f: FlowVertex, eid: int) -> Edge:
    """The edge itself when f is 0 on it, its reversal when f is 1."""
    e = G.edges[eid]
    return reverse_edge(e) if f[eid] else e


def flip_tree(G: Graph, f: FlowVertex, tree: Sequence[int]) -> frozenset[Edge]:
    """Apply flip_edge to every edge id in `tree`; returns directed edges."""
    return frozenset(flip_edge(G, f, eid) for eid in tree)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def undirected_connected(G: Graph) -> bool:
    """True iff the undirected support of E connects all incident nodes."""
    return _connects(G.incident_nodes, G.edges)


def _connects(nodes: Sequence[int], edges: Sequence[Edge]) -> bool:
    """True iff `nodes` is not empty and the undirected support of `edges`, whose
    ends all lie in `nodes`, joins them into one component (union-find)."""
    parent = {v: v for v in nodes}
    parts = len(parent)

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            parts -= 1
    return parts == 1


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

def enumerate_vertices(P: FlowPolytope) -> list[FlowVertex]:
    """All 0/1 points of P in lexicographic (by edge id) order, enumerated once per polytope."""
    return list(_vertices(P))


@lru_cache(maxsize=256)
def _vertices(P: FlowPolytope) -> tuple[FlowVertex, ...]:
    """One frontier of partial assignments over edge ids, 0 before 1.

    A row is the bits of edges 0..i-1 and the demand still unmet at each
    incident node, which the undecided edges can meet iff it lies in
    [-in-edges left, out-edges left]; FlowPolytope keeps every demand in
    range for the first row.  Each edge splits every row into its 0 child
    and its 1 child, in that order, so the rows stay in lexicographic order,
    and a child is cut as soon as one of the edge's ends is out of range.
    """
    m = len(P.edges)
    if m > ENUMERATION_CAP:
        raise TooLargeForOracle(f"|E| = {m} exceeds enumeration cap {ENUMERATION_CAP}")
    nodes = P.graph.incident_nodes
    out_left, in_left = (np.bincount(end, minlength=len(nodes)) for end in P.graph.ends)
    need = np.array([[P.demand(v) for v in nodes]], dtype=np.int8)  # |unmet demand| <= degree <= m
    bits = np.zeros((1, m), dtype=np.uint8)
    for i, (u, v) in enumerate(P.graph.ends.T):
        out_left[u] -= 1
        in_left[v] -= 1
        need, bits = np.repeat(need, 2, axis=0), np.repeat(bits, 2, axis=0)
        need[1::2, u] -= 1
        need[1::2, v] += 1
        bits[1::2, i] = 1
        keep = ((-in_left[u] <= need[:, u]) & (need[:, u] <= out_left[u])
                & (-in_left[v] <= need[:, v]) & (need[:, v] <= out_left[v]))
        need, bits = need[keep], bits[keep]
    return tuple(map(tuple, bits.tolist()))
