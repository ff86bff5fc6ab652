"""Directed graphs, flow polytopes, and the maps the samplers are built on.

Nodes are labelled 1..n.  Edges are ordered pairs of distinct nodes and carry a
stable integer id equal to their position in the edge sequence.  A *flow
polytope* is the set of points in [0,1]^E whose net outflow at every node
equals that node's integer demand; its vertices are 0/1 flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Mapping, Sequence

from .errors import (
    BoundaryCoin,
    InvalidInstance,
    NotInPolytope,
    TooLargeForOracle,
)

Edge = tuple[int, int]
FlowVertex = tuple[int, ...]
Point = tuple[Fraction, ...]

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
    def out_edges(self) -> dict[int, tuple[int, ...]]:
        """Node -> ids of edges leaving it."""
        out: dict[int, list[int]] = {v: [] for v in range(1, self.n + 1)}
        for i, (u, _) in enumerate(self.edges):
            out[u].append(i)
        return {v: tuple(ids) for v, ids in out.items()}


@dataclass(frozen=True)
class FlowPolytope:
    """A graph together with an integer demand per node."""

    graph: Graph
    demands: tuple[int, ...]

    def __post_init__(self):
        if len(self.demands) != self.graph.n:
            raise InvalidInstance(
                f"expected {self.graph.n} demands, got {len(self.demands)}"
            )
        if sum(self.demands) != 0:
            raise InvalidInstance("demands must sum to zero")

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self.graph.edges

    @property
    def n(self) -> int:
        return self.graph.n

    def demand(self, v: int) -> int:
        return self.demands[v - 1]


@dataclass(frozen=True)
class CirculationVector:
    """A rational vector on directed edges with zero net flow at every node.

    Entries absent from `values` are zero.  The balance invariant is checked
    on demand via :meth:`is_balanced`, not at construction.
    """

    n: int
    values: Mapping[Edge, Fraction]

    def value(self, e: Edge) -> Fraction:
        return self.values.get(e, Fraction(0))

    def is_balanced(self) -> bool:
        net: dict[int, Fraction] = {}
        for (u, v), w in self.values.items():
            net[u] = net.get(u, 0) + w
            net[v] = net.get(v, 0) - w
        return all(x == 0 for x in net.values())


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


def is_vertex(P: FlowPolytope, bits: Sequence[int]) -> bool:
    """True iff `bits` is a 0/1 assignment meeting every demand constraint."""
    if len(bits) != len(P.edges):
        raise InvalidInstance(
            f"expected {len(P.edges)} edge bits, got {len(bits)}"
        )
    if any(b not in (0, 1) for b in bits):
        raise InvalidInstance("vertex coordinates must be 0 or 1")
    net = _net_flow(P, bits)
    return all(net[v] == P.demand(v) for v in net)


def validate_point(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    """True iff x is strictly inside (0,1)^E and exactly balanced.

    Raises BoundaryCoin for coordinates equal to 0 or 1 and InvalidInstance
    for coordinates outside [0,1] or a length mismatch.
    """
    if len(x) != len(P.edges):
        raise InvalidInstance(f"expected {len(P.edges)} coordinates, got {len(x)}")
    for i, c in enumerate(x):
        if c == 0 or c == 1:
            raise BoundaryCoin(f"coordinate of edge {i} is {c}")
        if c < 0 or c > 1:
            raise InvalidInstance(f"coordinate of edge {i} is outside [0,1]")
    net = _net_flow(P, x)
    return all(net[v] == P.demand(v) for v in net)


def require_interior_point(P: FlowPolytope, x: Sequence[Fraction]) -> None:
    if not validate_point(P, x):
        raise NotInPolytope("point violates the flow balance constraints")


# ---------------------------------------------------------------------------
# Flip and M_f maps
# ---------------------------------------------------------------------------

def flip_edge(G: Graph, f: FlowVertex, eid: int) -> Edge:
    """The edge itself when f is 0 on it, its reversal when f is 1."""
    e = G.edges[eid]
    return reverse_edge(e) if f[eid] else e


def flip_tree(G: Graph, f: FlowVertex, tree: Sequence[int]) -> frozenset[Edge]:
    """Apply flip_edge to every edge id in `tree`; returns directed edges."""
    return frozenset(flip_edge(G, f, eid) for eid in tree)


def m_map(P: FlowPolytope, f: FlowVertex, x: Sequence, one: int = 1) -> CirculationVector:
    """Affine map sending a polytope point to the circulation hyperplane.

    Component at directed edge e is x_e(1-f_e) + (1-x_rev)f_rev, with edges
    absent from E contributing zero.  x holds exact numbers; given integer
    numerators over a common denominator `one` instead, the components are
    the integer numerators of M_f(x) over it.
    """
    values: dict[Edge, Fraction] = {}
    for i, e in enumerate(P.edges):
        # Edge i adds x_i at itself when f is 0 on it, and 1 - x_i at its reversal when f is 1.
        if f[i]:
            e, val = reverse_edge(e), one - x[i]
        else:
            val = x[i]
        values[e] = values.get(e, 0) + val
    values = {e: val for e, val in values.items() if val}
    return CirculationVector(P.n, values)


# ---------------------------------------------------------------------------
# Connectivity
# ---------------------------------------------------------------------------

def undirected_connected(G: Graph) -> bool:
    """True iff the undirected support of E connects all incident nodes."""
    nodes = G.incident_nodes
    if not nodes:
        return False
    adj: dict[int, set[int]] = {v: set() for v in nodes}
    for u, v in G.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(nodes)


# ---------------------------------------------------------------------------
# Vertex enumeration
# ---------------------------------------------------------------------------

def enumerate_vertices(P: FlowPolytope) -> list[FlowVertex]:
    """All 0/1 points of P in lexicographic (by edge id) order, enumerated once per polytope."""
    return list(_vertices(P))


@lru_cache(maxsize=256)
def _vertices(P: FlowPolytope) -> tuple[FlowVertex, ...]:
    """Branch-and-prune over edge ids: a partial assignment is cut as soon as a
    node's balance can no longer reach its demand with the edges that remain.
    """
    m = len(P.edges)
    if m > ENUMERATION_CAP:
        raise TooLargeForOracle(f"|E| = {m} exceeds enumeration cap {ENUMERATION_CAP}")
    incident = set(P.graph.incident_nodes)
    for v in range(1, P.n + 1):
        if v not in incident and P.demand(v) != 0:
            return ()

    # Remaining out/in edge counts per node after position i has been decided.
    rem_out = [[0] * (m + 1) for _ in range(P.n + 1)]
    rem_in = [[0] * (m + 1) for _ in range(P.n + 1)]
    for i in range(m - 1, -1, -1):
        u, v = P.edges[i]
        for w in range(1, P.n + 1):
            rem_out[w][i] = rem_out[w][i + 1]
            rem_in[w][i] = rem_in[w][i + 1]
        rem_out[u][i] += 1
        rem_in[v][i] += 1

    demands = P.demands
    balance = [0] * (P.n + 1)
    bits: list[int] = []
    out: list[FlowVertex] = []

    def feasible(w: int, i: int) -> bool:
        d = demands[w - 1]
        return balance[w] + rem_out[w][i] >= d >= balance[w] - rem_in[w][i]

    def rec(i: int) -> None:
        if i == m:
            out.append(tuple(bits))
            return
        u, v = P.edges[i]
        for b in (0, 1):
            balance[u] += b
            balance[v] -= b
            bits.append(b)
            if feasible(u, i + 1) and feasible(v, i + 1):
                rec(i + 1)
            bits.pop()
            balance[u] -= b
            balance[v] += b

    rec(0)
    return tuple(out)

