"""Arborescence counting, directed-tree enumeration, and exact tree sampling.

All counting is exact: integer matrices go through fraction-free Bareiss
elimination, rational matrices are cleared to integers first.  The Laplacian
uses the out-weight diagonal, so the minor at r counts arborescences directed
toward r (validated against enumeration in the test suite).  Trees whose flip
is an arborescence are counted on the flip image of the edge set, and drawn
as the acyclic maps among those that pick one exit per node of the image,
each node's exits read from a table keyed by the flow's bits at its edges.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod

from .errors import (
    InvalidInstance,
    NoArborescence,
    NotZLS,
    TooLargeForOracle,
)
from .graphs import (
    ENUMERATION_CAP,
    Edge,
    FlowPolytope,
    FlowVertex,
    Graph,
    flip_edge,
)


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with a weight (multiplicity or rational) per edge."""

    nodes: tuple[int, ...]
    weights: dict[Edge, object] = field(default_factory=dict)

    def __post_init__(self):
        nodeset = set(self.nodes)
        for (u, v), w in self.weights.items():
            if u == v:
                raise InvalidInstance(f"self-loop weight on node {u}")
            if u not in nodeset or v not in nodeset:
                raise InvalidInstance(f"edge ({u},{v}) leaves the node set")
            if w < 0:
                raise InvalidInstance(f"negative weight on edge ({u},{v})")


# ---------------------------------------------------------------------------
# Exact determinants
# ---------------------------------------------------------------------------

def det_bareiss(matrix: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [list(row) for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * pivot - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def det_exact(matrix) -> Fraction:
    """Exact determinant of a rational matrix via denominator clearing."""
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    scale = 1
    for row in matrix:
        for x in row:
            scale = lcm(scale, Fraction(x).denominator)
    ints = [[int(Fraction(x) * scale) for x in row] for row in matrix]
    return Fraction(det_bareiss(ints), scale**n)


# ---------------------------------------------------------------------------
# Laplacians and counting
# ---------------------------------------------------------------------------

def build_laplacian(W: WeightedDigraph) -> list[list]:
    """Out-weight Laplacian: diag(i) = sum_j w(i,j), entry (i,j) = -w(i,j)."""
    idx = {v: i for i, v in enumerate(W.nodes)}
    k = len(W.nodes)
    zero = 0
    L = [[zero] * k for _ in range(k)]
    for (u, v), w in W.weights.items():
        i, j = idx[u], idx[v]
        L[i][j] -= w
        L[i][i] += w
    return L


def _root_minor(nodes, arcs, root: int) -> int:
    """Determinant of the out-Laplacian of integer-weighted arcs (u, v, w)
    on `nodes`, with root's row and column removed.

    By Tutte's directed Matrix-Tree theorem this is the weighted count of
    arborescences toward root.
    """
    idx = {v: i for i, v in enumerate(v for v in nodes if v != root)}
    L = [[0] * len(idx) for _ in idx]
    for u, v, w in arcs:
        i = idx.get(u)
        if i is not None:
            row = L[i]
            row[i] += w
            j = idx.get(v)
            if j is not None:
                row[j] -= w
    return det_bareiss(L)


def count_arborescences(W: WeightedDigraph, root: int):
    """Weighted count of arborescences directed toward `root` (Matrix-Tree).

    Rational weights are scaled to integers by the lcm of their
    denominators; each arborescence has k - 1 edges, so the count is
    divided by scale ** (k - 1).
    """
    if root not in W.nodes:
        raise InvalidInstance(f"root {root} not among nodes")
    scale = lcm(*(Fraction(w).denominator for w in W.weights.values()))
    arcs = [(u, v, int(w * scale)) for (u, v), w in W.weights.items()]
    count = _root_minor(W.nodes, arcs, root)
    return count if scale == 1 else Fraction(count, scale ** (len(W.nodes) - 1))


def zls_cofactor_check(matrix) -> bool:
    """True iff all principal cofactors of a zero-line-sum matrix are equal."""
    n = len(matrix)
    for i in range(n):
        if sum(matrix[i]) != 0 or sum(row[i] for row in matrix) != 0:
            raise NotZLS(f"row or column {i} does not sum to zero")
    dets = []
    for r in range(n):
        minor = [
            [matrix[i][j] for j in range(n) if j != r]
            for i in range(n)
            if i != r
        ]
        dets.append(det_exact(minor))
    return all(d == dets[0] for d in dets)


# ---------------------------------------------------------------------------
# Tree enumeration oracles
# ---------------------------------------------------------------------------

def _support_is_spanning_tree(edges: list[Edge], nodes: tuple[int, ...]) -> bool:
    if len(edges) != len(nodes) - 1:
        return False
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


@lru_cache(maxsize=256)
def enumerate_directed_trees(G: Graph) -> tuple[tuple[int, ...], ...]:
    """All directed trees spanning the incident nodes, as sorted edge-id tuples."""
    m = len(G.edges)
    if m > ENUMERATION_CAP:
        raise TooLargeForOracle(f"|E| = {m} exceeds enumeration cap {ENUMERATION_CAP}")
    nodes = G.incident_nodes
    k = len(nodes)
    if k < 2 or m < k - 1:
        return ()
    trees = []
    for combo in itertools.combinations(range(m), k - 1):
        support = [G.edges[i] for i in combo]
        if _support_is_spanning_tree(support, nodes):
            trees.append(combo)
    return tuple(trees)


def directed_tree_count(G: Graph) -> int:
    """|T(E)| via the Matrix-Tree theorem on the support, one arc each way per edge."""
    nodes = G.incident_nodes
    if len(nodes) < 2:
        return 0
    arcs = [a for u, v in G.edges for a in ((u, v, 1), (v, u, 1))]
    return _root_minor(nodes, arcs, nodes[-1])


def is_arborescence(edges, root: int) -> bool:
    """True iff the directed edges form a tree with every edge oriented toward root."""
    edges = set(edges)
    nodes = {u for e in edges for u in e}
    if root not in nodes:
        return False
    if len(edges) != len(nodes) - 1:
        return False
    out: dict[int, Edge] = {}
    for u, v in edges:
        if u in out:
            return False
        out[u] = (u, v)
    if root in out:
        return False
    for start in nodes:
        v = start
        seen = set()
        while v != root:
            if v in seen or v not in out:
                return False
            seen.add(v)
            v = out[v][1]
    return True


# ---------------------------------------------------------------------------
# Trees whose flip is an arborescence: exact count and exit maps
# ---------------------------------------------------------------------------

def qualifying_tree_count(P: FlowPolytope, f: FlowVertex, root: int) -> int:
    """Number of directed trees T in T(E) with Flip_f(T) an arborescence toward root.

    These are the arborescences toward root of the flip image, with one edge
    id chosen per image edge: an image edge with two preimages counts twice,
    and an arborescence never holds two edges over one pair of nodes, so the
    chosen ids always span a tree.  The count is the determinant of the flip
    image's out-Laplacian with root's row and column removed.
    """
    nodes = P.graph.incident_nodes
    if root not in nodes:
        raise InvalidInstance(f"root {root} not among nodes")
    arcs = [(*flip_edge(P.graph, f, eid), 1) for eid in range(len(P.edges))]
    return _root_minor(nodes, arcs, root)


class ExitTables:
    """Each non-root node's exits in the flip image of a vertex, tabled by its local edge bits.

    In the flip image of a 0/1 flow f, node v's exits are its out-edges idle
    under f and its in-edges that carry flow: outdeg(v) - d(v) of them when
    f is a vertex.  So `bound`, the product of those counts over the nodes,
    is the number B of maps that pick one exit per node for every vertex,
    and K_f <= B.  A negative count means no 0/1 flow meets v's demand, so
    there is no vertex to bound; it counts as 0, like a node with no exit.
    Which exits v has depends only on f's bits at v's edges.  So each
    incident node v != root keeps one table keyed by mask & (edges at v),
    bit i of a mask being f on edge i; an entry holds v's exits as (edge
    id, other end) pairs in edge-id order and the bitmask of those other
    ends, and is filled the first time its pattern is read.  An edge id is
    an exit of one end only, so the maps that are arborescences toward root
    are the trees qualifying_tree_count counts, each once.
    """

    def __init__(self, P: FlowPolytope, root: int):
        nodes = P.graph.incident_nodes
        if root not in nodes:
            raise InvalidInstance(f"root {root} not among nodes")
        self.root = root
        self._all = sum(1 << v for v in nodes)
        # Per node: (node, edges at it as a mask, its table, (edge id, other end, inward) per edge).
        tables = []
        for v in nodes:
            if v != root:
                edges = tuple((eid, b if a == v else a, b == v)
                              for eid, (a, b) in enumerate(P.edges) if v in (a, b))
                tables.append((v, sum(1 << eid for eid, _, _ in edges), {}, edges))
        self._nodes = tuple(tables)
        self.bound = prod(max(sum(not inward for _, _, inward in edges) - P.demand(v), 0)
                          for v, _, _, edges in tables)
        self._step = [0] * (P.n + 1)  # each node's exit target in the map last read

    @staticmethod
    def _fill(node, mask: int) -> tuple[tuple[tuple[int, int], ...], int]:
        _, at, table, edges = node
        exits = tuple((eid, w) for eid, w, inward in edges if (mask >> eid) & 1 == inward)
        entry = table[mask & at] = (exits, sum({1 << w for _, w in exits}))
        return entry

    def _require_reach(self, mask: int, reach: int) -> None:
        """Raise NoArborescence unless every node reaches root in mask's flip image.

        `reach` holds nodes already known to reach root, root among them;
        every node's entry for mask must be filled.
        """
        while reach != self._all:
            before = reach
            for v, at, table, _ in self._nodes:
                if table[mask & at][1] & reach:
                    reach |= 1 << v
            if reach == before:
                raise NoArborescence(f"no tree flips to an arborescence toward node {self.root}")

    def maps(self, mask: int) -> int:
        """The number of exit maps of mask's flip image (B for a vertex).

        Raises NoArborescence when some node cannot reach root in the flip
        image: then none of the maps is an arborescence.
        """
        count = prod(len((node[2].get(mask & node[1]) or self._fill(node, mask))[0])
                     for node in self._nodes)
        self._require_reach(mask, 1 << self.root)
        return count

    def tree(self, mask: int, u: int) -> list[int] | None:
        """Edge ids of the exit map that u names, node by node, if it is an arborescence toward root.

        u is read in mixed radix over the nodes' exit counts, the first
        node's digit least significant, and each digit picks that node's
        exit.  Returns None when the map has a cycle; raises NoArborescence
        there if some node cannot reach root by any exit, since then no map
        is an arborescence.
        """
        step = self._step
        eids = []
        for node in self._nodes:
            exits = (node[2].get(mask & node[1]) or self._fill(node, mask))[0]
            u, d = divmod(u, len(exits))
            eid, step[node[0]] = exits[d]
            eids.append(eid)
        reach = 1 << self.root  # nodes whose path along the map reaches root
        for v, _, _, _ in self._nodes:
            path = 0
            while not reach >> v & 1:
                if path >> v & 1:
                    self._require_reach(mask, reach)
                    return None
                path |= 1 << v
                v = step[v]
            reach |= path
        return eids


def sample_flip_tree(P: FlowPolytope, f: FlowVertex, root: int, rng) -> frozenset[int]:
    """Uniform tree among those whose flip under f is an arborescence toward root.

    Draws u uniformly below the number of exit maps until the map u names
    (see ExitTables.tree) is one: cycle popping with a full restart (Propp
    and Wilson, J. Algorithms 1998).  Raises NoArborescence, before any
    draw, when there is none.
    """
    tables = ExitTables(P, root)
    mask = sum(b << i for i, b in enumerate(f))
    bound = tables.maps(mask)
    while (tree := tables.tree(mask, rng.randrange(bound))) is None:
        pass
    return frozenset(tree)
