"""Arborescence counting, directed-tree enumeration, and exact tree sampling.

All counting is exact: every Laplacian cofactor, the oracle's included, is
an integer root minor taken by one fraction-free Bareiss elimination
(`det_stack`) over a stack of object arrays of Python ints, and rational
weights are cleared to integers first.  Every out-Laplacian comes from one
scatter (`_laplacians`), and a stack's minors at a root are taken in one
call (`root_minors`): `flip_laplacians` picks each vertex's flip-image arcs
from `Graph.ends`, and a whole graph's count is a stack of one.  The
Laplacian uses the out-weight diagonal, so the minor at r counts
arborescences directed toward r (validated against enumeration in the test
suite).  Trees whose flip is an arborescence are counted on the flip image
of the edge set, and drawn as the acyclic maps among those that pick one
exit per node of the image, each node's exits read from a table keyed by
the flow's bits at its edges; a node's exit count is also the sampler's
stage-1 test of its demand (`ExitTables`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from typing import Sequence

import numpy as np

from .errors import InvalidInstance, NoArborescence, TooLargeForOracle
from .graphs import (
    ENUMERATION_CAP,
    Edge,
    FlowPolytope,
    FlowVertex,
    Graph,
    _connects,
    _require_bits,
    _require_root,
    _require_vertex,
)


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with a weight (multiplicity or rational) per edge."""

    nodes: tuple[int, ...]
    weights: dict[Edge, object] = field(default_factory=dict)

    def __post_init__(self):
        nodeset = set(self.nodes)
        if len(nodeset) != len(self.nodes):
            raise InvalidInstance(f"node list {self.nodes} repeats a node")
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

def det_stack(stack: np.ndarray) -> np.ndarray:
    """Fraction-free (Bareiss) determinants of an (N, n, n) object array of
    Python ints, as an (N,) object array: exact however large the entries.

    Every matrix takes the same elimination steps at once.  Where a matrix's
    pivot is 0 its row is swapped with the first row below that is nonzero
    in the pivot's column; where there is none the matrix is singular, its
    determinant is 0, and its pivot is set to 1 only so the division stays
    defined for it (its entries are not read again).  Step k divides by the
    pivot of step k - 1, so step 0 divides by nothing.
    """
    m = stack.copy()
    count, n, _ = m.shape
    sign = np.ones(count, dtype=object)
    if n == 0:
        return sign
    for k in range(n - 1):
        if not m[:, k, k].all():
            zero = np.flatnonzero(m[:, k, k] == 0)
            below = m[zero, k + 1:, k] != 0
            found = below.any(axis=1)
            at, other = zero[found], k + 1 + below[found].argmax(axis=1)
            m[at, k], m[at, other] = m[at, other], m[at, k]
            sign[at] *= -1
            sign[zero[~found]] = 0
            m[zero[~found], k, k] = 1
        block = m[:, k + 1:, k + 1:] * m[:, k, k, None, None] - m[:, k + 1:, k, None] * m[:, k, None, k + 1:]
        m[:, k + 1:, k + 1:] = block // m[:, k - 1, k - 1, None, None] if k else block
    return sign * m[:, n - 1, n - 1]


# ---------------------------------------------------------------------------
# Laplacians and counting
# ---------------------------------------------------------------------------

def _laplacians(k: int, tail: np.ndarray, head: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The (N, k, k) object array of N out-Laplacians on k nodes, in which
    list n's arc j runs from node index tail[n, j] to head[n, j] with
    weight w[n, j].

    Every list's arcs are added in two scatters, one on the diagonal and one
    off it, and each sums the arcs that share a cell.
    """
    L = np.zeros((len(w), k, k), dtype=object)
    rows = np.arange(len(w))[:, None]
    np.add.at(L, (rows, tail, tail), w)
    np.subtract.at(L, (rows, tail, head), w)
    return L


def flip_laplacians(P: FlowPolytope, vertices: Sequence[FlowVertex],
                    kept: Sequence[int], turned: Sequence[int]) -> np.ndarray:
    """Per vertex f, the out-Laplacian of its flip image on P's incident
    nodes, as an (N, k, k) object array of ints in node order.

    Edge i = (u, v) is the arc u -> v of weight kept[i] where f_i = 0 and
    the arc v -> u of weight turned[i] where f_i = 1: all 1 for the flip
    image itself, and x_i and 1 - x_i over a common denominator for
    M_f(x).  A column sums to its node's out-weight less its in-weight, so
    every column sums to 0 iff the weighted image is balanced.
    """
    u, v = P.graph.ends
    bits = np.array(vertices, dtype=bool).reshape(len(vertices), len(u))
    w = np.where(bits, np.array(turned, dtype=object), np.array(kept, dtype=object))
    return _laplacians(len(P.graph.incident_nodes), np.where(bits, v, u), np.where(bits, u, v), w)


def root_minors(L: np.ndarray, at: int) -> np.ndarray:
    """The (N,) object array of a stack of N Laplacians' minors at node index
    `at`: each determinant without row and column `at`, all taken by one
    det_stack call."""
    rest = np.arange(L.shape[1]) != at
    return det_stack(L[:, rest][:, :, rest])


def count_arborescences(W: WeightedDigraph, root: int):
    """Weighted count of arborescences directed toward `root` (Matrix-Tree).

    Rational weights are scaled to integers by the lcm of their
    denominators; each arborescence has k - 1 edges, so the count is
    divided by scale ** (k - 1).
    """
    if root not in W.nodes:
        raise InvalidInstance(f"root {root} not among nodes")
    scale = lcm(*(Fraction(w).denominator for w in W.weights.values()))
    at = {v: i for i, v in enumerate(W.nodes)}
    tail, head = np.array([(at[u], at[v]) for u, v in W.weights], dtype=np.intp).reshape(-1, 2).T[:, None]
    w = np.array([[int(c * scale) for c in W.weights.values()]], dtype=object)
    count = root_minors(_laplacians(len(W.nodes), tail, head, w), at[root])[0]
    return count if scale == 1 else Fraction(count, scale ** (len(W.nodes) - 1))


# ---------------------------------------------------------------------------
# Tree enumeration oracles
# ---------------------------------------------------------------------------

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
    # k - 1 edges that join the k nodes are a spanning tree.
    return tuple(combo for combo in itertools.combinations(range(m), k - 1)
                 if _connects(nodes, [G.edges[i] for i in combo]))


def directed_tree_count(G: Graph) -> int:
    """|T(E)| via the Matrix-Tree theorem on the support, one arc each way per edge."""
    k = len(G.incident_nodes)
    if k < 2:
        return 0
    tail, head = np.hstack([G.ends, G.ends[::-1]])[:, None]
    return root_minors(_laplacians(k, tail, head, np.ones(tail.shape, dtype=object)), k - 1)[0]


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
    _require_root(P, root)
    _require_bits(P, f)
    ones = (1,) * len(P.edges)
    return root_minors(flip_laplacians(P, [f], ones, ones), P.graph.incident_nodes.index(root))[0]


class ExitTables:
    """Each non-root node's exits in the flip image of a round mask: the stage-1 test and the tree stage.

    Bit i of a mask is f on edge i.  In the flip image of a 0/1 flow f, node
    v's exits are its idle out-edges and its used in-edges, the set bits of
    (mask & at_v) ^ out_v for v's edges at_v and out-edges out_v (from
    `Graph.node_bits`), and f meets v's demand d(v) iff there are exactly
    k_v = outdeg(v) - d(v) of them, which FlowPolytope keeps in [0, deg(v)].
    So a mask is `in` the tables iff every non-root node has k_v exits, that
    is iff it is a vertex: the incident nodes' demands sum to zero, as their
    net flows do, so the root's count follows.  `scan` runs that test over
    a whole buffer of rounds.  `bound`, the product of the k_v, is the
    number B of maps that pick one exit per non-root node of a vertex's
    flip image, and K_f <= B.  v's exits depend only on mask & at_v, so
    each non-root node keeps one table keyed by it; an entry, filled the
    first time its pattern is read, holds v's exits as (edge id, other end)
    pairs in edge-id order, nodes being positions in `incident_nodes`.  An
    edge id is an exit of one end only, so the maps that are arborescences
    toward root are the trees qualifying_tree_count counts, each once;
    whether there are any, the tables do not decide.
    """

    def __init__(self, P: FlowPolytope, root: int):
        _require_root(P, root)
        G = P.graph
        self.root = root
        self._root_bit = 1 << G.incident_nodes.index(root)
        self._other = (G.ends[0] ^ G.ends[1]).tolist()  # per edge, tail ^ head: xor with one end gives the other
        # Per non-root node: (its position, edges at it, its out-edges, its exit count, its table).
        self._nodes = tuple((v, out | into, out, out.bit_count() - P.demand(label), {})
                            for v, (label, (out, into)) in enumerate(zip(G.incident_nodes, G.node_bits))
                            if label != root)
        self.bound = prod(k for _, _, _, k, _ in self._nodes)
        self._step = [0] * len(G.incident_nodes)  # each node's exit target in the map last read

    def __contains__(self, mask: int) -> bool:
        return all(((mask & at) ^ out).bit_count() == k for _, at, out, k, _ in self._nodes)

    def scan(self, rows: np.ndarray) -> np.ndarray:
        """Words whose bit j is set iff round j of `rows` is in the tables.

        Row e of `rows` holds edge e's flips, round j at bit j % 64 of word
        j // 64.  Each node's exit count is summed bit-sliced, 64 rounds a
        word op: plane k holds bit k of every round's count, and the row of
        each edge at the node, in edge-id order (inverted for an edge out of
        the node), is added with a ripple of carries.  A round passes the
        node where every plane equals k_v's bit; k_v <= deg(v) fits the planes.
        """
        found = ~np.zeros(rows.shape[1], dtype=np.uint64)
        for _, at, out, target, _ in self._nodes:
            planes: list[np.ndarray] = []
            edges = (e for e in range(at.bit_length()) if at >> e & 1)
            for added, e in enumerate(edges, 1):
                carry = ~rows[e] if out >> e & 1 else rows[e]
                for k, plane in enumerate(planes):
                    planes[k] = plane ^ carry
                    carry = plane & carry
                # The count is at most `added`, so the carry out is zero
                # unless `added` needs one more bit.
                if added.bit_length() > len(planes):
                    planes.append(carry)
            for k, plane in enumerate(planes):
                found &= plane if target >> k & 1 else ~plane
        return found

    def _fill(self, v: int, at: int, out: int, table: dict, mask: int) -> tuple[tuple[int, int], ...]:
        bits = (mask & at) ^ out
        return table.setdefault(mask & at, tuple((e, self._other[e] ^ v) for e in range(bits.bit_length())
                                                 if bits >> e & 1))

    def tree(self, mask: int, u: int) -> list[int] | None:
        """Edge ids of the exit map that u names, node by node, if it is an arborescence toward root.

        u is read in mixed radix over the nodes' exit counts, the first
        node's digit least significant, and each digit picks that node's
        exit.  Returns None when the map has a cycle, whether or not any
        map is an arborescence.
        """
        step = self._step
        eids = []
        for v, at, out, _, table in self._nodes:
            exits = table.get(mask & at) or self._fill(v, at, out, table, mask)
            u, d = divmod(u, len(exits))
            eid, step[v] = exits[d]
            eids.append(eid)
        reach = self._root_bit  # nodes whose path along the map reaches root
        for v, _, _, _, _ in self._nodes:
            path = 0
            while not reach >> v & 1:
                if path >> v & 1:
                    return None
                path |= 1 << v
                v = step[v]
            reach |= path
        return eids


def sample_flip_tree(P: FlowPolytope, f: FlowVertex, root: int, rng) -> frozenset[int]:
    """Uniform tree among those whose flip under f is an arborescence toward root.

    Raises InvalidInstance, before any draw, unless f is a vertex of P, and
    NoArborescence when qualifying_tree_count finds none.  Otherwise draws
    u uniformly below B = ExitTables.bound until the map u names (see
    ExitTables.tree) is one: cycle popping with a full restart (Propp and
    Wilson, J. Algorithms 1998).
    """
    _require_vertex(P, f)
    if not qualifying_tree_count(P, f, root):
        raise NoArborescence(f"no tree flips to an arborescence toward node {root}")
    tables = ExitTables(P, root)
    mask = sum(b << i for i, b in enumerate(f))
    while (tree := tables.tree(mask, rng.randrange(tables.bound))) is None:
        pass
    return frozenset(tree)
