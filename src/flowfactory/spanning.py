"""Arborescence counting, directed-tree enumeration, and exact tree sampling.

All counting is exact: every Laplacian cofactor, the oracle's included, is
an integer root minor taken by one fraction-free Bareiss elimination
(`det_stack`) over a stack of int64s where no value it forms can overflow
and of Python ints otherwise, and rational weights are cleared to integers
first.  Every out-Laplacian comes from one scatter (`_laplacians`), and a
stack's minors at one root or at several are taken by `root_minors`:
`flip_laplacians` picks each vertex's flip-image arcs from `Graph.ends`,
and a whole graph's count is a stack of one.  The Laplacian uses the
out-weight diagonal, so the minor at r counts arborescences directed toward
r (validated against enumeration in the test suite).  Trees whose flip is
an arborescence are counted on the flip image of the edge set, and drawn as
the acyclic maps among those that pick one exit per node of the image, each
node's exits read from a table keyed by the flow's bits at its edges; a
node's exit count is also the sampler's stage-1 test of its demand
(`ExitTables`).
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
    Python ints, as an (N,) object array: exact however large the entries,
    and for int64 entries wherever no value an elimination forms overflows.

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
    """The (N, k, k) array, of w's dtype, of N out-Laplacians on k nodes, in
    which list n's arc j runs from node index tail[n, j] to head[n, j] with
    weight w[n, j].

    Every list's arcs are added in two scatters, one on the diagonal and one
    off it, and each sums the arcs that share a cell.
    """
    L = np.zeros((len(w), k, k), dtype=w.dtype)
    rows = np.arange(len(w))[:, None]
    np.add.at(L, (rows, tail, tail), w)
    np.subtract.at(L, (rows, tail, head), w)
    return L


def flip_laplacians(P: FlowPolytope, vertices: Sequence[FlowVertex],
                    kept: Sequence[int], turned: Sequence[int]) -> np.ndarray:
    """Per vertex f, the out-Laplacian of its flip image on P's incident nodes, as an (N, k, k)
    array of ints in node order, int64 when no entry (at most |E| weights) can reach 2^63.

    Edge i = (u, v) is the arc u -> v of weight kept[i] where f_i = 0 and
    the arc v -> u of weight turned[i] where f_i = 1: all 1 for the flip
    image itself, and x_i and 1 - x_i over a common denominator for
    M_f(x).  A column sums to its node's out-weight less its in-weight, so
    every column sums to 0 iff the weighted image is balanced.
    """
    u, v = P.graph.ends
    bits = np.array(vertices, dtype=bool).reshape(len(vertices), len(u))
    dtype = np.int64 if len(u) * max(map(abs, [*kept, *turned, 0])) < 2 ** 63 else object
    w = np.where(bits, np.array(turned, dtype=dtype), np.array(kept, dtype=dtype))
    return _laplacians(len(P.graph.incident_nodes), np.where(bits, v, u), np.where(bits, u, v), w)


#: Matrices per det_stack call of root_minors: bounds the Python ints that an elimination makes.
_MINORS = 1 << 12


def root_minors(L: np.ndarray, at) -> np.ndarray:
    """A stack of N Laplacians' minors at node index `at` (an int: an (N,) object array) or at each
    of an array of them (a (len(at), N) array), by det_stack, _MINORS at a time.  Each value it forms
    is a minor of under k rows, at most M^(k-1) for M = k max|L|, or a difference of two products
    of two: it runs in int64 when 2 M^(2k-2) < 2^63."""
    k, at, rows = L.shape[1], np.asarray(at), np.arange(len(L))[:, None, None]
    rest = np.nonzero(np.arange(k) != at[..., None])[-1].reshape(*at.shape, k - 1)
    minors = L[rows, rest[..., None, :, None], rest[..., None, None, :]].reshape(-1, k - 1, k - 1)
    big = k * int(max(L.max(initial=0), -L.min(initial=0)))
    minors = minors.astype(np.int64 if 2 * big ** (2 * k - 2) < 2 ** 63 else object, copy=False)
    dets = [det_stack(minors[i:i + _MINORS]) for i in range(0, max(len(minors), 1), _MINORS)]
    return np.concatenate(dets).reshape(*at.shape, len(L))


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

def component_labels(k: int, tails: np.ndarray, heads: np.ndarray) -> np.ndarray:
    """Per row of the (N, e) arrays of edge ends (node positions below k), the (N, k) array of
    node labels in which two nodes share a label iff the row's edges join them.  Edge by
    edge, the nodes labelled as the edge's head take its tail's label."""
    rows = np.arange(len(tails))
    labels = np.broadcast_to(np.arange(k, dtype=np.int8), (len(tails), k))
    for j in range(tails.shape[1]):
        labels = np.where(labels == labels[rows, heads[:, j], None], labels[rows, tails[:, j], None], labels)
    return labels


@lru_cache(maxsize=256)
def enumerate_directed_trees(G: Graph) -> tuple[tuple[int, ...], ...]:
    """All directed trees spanning the incident nodes, as sorted edge-id tuples in itertools.combinations
    order: the (k - 1)-edge combinations that component_labels finds join, 2^16 at a time (a few MB)."""
    m = len(G.edges)
    if m > ENUMERATION_CAP:
        raise TooLargeForOracle(f"|E| = {m} exceeds enumeration cap {ENUMERATION_CAP}")
    k = len(G.incident_nodes)
    combos, trees = itertools.combinations(range(m), max(k - 1, 0)), []
    while len(chunk := np.fromiter(itertools.chain.from_iterable(itertools.islice(combos, 1 << 16)), dtype=np.intp)):
        chunk = chunk.reshape(-1, k - 1)
        labels = component_labels(k, *G.ends[:, chunk])
        trees += map(tuple, chunk[(labels == labels[:, :1]).all(axis=1)].tolist())
    return tuple(trees)


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


_WORD = (1 << 64) - 1  # a uint64 word of all ones


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
    first time its pattern is read from v's edges alone, holds v's exits as
    (edge id, other end) pairs in edge-id order, nodes being positions in
    `incident_nodes`.  An edge id is an exit of one end only, so the maps
    that are arborescences toward root are the trees qualifying_tree_count
    counts, each once; whether there are any, the tables do not decide.
    """

    def __init__(self, P: FlowPolytope, root: int):
        _require_root(P, root)
        G = P.graph
        self.root = root
        self._root_bit = 1 << G.incident_nodes.index(root)
        ends = G.ends.T.tolist()
        # Per non-root node: (its position, edges at it, its out-edges, its exit count, its table,
        # and per edge at it in edge-id order, (the edge's bit, (edge id, the edge's other end))).
        nodes = []
        for v, (label, (out, into)) in enumerate(zip(G.incident_nodes, G.node_bits)):
            if label != root:
                at = out | into
                nodes.append((v, at, out, out.bit_count() - P.demand(label), {},
                              tuple((1 << e, (e, ends[e][0] ^ ends[e][1] ^ v))
                                    for e in range(at.bit_length()) if at >> e & 1)))
        self._nodes = tuple(nodes)
        self.bound = prod(k for _, _, _, k, _, _ in nodes)
        self._step = [0] * len(G.incident_nodes)  # each node's exit target in the map last read
        # scan's rows: slot s of node i reads row _slot_rows[s, i] of [rows; ~rows; 0], its s-th
        # edge's row, inverted for an edge out of it, or the zero row past its degree, over an even
        # number of slots; plane b of _target holds, in words of all ones or all zeros, bit b of
        # each node's exit count.
        m, degree = len(ends), max(len(pairs) for *_, pairs in nodes)
        slots = degree + degree % 2
        self._slot_rows = np.full((slots, len(nodes)), 2 * m, dtype=np.intp)
        self._target = np.zeros((slots.bit_length(), len(nodes), 1), dtype=np.uint64)
        for i, (_, _, out, k, _, pairs) in enumerate(nodes):
            for slot, (_, (e, _)) in enumerate(pairs):
                self._slot_rows[slot, i] = e + m * (out >> e & 1)
            for b, plane in enumerate(self._target):
                plane[i] = _WORD * (k >> b & 1)

    def __contains__(self, mask: int) -> bool:
        return all(((mask & at) ^ out).bit_count() == k for _, at, out, k, _, _ in self._nodes)

    def scan(self, rows: np.ndarray) -> np.ndarray:
        """Words whose bit j is set iff round j of `rows` is in the tables.

        Row e of `rows` holds edge e's flips, round j at bit j % 64 of word
        j // 64.  Every non-root node's exit count is summed at once,
        bit-sliced, 64 rounds a word op: one gather takes each node's edge
        rows, slot by slot (inverted for an edge out of the node, zero past
        its degree), and plane b of the count holds bit b of every node's
        count in every round.  Carry-save adders add the slots two at a
        time: a full adder puts both into plane 0, and its carry ripples
        up only as far as the count can yet reach, so the top plane takes
        no carry out.  A round passes where every plane of every node
        equals the bit of its k_v; k_v <= deg(v) fits the planes.
        """
        m = len(rows)
        signed = np.empty((2 * m + 1, rows.shape[1]), dtype=np.uint64)
        signed[:m] = rows
        np.invert(rows, out=signed[m:2 * m])
        signed[2 * m] = 0
        x = signed.take(self._slot_rows, axis=0)
        planes = np.zeros((len(self._target), *x.shape[1:]), dtype=np.uint64)
        carry = np.empty(x.shape[1:], dtype=np.uint64)
        reach = 0  # the largest count the slots added so far can make
        for a, b in zip(x[0::2], x[1::2]):
            np.bitwise_and(a, b, out=carry)
            a ^= b
            np.bitwise_and(a, planes[0], out=b)
            carry |= b
            planes[0] ^= a
            reach += 2
            top = reach.bit_length() - 1
            for plane in planes[1:top]:
                np.bitwise_and(plane, carry, out=a)
                plane ^= carry
                carry, a = a, carry
            planes[top] ^= carry
        planes ^= self._target
        miss = np.bitwise_or.reduce(planes.reshape(-1, planes.shape[-1]), axis=0)
        return np.invert(miss, out=miss)

    @staticmethod
    def _fill(at: int, out: int, table: dict, pairs: tuple, mask: int) -> tuple[tuple[int, int], ...]:
        """Enter, and return, a node's exits under `mask`: the (edge id, other end) of each of
        `pairs`, the node's (edge bit, (edge id, other end)) in edge-id order, whose bit is an exit."""
        bits = (mask & at) ^ out
        return table.setdefault(mask & at, tuple(exit for bit, exit in pairs if bits & bit))

    def tree(self, mask: int, u: int) -> list[int] | None:
        """Edge ids of the exit map that u names, node by node, if it is an arborescence toward root.

        u is read in mixed radix over the nodes' exit counts, the first
        node's digit least significant, and each digit picks that node's
        exit.  Returns None when the map has a cycle, whether or not any
        map is an arborescence.
        """
        step = self._step
        eids = []
        for v, at, out, _, table, pairs in self._nodes:
            exits = table.get(mask & at) or self._fill(at, out, table, pairs, mask)
            u, d = divmod(u, len(exits))
            eid, step[v] = exits[d]
            eids.append(eid)
        reach = self._root_bit  # nodes whose path along the map reaches root
        for v, _, _, _, _, _ in self._nodes:
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
