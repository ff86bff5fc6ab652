"""Exact verification of the identities behind the sampler, in integers.

Everything here is exact arithmetic; "equal" means equal in lowest terms.
The per-vertex sampling polynomial of a flow polytope is evaluated two
independent ways (tree enumeration, and the factored arborescence-sum form)
so each can vouch for the other, and the exact output distribution feeds the
statistical acceptance harness.  The tree enumeration works by orientation:
the flip of a tree t under f is an arborescence toward r iff f is 1 exactly
on t's edges that orienting toward r reverses.  So each (tree, root) picks
out one bit pattern on the tree, and the vertices that qualify are those
whose edge-bit ints (bit i = f_i) AND the tree's edge bits equal it.  Each
root's (pattern, vertices) entries come from one numpy pass; the tree sum is
one `np.add.at` over them, the Matrix-Tree counts one bincount of their
positions, and the exchange bijection compares one family's images with the
other as sets of edge-bit ints, a block of (tree, eta) pairs at once.  With
x = num / d, the value checks compare integers: w_f = P_f(x) d^(|E|+k-1) for
k incident nodes, and every Laplacian cofactor is an integer root minor over
d, of a `spanning.flip_laplacians` stack that the one fraction-free
elimination in `spanning` takes, every vertex's at a root in one call.
Fractions are built from w only for a caller that reads values.  M_f(x)'s
balance is checked in one place, `_image_laplacians`, on its column sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm, log, sqrt
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateDistribution,
    IdentityViolated,
    InvalidInstance,
    NotCirculation,
)
from .graphs import (
    FlowPolytope,
    FlowVertex,
    _require_bits,
    _require_root,
    _require_vertex,
    enumerate_vertices,
    require_interior_point,
)
from .spanning import enumerate_directed_trees, flip_laplacians, root_minors


# ---------------------------------------------------------------------------
# The sampling polynomials
# ---------------------------------------------------------------------------

def _require_fit(P: FlowPolytope, root: int, f: FlowVertex, x: Sequence) -> None:
    """Raise InvalidInstance unless f and x have one entry per edge of P,
    each of f's is 0 or 1, and root touches one."""
    m = len(P.edges)
    if len(f) != m or len(x) != m:
        raise InvalidInstance(f"expected {m} edge bits and coordinates, got {len(f)} and {len(x)}")
    _require_bits(P, f)
    _require_root(P, root)


def _prefixes(bits: np.ndarray, num: np.ndarray, den: int) -> np.ndarray:
    """Per row f of the bool bit matrix, prefix(f, x) = prod over edges of
    x^f (1-x)^(1-f), times d^|E| for x = num / d, in num's dtype."""
    return np.where(bits, num, den - num).prod(axis=1)


@lru_cache(maxsize=256)
def _over_common_denominator(x: tuple) -> tuple[tuple[int, ...], int]:
    """The numerators of x over the lcm d of its denominators, and d."""
    xs = [Fraction(c) for c in x]
    den = lcm(*(c.denominator for c in xs))
    return tuple(c.numerator * (den // c.denominator) for c in xs), den


def _head_sides(tree: Sequence[int], tails: Sequence[int], heads: Sequence[int]) -> list[int]:
    """Per edge of a spanning tree (edge ids; each edge's tail and head as
    node positions), the node-bit int of the nodes that cutting the edge
    leaves on its head's side: one traversal from position 0."""
    links: dict[int, list[int]] = {}
    for i in tree:
        links.setdefault(tails[i], []).append(i)
        links.setdefault(heads[i], []).append(i)
    up, order = {0: None}, [0]  # each node's edge toward position 0, nearest first
    for v in order:
        for i in links[v]:
            w = tails[i] + heads[i] - v
            if w not in up:
                up[w] = i
                order.append(w)
    below = {v: 1 << v for v in order}  # each node and the nodes beyond it
    for v in reversed(order[1:]):
        below[tails[up[v]] + heads[up[v]] - v] |= below[v]
    return [below[heads[i]] if up[heads[i]] == i else below[0] ^ below[tails[i]] for i in tree]


#: Cells (trees x vertices) per chunk of an entries compare: bounds its temporaries to a few MB.
_CELLS = 1 << 18


class _Orientations:
    """Every tree's orientation toward every root, and the vertices whose bits spell it.

    Each vertex is one edge-bit int (bit i is f_i) in the uint64 array
    `masks`, which the entries' compares read and the exchange check gathers
    from (the 24-edge enumeration cap keeps masks inside uint64); `bits` is
    the same as a (vertex, edge) bool matrix, and `row` maps each vertex to
    its row.  `sides` holds each tree edge's head side as a node-bit int,
    from one traversal per tree: orienting toward a root reverses exactly
    the tree edges whose head side misses it.  A root's `entries`, built by
    one chunked compare the first time it is read, are every tree's pattern
    (the edge-bit int of the edges it reverses) and, tree after tree and in
    vertex order, the positions of the vertices whose bits on the tree equal
    it: one int32 array with per-tree offsets, of which `orientation`
    returns one tree's slice.  `tree_masks` holds each tree's edge bits, its
    row being the tree's value in `index`: a sorted id tuple is a spanning
    tree iff it is a key there.
    """

    def __init__(self, P: FlowPolytope):
        self._nodes = P.graph.incident_nodes
        self.vertices = enumerate_vertices(P)
        self.trees = enumerate_directed_trees(P.graph)
        m, shape = len(P.edges), (len(self.trees), max(len(self._nodes) - 1, 0))
        self.bits = np.array(self.vertices, dtype=bool).reshape(len(self.vertices), m)
        self.masks = self.bits @ (np.uint64(1) << np.arange(m, dtype=np.uint64))
        self.row = {f: j for j, f in enumerate(self.vertices)}
        self.index = {tree: k for k, tree in enumerate(self.trees)}
        self.tree_edges = np.array(self.trees, dtype=np.intp).reshape(shape)
        self._edge_bit = np.uint64(1) << self.tree_edges.astype(np.uint64)
        self.tree_masks = self._edge_bit.sum(axis=1, dtype=np.uint64)
        tails, heads = P.graph.ends.tolist()
        self.sides = np.array([_head_sides(tree, tails, heads) for tree in self.trees],
                              dtype=np.uint64).reshape(shape)
        self._by_root: dict = {}

    def reversed_edges(self, root: int) -> np.ndarray:
        """Per tree and tree edge (as in tree_edges), True iff orienting toward root reverses it."""
        return self.sides >> np.uint64(self._nodes.index(root)) & np.uint64(1) == 0

    def entries(self, root: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Root's (patterns, positions, offsets): tree k's entry is patterns[k]
        and positions[offsets[k]:offsets[k + 1]]."""
        if root not in self._by_root:
            patterns = (self._edge_bit * self.reversed_edges(root)).sum(axis=1, dtype=np.uint64)
            bits, n = self.tree_masks, len(self.masks)
            counts, positions = [np.zeros(1, dtype=np.intp)], [np.zeros(0, dtype=np.int32)]
            step = max(1, _CELLS // max(n, 1))
            for b in range(0, len(bits), step):
                hits = np.flatnonzero(self.masks & bits[b:b + step, None] == patterns[b:b + step, None])
                counts.append(np.bincount(hits // n, minlength=len(bits[b:b + step])))
                positions.append((hits % n).astype(np.int32))
            self._by_root[root] = patterns, np.concatenate(positions), np.cumsum(np.concatenate(counts))
        return self._by_root[root]

    def orientation(self, tree: tuple[int, ...], root: int) -> tuple[int, np.ndarray]:
        """The (pattern, positions) entry of tree oriented toward root."""
        patterns, positions, offsets = self.entries(root)
        k = self.index[tree]
        return int(patterns[k]), positions[offsets[k]:offsets[k + 1]]


@lru_cache(maxsize=32)
def _orientations(P: FlowPolytope) -> _Orientations:
    return _Orientations(P)


@lru_cache(maxsize=256)
def _weights(P: FlowPolytope, x: tuple, root: int) -> np.ndarray:
    """Per vertex, in vertex order, w_f = prefix_f * treesum_f: P_f(x) times
    d^(|E|+k-1), for x = num / d and k incident nodes; read-only.

    treesum_f sums, over the trees whose flip under f is an arborescence
    toward root, the product over tree edges of x^(1-f)(1-x)^f times d,
    where f's bits on the tree are the tree's pattern: each tree's term is
    added at all of its root entry's positions at once.  With every factor
    num_i and d - num_i at most M in size (M >= d), each |w_f| is at most
    |T| M^(|E|+k-1), so every partial product and every sum of them times
    d or num_i, as the checks form, is below |V| |T| M^(|E|+k): the table
    is int64 when that is below 2^63 and an object array of Python ints
    otherwise.
    """
    table = _orientations(P)
    _require_fit(P, root, (0,) * len(P.edges), x)  # x and root, as for any vertex
    num, den = _over_common_denominator(x)
    size = max([den, *map(abs, num), *(abs(den - n) for n in num)])
    bound = max(len(table.vertices), 1) * max(len(table.trees), 1) * size ** (len(num) + len(P.graph.incident_nodes))
    num = np.array(num, dtype=np.int64 if bound < 2 ** 63 else object)
    factors = num[table.tree_edges]
    terms = np.where(table.reversed_edges(root), den - factors, factors).prod(axis=1)
    _, positions, offsets = table.entries(root)
    sums = np.zeros(len(table.vertices), dtype=terms.dtype)
    np.add.at(sums, positions, np.repeat(terms, np.diff(offsets)))
    w = _prefixes(table.bits, num, den) * sums
    w.flags.writeable = False
    return w


def eval_polynomial(P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]) -> Fraction:
    """Value of the sampling polynomial of vertex f at x by tree enumeration:
    w_f / d^(|E|+k-1), w_f being f's row of `_weights`' integer table.

    Raises InvalidInstance when f is a 0/1 vector but no vertex of P.
    """
    _require_fit(P, root, f, x)
    _require_vertex(P, f)
    scale = _over_common_denominator(tuple(x))[1] ** (len(P.edges) + len(P.graph.incident_nodes) - 1)
    return Fraction(int(_weights(P, tuple(x), root)[_orientations(P).row[tuple(f)]]), scale)


def qualifying_counts(P: FlowPolytope, root: int) -> np.ndarray:
    """Per vertex, in vertex order, how many trees' flips under it are arborescences toward root."""
    _require_root(P, root)
    table = _orientations(P)
    return np.bincount(table.entries(root)[1], minlength=len(table.vertices))


def _image_laplacians(P: FlowPolytope, vertices: Sequence[FlowVertex],
                      num: Sequence[int], den: int) -> np.ndarray:
    """Per vertex f, the out-Laplacian of M_f(x) for x = num / d, its weights
    x and 1 - x as integers over d: the flip_laplacians stack.

    Raises NotCirculation when some M_f(x) is not balanced, that is when
    some column of the stack does not sum to 0.
    """
    L = flip_laplacians(P, vertices, num, [den - n for n in num])
    if (L.sum(axis=1) != 0).any():
        raise NotCirculation("vector violates the balance equations")
    return L


def eval_polynomial_factored(
    P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]
) -> Fraction:
    """Same value through the factored form: prefix times the arborescence sum
    of the balanced image M_f(x) of x under the flip-affine map.

    With x = num / d, that sum is the root minor of M_f(x)'s out-Laplacian,
    a stack of one, with integer weights over d (Tutte's Matrix-Tree
    theorem), over d^(k-1) for k incident nodes.  Raises InvalidInstance
    when f is a 0/1 vector but no vertex of P.
    """
    _require_fit(P, root, f, x)
    _require_vertex(P, f)
    num, den = _over_common_denominator(tuple(x))
    nodes = P.graph.incident_nodes
    count = root_minors(_image_laplacians(P, [f], num, den), nodes.index(root))[0]
    prefix = _prefixes(np.array([f], dtype=bool), np.array(num, dtype=object), den)[0]
    return Fraction(prefix * count, den ** (len(num) + len(nodes) - 1))


def factored_form_mismatch(P: FlowPolytope, x: Sequence[Fraction]) -> tuple[FlowVertex, int] | None:
    """The first (f, root), root by root and each in vertex order, where the
    tree sum and the factored form differ; None when they agree everywhere.

    x's common denominator is taken once.  Every vertex's M_f(x) is one
    flip-image Laplacian with weights x and 1 - x over it, and all their
    minors at a root come from one stacked elimination; NotCirculation is
    raised when some M_f(x) is not balanced.  Both sides are integers over
    d^(|E|+k-1): w_f against prefix_f * minor_f.
    """
    roots = P.graph.incident_nodes
    tables = [_weights(P, tuple(x), r) for r in roots]
    table = _orientations(P)
    num, den = _over_common_denominator(tuple(x))
    L = _image_laplacians(P, table.vertices, num, den)
    prefixes = _prefixes(table.bits, np.array(num, dtype=object), den)
    for k, (root, w) in enumerate(zip(roots, tables)):
        bad = np.flatnonzero(w != root_minors(L, k) * prefixes)
        if bad.size:
            return table.vertices[bad[0]], root
    return None


def matrix_tree_mismatch(P: FlowPolytope) -> tuple[FlowVertex, int] | None:
    """The first (f, root), vertex by vertex and each at every root in node
    order, where the number of trees whose flip under f is an arborescence
    toward root differs from the root minor of f's flip-image Laplacian
    (all weights 1); None when they agree everywhere.
    """
    roots = P.graph.incident_nodes
    counts = [qualifying_counts(P, r) for r in roots]
    vertices = _orientations(P).vertices
    ones = (1,) * len(P.edges)
    L = flip_laplacians(P, vertices, ones, ones)
    bad = np.array([count != root_minors(L, k) for k, count in enumerate(counts)]).T  # vertex by root
    if not bad.any():
        return None
    j, k = divmod(int(bad.argmax()), len(roots))
    return vertices[j], roots[k]


def check_root_independence(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    first, *rest = (_weights(P, tuple(x), r) for r in P.graph.incident_nodes)
    return all(np.array_equal(first, w) for w in rest)


def check_marginal_identity(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    """Exact zero test of sum over vertices of (f - x) weighted by P_f(x).

    Edge by edge, with x_i = num_i / d: the weight of the vertices that use
    edge i, times d, equals num_i times the total weight.
    """
    w = _weights(P, tuple(x), P.graph.incident_nodes[0])
    (num, den), total = _over_common_denominator(tuple(x)), int(w.sum())
    used = (w[:, None] * _orientations(P).bits).sum(axis=0)
    return all(s * den == n * total for s, n in zip(used.tolist(), num))


def check_positivity(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    return bool(_weights(P, tuple(x), P.graph.incident_nodes[0]).sum() > 0)


def check_zls(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    """True iff the principal cofactors of M_f0(x)'s out-Laplacian agree, f0 the first vertex.

    M_f0(x) is balanced, so that Laplacian has zero line sums.  Its weights
    are taken as integers over x's common denominator d, which scales every
    cofactor by the same d^(k-1).  Raises InvalidInstance when P has no vertex.
    """
    nodes, vertices = P.graph.incident_nodes, enumerate_vertices(P)
    if not vertices:
        raise InvalidInstance("polytope has no vertex")
    _require_fit(P, nodes[0], vertices[0], x)
    L = _image_laplacians(P, vertices[:1], *_over_common_denominator(tuple(x)))
    return len({root_minors(L, k)[0] for k in range(len(nodes))}) == 1


# ---------------------------------------------------------------------------
# Exact output distribution
# ---------------------------------------------------------------------------

class ExactDistribution:
    """The sampler's exact output law: vertex f has probability w_f / sum(w),
    w being the integer weight table; each Fraction is built when read."""

    def __init__(self, vertices: Sequence[FlowVertex], weights: np.ndarray, bits: np.ndarray):
        self._vertices, self._weights, self._bits = vertices, weights, bits
        self._total = int(weights.sum())

    @cached_property
    def probabilities(self) -> dict:
        return {f: Fraction(w, self._total) for f, w in zip(self._vertices, self._weights.tolist())}

    def marginal(self, edge: int) -> Fraction:
        return Fraction(int(self._weights[self._bits[:, edge]].sum()), self._total)


def exact_output_distribution(
    P: FlowPolytope, x: Sequence[Fraction], root: int | None = None
) -> ExactDistribution:
    """Normalized polynomial values: the sampler's exact output law at x."""
    if root is None:
        root = P.graph.incident_nodes[0]
    w = _weights(P, tuple(x), root)
    if not w.sum():
        raise DegenerateDistribution("every sampling polynomial vanishes at x")
    table = _orientations(P)
    return ExactDistribution(table.vertices, w, table.bits)


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def check_parallel_to_circ(P: FlowPolytope) -> bool:
    """True iff the difference of every two vertices is a circulation.

    a - b is balanced exactly when a and b have the same net flow at every
    node, so each vertex's net flow, its bits times the edge-node incidence,
    is compared with the first vertex's.
    """
    verts = enumerate_vertices(P)
    tail, head = P.graph.ends[..., None] == np.arange(len(P.graph.incident_nodes))
    net = np.array(verts, dtype=np.int64).reshape(len(verts), len(P.edges)) @ (tail.astype(np.int64) - head)
    return bool((net == net[:1]).all())


# ---------------------------------------------------------------------------
# The flow-exchange bijection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BijectionWitness:
    g: tuple[int, ...]
    F_s: tuple[FlowVertex, ...]
    F_t: tuple[FlowVertex, ...]


#: The exchange checks in the order each pair takes them, as the messages they raise.
_EXCHANGE_CHECKS = (
    "exchange vector is not balanced",
    "exchange vector leaves the tree support",
    "eta with the exchange edges is not a directed cycle",
    "cycle decomposition does not recompose the vector",
    "image of the exchange map leaves {0,1}",
    "exchange map is not a bijection onto the target family",
)


def _exchange_vector(eta_bit, pattern_s, pattern_t):
    """g as the edge-bit ints (plus, minus) of its +1 and its -1 edges; ints or uint64 arrays alike.

    g is +1 on eta and on the tree edges that only the orientation toward t
    reverses, and -1 on those that only the orientation toward s reverses.
    """
    return eta_bit | pattern_t & ~pattern_s, pattern_s & ~pattern_t


def _exchange_failures(P: FlowPolytope, pairs: Sequence[tuple[tuple[int, ...], int]]) -> np.ndarray:
    """Which of the six exchange checks each (tree, eta) pair fails: a bool
    array with one row per check, in _EXCHANGE_CHECKS order, and one column
    per pair.

    Each tree is an enumerated tree of P (sorted ids) and eta an edge off it.
    Each (tree, root) entry is read once, and the checks run as array
    operations over all pairs with plus, minus and the support as uint64s:
    - balance: at every node, the popcounts of plus and minus on its out-
      and in-edges cancel;
    - support: g lies on T + eta;
    - directed cycle: g's arcs (its +1 edges, and its -1 edges reversed)
      form one directed cycle.  Arc slot i is edge i, and slot m + i is
      edge i reversed unless that is an edge of P, whose slot it then takes
      (an arc named twice is one arc, as in a set).  A node's tail slots
      are its out-edges and its in-edges shifted by m, its head slots the
      other way round.  T + eta is connected with as many edges as nodes,
      so its cycle space has dimension one: once checks 0 and 1 pass, the
      arcs are one directed cycle iff every node is the tail of as many
      arcs as it is the head of, and of at most one;
    - recomposition: that cycle minus the two-cycles of g's -1 edges is g
      iff no +1 edge is the reverse of a -1 edge;
    - image in {0,1}: every f in F_s is 0 where g is 1 and 1 where g is -1;
    - bijection: then f + g is f XOR g's support, which is one-to-one, so
      the map is a bijection iff the images and F_t are equal sets of
      edge-bit ints.  Both are held as sorted (pair, mask) keys, and a key
      in only one of them fails its pair.
    F_s and F_t are the vertices at the pair's s and t entries whose bit at
    eta (read from the `masks` array) is 0 and 1; they are gathered from the
    entries' positions with one repeat/arange index.
    """
    table = _orientations(P)
    edges, n = P.edges, len(pairs)
    # Each tree's entries toward every node, tree after tree; a pair reads
    # its tree's two at eta's ends.
    nodes = P.graph.incident_nodes
    trees = {tree: k for k, tree in enumerate(dict.fromkeys(tree for tree, _ in pairs))}
    entries = [table.orientation(tree, root) for tree in trees for root in nodes]
    tree_at = np.array([trees[tree] for tree, _ in pairs], dtype=np.intp)
    eta = np.array([e for _, e in pairs], dtype=np.intp)
    at_s, at_t = tree_at * len(nodes) + P.graph.ends[:, eta]
    eta_bit = np.uint64(1) << eta.astype(np.uint64)
    patterns = np.array([pattern for pattern, _ in entries], dtype=np.uint64)
    plus, minus = _exchange_vector(eta_bit, patterns[at_s], patterns[at_t])
    support = plus | minus
    failed = np.zeros((len(_EXCHANGE_CHECKS), n), dtype=bool)

    count = np.bitwise_count
    out, into = np.array(P.graph.node_bits, dtype=np.uint64).T[:, :, None]  # one row per node
    failed[0] = (count(plus & out) + count(minus & into) != count(minus & out) + count(plus & into)).any(axis=0)
    tree_masks = table.tree_masks[[table.index[tree] for tree in trees]][tree_at]
    failed[1] = support & ~(tree_masks | eta_bit) != 0
    m, index = len(edges), P.graph.edge_index
    width = np.uint64(m)
    slot = np.array([index.get((v, u), m + i) for i, (u, v) in enumerate(edges)], dtype=np.uint64)
    turned = np.bitwise_or.reduce(
        ((minus & ~plus)[:, None] >> np.arange(m, dtype=np.uint64) & np.uint64(1)) << slot, axis=1)
    arcs = plus | turned
    leaving, entering = count(arcs & (out | into << width)), count(arcs & (into | out << width))
    failed[2] = ((leaving != entering) | (leaving > 1)).any(axis=0)
    failed[3] = plus & turned != 0

    sizes = np.array([len(positions) for _, positions in entries], dtype=np.intp)
    starts = np.cumsum(sizes) - sizes
    # Each entry's vertices' edge-bit ints, entry after entry (np.asarray
    # views an int array's buffer, and converts a list).
    held = table.masks[np.concatenate(
        [np.zeros(0, dtype=np.intc), *(np.asarray(positions, dtype=np.intc) for _, positions in entries)])]

    def family(entry, bit):
        """Per vertex at each pair's entry whose bit at eta is `bit`: its pair, and its edge-bit int."""
        lengths = sizes[entry]
        pair = np.repeat(np.arange(n), lengths)
        f = held[np.arange(len(pair)) + np.repeat(starts[entry] - (np.cumsum(lengths) - lengths), lengths)]
        keep = (f & eta_bit[pair] != 0) == bit
        return pair[keep], f[keep]

    pair, f = family(at_s, 0)
    failed[4, pair[f & support[pair] != minus[pair]]] = True
    images = _distinct(pair.astype(np.uint64) << width | f ^ support[pair])
    pair, f = family(at_t, 1)
    lone = np.setxor1d(images, _distinct(pair.astype(np.uint64) << width | f), assume_unique=True)
    failed[5, (lone >> width).astype(np.intp)] = True
    return failed


def _distinct(keys: np.ndarray) -> np.ndarray:
    """keys sorted, each once (np.unique hashes them, and that is far slower on these keys)."""
    keys = np.sort(keys)
    return np.concatenate([keys[:-1][keys[:-1] != keys[1:]], keys[-1:]])


def _raise_first_failure(failed: np.ndarray) -> None:
    """Raise IdentityViolated with the first failing pair's first failing
    check's message, for _exchange_failures' array; return if none fails."""
    bad = failed.any(axis=0)
    if bad.any():
        raise IdentityViolated(_EXCHANGE_CHECKS[failed[:, bad.argmax()].argmax()])


#: Trees per block of the exchange check: bounds the memory of its family arrays.
_TREES_PER_BLOCK = 32


def check_exchanges(P: FlowPolytope) -> int:
    """Check the exchange map of every (tree, eta) pair, eta an edge off the
    enumerated tree; return how many pairs there are.

    The trees are taken _TREES_PER_BLOCK at a time, each block's pairs in one
    _exchange_failures call.  The first failing pair, tree by tree and eta
    in edge order, raises IdentityViolated with its first failing check's
    message.
    """
    trees, pairs = _orientations(P).trees, 0
    for b in range(0, len(trees), _TREES_PER_BLOCK):
        block = [(tree, eta) for tree in trees[b:b + _TREES_PER_BLOCK]
                 for eta in range(len(P.edges)) if eta not in tree]
        _raise_first_failure(_exchange_failures(P, block))
        pairs += len(block)
    return pairs


def check_bijection(P: FlowPolytope, T: Sequence[int], eta: int) -> BijectionWitness:
    """Verify the exchange map between the flows rooting a tree at eta's ends.

    With eta = (s,t) outside the tree T, the vertices f with f_eta = 0 whose
    flip turns T into the arborescence toward s are carried, by adding a
    signed cycle vector g, onto the vertices with f_eta = 1 whose flip turns
    T toward t.  T is a tree iff its sorted ids are one of the enumerated
    trees.  The pair takes the checks of check_exchanges, the first that
    fails raising IdentityViolated with its message, and only then is the
    witness built: g, and the families F_s and F_t in vertex order.
    """
    m = len(P.edges)
    if eta not in range(m):
        raise InvalidInstance(f"eta {eta} is no edge id in 0..{m - 1}")
    tree = tuple(sorted(T))
    if eta in tree:
        raise InvalidInstance("eta must lie outside the tree")
    table = _orientations(P)
    if tree not in table.index:
        raise InvalidInstance(f"tree {tree} is no spanning tree of the incident nodes")
    _raise_first_failure(_exchange_failures(P, [(tree, eta)]))
    (pattern_s, at_s), (pattern_t, at_t) = (table.orientation(tree, r) for r in P.edges[eta])
    plus, minus = _exchange_vector(1 << eta, pattern_s, pattern_t)
    masks = table.masks
    return BijectionWitness(
        g=tuple(1 if plus >> i & 1 else -(minus >> i & 1) for i in range(m)),
        F_s=tuple(table.vertices[j] for j in at_s if not masks[j] >> eta & 1),
        F_t=tuple(table.vertices[j] for j in at_t if masks[j] >> eta & 1),
    )


# ---------------------------------------------------------------------------
# Statistical harness
# ---------------------------------------------------------------------------

@dataclass
class StatReport:
    chi_square: float
    chi_pvalue: float
    chi_pass: bool
    marginal_band: float
    marginals: list  # (edge, empirical, expected, pass)
    passed: bool


def statistical_test(
    P: FlowPolytope,
    x: Sequence[Fraction],
    root: int | None,
    samples: Sequence[FlowVertex],
    significance: float = 0.001,
) -> StatReport:
    """Chi-square of the empirical vertex law against the exact one, plus a
    per-edge two-sided Hoeffding band on the marginals.

    Vertex f expects w_f / sum(w) * n of the n samples, w the exact law's
    integer weights, and cells expecting fewer than 5 are pooled, in vertex
    order, into one cell.  The empirical marginals are the observed counts
    times the vertex bits, over n.  Raises InvalidInstance for a sampled
    non-vertex, and unless 0 < significance < 1.
    """
    if not samples:
        raise InvalidInstance("statistical test needs at least one sample")
    if not 0 < significance < 1:
        raise InvalidInstance(f"significance must lie strictly between 0 and 1, got {significance}")
    n, m = len(samples), len(P.edges)
    dist, table = exact_output_distribution(P, x, root), _orientations(P)
    rows = np.fromiter((table.row.get(tuple(f), -1) for f in samples), dtype=np.intp, count=n)
    if (rows < 0).any():
        raise InvalidInstance(f"sampled {samples[rows.argmin()]} has zero exact probability")
    observed = np.bincount(rows, minlength=len(table.vertices))
    expected = (dist._weights.astype(object) / dist._total * n).astype(float)  # each int quotient rounded once
    pooled = expected < 5.0
    pool_exp = np.cumsum(np.append(0.0, expected[pooled]))[-1]  # in vertex order, one addition at a time
    obs, exp = observed[~pooled], expected[~pooled]
    if pool_exp > 0:
        obs, exp = np.append(obs, observed[pooled].sum()), np.append(exp, pool_exp)
    # Python floats: ** 2 is C's pow, which numpy's x * x differs from in the last bit now and then.
    stat = sum(((obs - exp).astype(object) ** 2 / exp.astype(object)).tolist())
    from scipy.stats import chi2  # only this harness needs scipy; the CLI never loads it

    pvalue = float(chi2.sf(stat, max(len(obs) - 1, 1)))
    chi_pass = pvalue > significance
    band = sqrt(log(2 * m / significance) / (2 * n))
    num, den = _over_common_denominator(tuple(x))
    emp, target = observed @ table.bits / n, (np.array(num, dtype=object) / den).astype(float)
    ok = abs(emp - target) <= band
    return StatReport(
        chi_square=stat,
        chi_pvalue=pvalue,
        chi_pass=chi_pass,
        marginal_band=band,
        marginals=list(zip(range(m), emp.tolist(), target.tolist(), ok.tolist())),
        passed=chi_pass and bool(ok.all()),
    )


def random_interior_point(P: FlowPolytope, rng) -> tuple[Fraction, ...]:
    """Random rational point of P with every coordinate strictly inside (0,1).

    Convex combination of the enumerated vertices with integer weights
    randrange(1, 50): edge i's coordinate is the weight of the vertices using
    it over the total.  Membership holds by construction, and a combination
    touching the boundary is redrawn, up to 1,000 times.
    """
    verts = enumerate_vertices(P)
    if len(verts) < 2:
        raise InvalidInstance("polytope has no interior point to draw")
    bits = np.array(verts, dtype=np.int64)
    for _ in range(1000):
        weights = [rng.randrange(1, 50) for _ in verts]
        total, used = sum(weights), np.array(weights, dtype=np.int64) @ bits
        if 0 < used.min() and used.max() < total:
            point = tuple(Fraction(u, total) for u in used.tolist())
            require_interior_point(P, point)
            return point
    raise InvalidInstance("could not find an interior combination; fixed coordinate?")
