"""Exact-rational verification of the identities behind the sampler.

Everything here is exact arithmetic; "equal" means equal in lowest terms.
The per-vertex sampling polynomial of a flow polytope is evaluated two
independent ways (tree enumeration, and the factored arborescence-sum form)
so each can vouch for the other, and the exact output distribution feeds the
statistical acceptance harness.  The tree enumeration works by orientation:
the flip of a tree t under f is an arborescence toward r iff it is t
oriented toward r, that is iff f is 1 exactly on t's edges that point away
from r.  So each (tree, root) picks out one bit pattern on the tree, and
the vertices that qualify are the AND, over the tree's edges, of one
|V|-bit set per (edge, bit).  The tree-sum evaluator, the Matrix-Tree check
and the exchange bijection all read those sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import add
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .errors import (
    DegenerateDistribution,
    IdentityViolated,
    InvalidInstance,
    NotCirculation,
)
from .graphs import (
    CirculationVector,
    Edge,
    FlowPolytope,
    FlowVertex,
    _net_flow,
    enumerate_vertices,
    m_map,
    require_interior_point,
    reverse_edge,
)
from .spanning import _root_minor, enumerate_directed_trees


# ---------------------------------------------------------------------------
# The sampling polynomials
# ---------------------------------------------------------------------------

def _require_fit(P: FlowPolytope, root: int, *vectors: Sequence) -> None:
    """Raise InvalidInstance unless every vector has one entry per edge of P and root touches one."""
    m = len(P.edges)
    if any(len(v) != m for v in vectors):
        lengths = " and ".join(str(len(v)) for v in vectors)
        raise InvalidInstance(f"expected {m} edge bits and coordinates, got {lengths}")
    if root not in P.graph.incident_nodes:
        raise InvalidInstance(f"root {root} touches no variable edge")


def _scaled(
    P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]
) -> tuple[int, tuple[int, ...], int]:
    """x over one common denominator d, once f, x and root fit P.

    Returns (prefix numerator, numerators of x, d); the prefix, prod over
    edges of x^f (1-x)^(1-f), is that numerator over d^|E|.
    """
    _require_fit(P, root, f, x)
    num, den = _over_common_denominator(tuple(x))
    return prod(n if b else den - n for n, b in zip(num, f)), num, den


@lru_cache(maxsize=256)
def _over_common_denominator(x: tuple) -> tuple[tuple[int, ...], int]:
    """The numerators of x over the lcm d of its denominators, and d."""
    xs = [Fraction(c) for c in x]
    den = lcm(*(c.denominator for c in xs))
    return tuple(c.numerator * (den // c.denominator) for c in xs), den


def _positions(bits: int) -> Iterator[int]:
    """The positions of the set bits of `bits`, lowest first."""
    digits = bin(bits)[:1:-1]
    i = digits.find("1")
    while i >= 0:
        yield i
        i = digits.find("1", i + 1)


class _Orientations:
    """Every tree's orientation toward every root, and the vertices whose bits spell it.

    Bit j of a vertex set stands for the j-th vertex in vertex order.  Each
    edge keeps two sets, the vertices that are 0 on it and those that are 1,
    so a (tree, root) entry, (the tree oriented toward root, the vertices
    that are 1 exactly on its edges that this orientation reverses), costs
    one _orient_toward call and k - 1 ANDs, made the first time it is read.
    Each root's qualifying trees for every vertex are then listed from those
    sets, tree by tree, the first time the root is read.
    """

    def __init__(self, P: FlowPolytope):
        self._edges = P.edges
        self.vertices = enumerate_vertices(P)
        self.trees = enumerate_directed_trees(P.graph)
        self._all = (1 << len(self.vertices)) - 1
        ones = [int("".join(map(str, column[::-1])), 2) for column in zip(*self.vertices)]
        #: Per edge id: (vertices 0 on it, vertices 1 on it).
        self.bits = [(self._all ^ one, one) for one in ones or [0] * len(P.edges)]
        self._oriented: dict = {}
        self._by_root: dict = {}

    def orientation(self, tree: tuple[int, ...], root: int) -> tuple[frozenset[Edge], int]:
        """(tree oriented toward root, the set of vertices whose flip of tree is that orientation)."""
        found = self._oriented.get((tree, root))
        if found is None:
            edges = [self._edges[i] for i in tree]
            toward = _orient_toward(edges, root)
            members = self._all
            for i, e in zip(tree, edges):
                members &= self.bits[i][e not in toward]
            found = self._oriented[tree, root] = (toward, members)
        return found

    def qualifying(self, f: FlowVertex, root: int) -> Sequence[tuple[int, ...]]:
        """The trees whose flip under the 0/1 vector f is an arborescence toward root, in tree order."""
        by_vertex = self._by_root.get(root)
        if by_vertex is None:
            lists: list[list] = [[] for _ in self.vertices]
            for tree in self.trees:
                for j in _positions(self.orientation(tree, root)[1]):
                    lists[j].append(tree)
            by_vertex = self._by_root[root] = dict(zip(self.vertices, map(tuple, lists)))
        found = by_vertex.get(tuple(f))
        if found is None:  # f is no vertex: compare its bits with each orientation
            found = []
            for tree in self.trees:
                toward = self.orientation(tree, root)[0]
                if all(f[i] == (self._edges[i] not in toward) for i in tree):
                    found.append(tree)
        return found


@lru_cache(maxsize=32)
def _orientations(P: FlowPolytope) -> _Orientations:
    return _Orientations(P)


def qualifying_trees(P: FlowPolytope, f: FlowVertex, root: int) -> list[tuple[int, ...]]:
    """The trees of T(E) whose flip under the 0/1 vector f is an arborescence toward root."""
    _require_fit(P, root, f)
    return list(_orientations(P).qualifying(f, root))


def eval_polynomial(P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]) -> Fraction:
    """Value of the sampling polynomial of vertex f at x, by tree enumeration.

    prefix(f, x) times the sum, over the qualifying trees of f at root, of
    prod over tree edges of x^(1-f)(1-x)^f.  With x over one denominator d,
    every term is an integer over d^|E| d^(k-1) for k incident nodes.
    """
    prefix, num, den = _scaled(P, f, root, x)
    total = 0
    for tree in _orientations(P).qualifying(f, root):
        term = 1
        for i in tree:
            term *= den - num[i] if f[i] else num[i]
        total += term
    return Fraction(prefix * total, den ** (len(num) + len(P.graph.incident_nodes) - 1))


def eval_polynomial_factored(
    P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]
) -> Fraction:
    """Same value through the factored form: prefix times the arborescence sum
    of the balanced image M_f(x) of x under the flip-affine map.

    With x over one denominator d, M_f(x) is integer arcs over d, and the
    weighted arborescence count toward root is the root minor of their
    out-Laplacian (Tutte's Matrix-Tree theorem) over d^(k-1).
    """
    prefix, num, den = _scaled(P, f, root, x)
    image = m_map(P, f, num, one=den)
    if not image.is_balanced():
        raise NotCirculation("vector violates the balance equations")
    nodes = P.graph.incident_nodes
    count = _root_minor(nodes, [(u, v, w) for (u, v), w in image.values.items()], root)
    return Fraction(prefix * count, den ** (len(num) + len(nodes) - 1))


@lru_cache(maxsize=256)
def polynomial_values(P: FlowPolytope, x: tuple, root: int) -> Mapping[FlowVertex, Fraction]:
    """eval_polynomial of every vertex at x and root, in vertex order; read-only."""
    return MappingProxyType({f: eval_polynomial(P, f, root, x) for f in enumerate_vertices(P)})


def check_root_independence(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    tables = [polynomial_values(P, tuple(x), r) for r in P.graph.incident_nodes]
    return all(t == tables[0] for t in tables)


def check_marginal_identity(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    """Exact zero test of sum over vertices of (f - x) weighted by P_f(x)."""
    root = P.graph.incident_nodes[0]
    m = len(P.edges)
    acc = [Fraction(0)] * m
    for f, w in polynomial_values(P, tuple(x), root).items():
        for i in range(m):
            acc[i] += (f[i] - Fraction(x[i])) * w
    return all(a == 0 for a in acc)


def check_positivity(P: FlowPolytope, x: Sequence[Fraction]) -> bool:
    root = P.graph.incident_nodes[0]
    return sum(polynomial_values(P, tuple(x), root).values(), Fraction(0)) > 0


# ---------------------------------------------------------------------------
# Exact output distribution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactDistribution:
    probabilities: dict

    def marginal(self, edge: int) -> Fraction:
        return sum(
            (p for f, p in self.probabilities.items() if f[edge]), Fraction(0)
        )


def exact_output_distribution(
    P: FlowPolytope, x: Sequence[Fraction], root: int | None = None
) -> ExactDistribution:
    """Normalized polynomial values: the sampler's exact output law at x."""
    if root is None:
        root = P.graph.incident_nodes[0]
    values = polynomial_values(P, tuple(x), root)
    total = sum(values.values(), Fraction(0))
    if total == 0:
        raise DegenerateDistribution("every sampling polynomial vanishes at x")
    return ExactDistribution({f: v / total for f, v in values.items()})


# ---------------------------------------------------------------------------
# Structural checks
# ---------------------------------------------------------------------------

def check_parallel_to_circ(P: FlowPolytope) -> bool:
    """True iff the difference of every two vertices is a circulation.

    a - b is balanced exactly when a and b have the same net flow at every
    node, so each vertex's net flow is compared with the first vertex's.
    """
    verts = enumerate_vertices(P)
    first = _net_flow(P, verts[0]) if verts else None
    return all(_net_flow(P, f) == first for f in verts)


# ---------------------------------------------------------------------------
# The flow-exchange bijection
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BijectionWitness:
    g: dict[int, int]
    eta: int
    C_plus: frozenset[Edge]
    C_minus: frozenset[Edge]
    A_s: frozenset[Edge]
    A_t: frozenset[Edge]
    F_s: tuple[FlowVertex, ...]
    F_t: tuple[FlowVertex, ...]


def _orient_toward(edges: Sequence[Edge], root: int) -> frozenset[Edge]:
    """Unique orientation of a tree's undirected support with every edge toward root."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    oriented = set()
    seen = {root}
    stack = [root]
    while stack:
        v = stack.pop()
        for w in adj.get(v, []):
            if w not in seen:
                seen.add(w)
                oriented.add((w, v))
                stack.append(w)
    if len(oriented) != len(edges):
        raise InvalidInstance("support is not a tree containing the root")
    return frozenset(oriented)


def check_bijection(P: FlowPolytope, T: Sequence[int], eta: int) -> BijectionWitness:
    """Verify the exchange map between the flows rooting a tree at eta's ends.

    With eta = (s,t) outside the tree T, the vertices f with f_eta = 0 whose
    flip turns T into the arborescence toward s are carried, by adding a
    signed cycle vector g, onto the vertices with f_eta = 1 whose flip turns
    T toward t.  Every claimed property is checked by enumeration; failure
    raises IdentityViolated.
    """
    m = len(P.edges)
    if eta not in range(m):
        raise InvalidInstance(f"eta {eta} is no edge id in 0..{m - 1}")
    tree = tuple(sorted(T))
    if eta in tree:
        raise InvalidInstance("eta must lie outside the tree")
    s, t = P.edges[eta]
    support = [frozenset(P.edges[i]) for i in tree]
    if len(set(support)) != len(support):
        raise InvalidInstance("tree edges repeat an undirected support edge")
    table = _orientations(P)
    A_s, toward_s = table.orientation(tree, s)
    A_t, toward_t = table.orientation(tree, t)

    tree_edges = {i: P.edges[i] for i in tree}
    C_plus = frozenset(e for e in tree_edges.values() if e in A_s and e not in A_t)
    C_minus = frozenset(e for e in tree_edges.values() if e in A_t and e not in A_s)

    g = [0] * m
    g[eta] = 1
    for i, e in tree_edges.items():
        if e in C_plus:
            g[i] = 1
        elif e in C_minus:
            g[i] = -1

    # g must be balanced and supported inside T + eta.
    g_vec = CirculationVector(P.n, {P.edges[i]: v for i, v in enumerate(g) if v})
    if not g_vec.is_balanced():
        raise IdentityViolated("exchange vector is not balanced")
    for i, v in enumerate(g):
        if v and i != eta and i not in tree:
            raise IdentityViolated("exchange vector leaves the tree support")

    # Cycle decomposition: g = (cycle through eta) - two-cycles of C_minus.
    cycle = {P.edges[eta]} | set(C_plus) | {reverse_edge(e) for e in C_minus}
    if not _is_directed_cycle(cycle):
        raise IdentityViolated("eta with the exchange edges is not a directed cycle")
    recomposed = dict.fromkeys(cycle, 1)
    for e in C_minus:
        for a in (e, reverse_edge(e)):
            recomposed[a] = recomposed.get(a, 0) - 1
    recomposed = {e: v for e, v in recomposed.items() if v}
    if recomposed != g_vec.values:
        raise IdentityViolated("cycle decomposition does not recompose the vector")

    # Both flow families, in vertex order, and the map between them.
    zero_eta, one_eta = table.bits[eta]
    F_s = [table.vertices[j] for j in _positions(toward_s & zero_eta)]
    F_t = [table.vertices[j] for j in _positions(toward_t & one_eta)]
    if F_s and any(v for i, v in enumerate(g) if i != eta and i not in tree):
        raise IdentityViolated("exchange map moves a coordinate off the tree")
    targets = set(F_t)
    images = set()
    for f in F_s:
        fp = tuple(map(add, f, g))
        if fp not in targets:
            if any(b not in (0, 1) for b in fp):
                raise IdentityViolated("image of the exchange map leaves {0,1}")
            raise IdentityViolated("exchange map leaves the target family")
        images.add(fp)
    if len(images) != len(F_s) or len(F_s) != len(F_t):
        raise IdentityViolated("exchange map is not a bijection")
    return BijectionWitness(
        g=dict(enumerate(g)),
        eta=eta,
        C_plus=C_plus,
        C_minus=C_minus,
        A_s=A_s,
        A_t=A_t,
        F_s=tuple(F_s),
        F_t=tuple(F_t),
    )


def _is_directed_cycle(edges: set[Edge]) -> bool:
    nxt = {}
    for u, v in edges:
        if u in nxt:
            return False
        nxt[u] = v
    if len(nxt) != len(edges):
        return False
    start = next(iter(nxt))
    v = nxt[start]
    steps = 1
    while v != start:
        if v not in nxt or steps > len(edges):
            return False
        v = nxt[v]
        steps += 1
    return steps == len(edges)


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

    Cells with expected count below 5 are merged into one pooled cell before
    the chi-square statistic is formed.
    """
    if not samples:
        raise InvalidInstance("statistical test needs at least one sample")
    n = len(samples)
    dist = exact_output_distribution(P, x, root)
    counts: dict[FlowVertex, int] = {}
    for f in samples:
        counts[f] = counts.get(f, 0) + 1
    for f in counts:
        if f not in dist.probabilities:
            raise InvalidInstance(f"sampled {f} has zero exact probability")

    cells = []
    pool_obs = 0
    pool_exp = 0.0
    for f, p in sorted(dist.probabilities.items()):
        exp = float(p) * n
        obs = counts.get(f, 0)
        if exp < 5.0:
            pool_obs += obs
            pool_exp += exp
        else:
            cells.append((obs, exp))
    if pool_exp > 0:
        cells.append((pool_obs, pool_exp))
    stat = sum((obs - exp) ** 2 / exp for obs, exp in cells)
    dof = max(len(cells) - 1, 1)
    from scipy.stats import chi2  # only this harness needs scipy; the CLI never loads it

    pvalue = float(chi2.sf(stat, dof))
    chi_pass = pvalue > significance

    m = len(P.edges)
    from math import log, sqrt

    band = sqrt(log(2 * m / significance) / (2 * n))
    marg = []
    all_marg = True
    for i in range(m):
        emp = sum(f[i] for f in samples) / n
        target = float(Fraction(x[i]))
        ok = abs(emp - target) <= band
        all_marg = all_marg and ok
        marg.append((i, emp, target, ok))
    return StatReport(
        chi_square=stat,
        chi_pvalue=pvalue,
        chi_pass=chi_pass,
        marginal_band=band,
        marginals=marg,
        passed=chi_pass and all_marg,
    )


def random_interior_point(P: FlowPolytope, rng) -> tuple[Fraction, ...]:
    """Random rational point of P with every coordinate strictly inside (0,1).

    Convex combination of the enumerated vertices with random integer
    weights; membership holds by construction, and combinations touching the
    boundary are redrawn.
    """
    verts = enumerate_vertices(P)
    if len(verts) < 2:
        raise InvalidInstance("polytope has no interior point to draw")
    m = len(P.edges)
    for _ in range(1000):
        weights = [rng.randrange(1, 50) for _ in verts]
        total = sum(weights)
        point = tuple(
            sum(Fraction(w) * v[i] for w, v in zip(weights, verts)) / total
            for i in range(m)
        )
        if all(0 < c < 1 for c in point):
            require_interior_point(P, point)
            return point
    raise InvalidInstance("could not find an interior combination; fixed coordinate?")
