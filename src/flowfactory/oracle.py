"""Exact-rational verification of the identities behind the sampler.

Everything here is exact arithmetic; "equal" means equal in lowest terms.
The per-vertex sampling polynomial of a flow polytope is evaluated two
independent ways (tree enumeration, and the factored arborescence-sum form)
so each can vouch for the other, and the exact output distribution feeds the
statistical acceptance harness.  The tree enumeration reads one table per
polytope: flip_tree(G, f, t) reads f only at t's edges, so each tree's
vertices fall into at most 2^|t| groups by their bits there, one flip image
per group.  The tree-sum evaluator, the Matrix-Tree check and the exchange
bijection all read those images and their arborescence verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm, prod
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import (
    DegenerateDistribution,
    IdentityViolated,
    InvalidInstance,
)
from .graphs import (
    CirculationVector,
    Edge,
    FlowPolytope,
    FlowVertex,
    _net_flow,
    enumerate_vertices,
    flip_tree,
    m_map,
    require_interior_point,
    reverse_edge,
)
from .spanning import enumerate_directed_trees, is_arborescence, sarb


# ---------------------------------------------------------------------------
# The sampling polynomials
# ---------------------------------------------------------------------------

def _scaled(
    P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]
) -> tuple[int, list[int], int]:
    """x over one common denominator d, once f, x and root fit P.

    Returns (prefix numerator, numerators of x, d); the prefix, prod over
    edges of x^f (1-x)^(1-f), is that numerator over d^|E|.
    """
    m = len(P.edges)
    if len(f) != m or len(x) != m:
        raise InvalidInstance(f"expected {m} edge bits and coordinates, got {len(f)} and {len(x)}")
    if root not in P.graph.incident_nodes:
        raise InvalidInstance(f"root {root} touches no variable edge")
    xs = [Fraction(c) for c in x]
    den = lcm(*(c.denominator for c in xs))
    num = [c.numerator * (den // c.denominator) for c in xs]
    return prod(n if b else den - n for n, b in zip(num, f)), num, den


class _FlipImages:
    """Every tree's flip images over one polytope's vertices, and their arborescence verdicts.

    flip_tree(G, f, t) reads f only at t's edges, so one image serves every
    vertex with the same bits there: a tree has at most 2^|t| of them.  A
    tree's entry is (f's bits at the tree, {bits: (image, the vertices with
    those bits, in vertex order)}), built the first time the tree is read
    with one flip_tree call per pattern.  is_arborescence runs once per
    (image, root), and each (f, root) keeps its qualifying trees; an f that
    is no vertex adds its own patterns, with no vertices, as it meets them.
    """

    def __init__(self, P: FlowPolytope):
        self._graph = P.graph
        self._vertices = enumerate_vertices(P)
        self._trees = enumerate_directed_trees(P.graph)
        self._by_tree: dict = {}
        self._verdicts: dict = {}
        self._qualifying: dict = {}

    def groups(self, tree: tuple[int, ...]):
        """The tree's entry: (f's bits at it, {bits: (image, vertices with those bits)})."""
        entry = self._by_tree.get(tree)
        if entry is None:
            bits = itemgetter(*tree)
            members: dict = {}
            for f in self._vertices:
                members.setdefault(bits(f), []).append(f)
            entry = self._by_tree[tree] = (bits, {
                key: (flip_tree(self._graph, fs[0], tree), tuple(fs)) for key, fs in members.items()
            })
        return entry

    def qualifying(self, f: FlowVertex, root: int) -> tuple[tuple[int, ...], ...]:
        f = tuple(f)
        found = self._qualifying.get((f, root))
        if found is None:
            found = []
            for tree in self._trees:
                bits, groups = self.groups(tree)
                key = bits(f)
                hit = groups.get(key)
                if hit is None:
                    hit = groups[key] = (flip_tree(self._graph, f, tree), ())
                verdict = self._verdicts.get((hit[0], root))
                if verdict is None:
                    verdict = self._verdicts[hit[0], root] = is_arborescence(hit[0], root)
                if verdict:
                    found.append(tree)
            found = self._qualifying[f, root] = tuple(found)
        return found


@lru_cache(maxsize=32)
def _flip_images(P: FlowPolytope) -> _FlipImages:
    return _FlipImages(P)


def qualifying_trees(P: FlowPolytope, f: FlowVertex, root: int) -> list[tuple[int, ...]]:
    """The trees of T(E) whose flip under f is an arborescence toward root."""
    return list(_flip_images(P).qualifying(f, root))


def eval_polynomial(P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]) -> Fraction:
    """Value of the sampling polynomial of vertex f at x, by tree enumeration.

    prefix(f, x) times the sum, over the qualifying trees of f at root, of
    prod over tree edges of x^(1-f)(1-x)^f.  With x over one denominator d,
    every term is an integer over d^|E| d^(k-1) for k incident nodes.
    """
    prefix, num, den = _scaled(P, f, root, x)
    total = 0
    for tree in qualifying_trees(P, f, root):
        term = 1
        for i in tree:
            term *= den - num[i] if f[i] else num[i]
        total += term
    return Fraction(prefix * total, den ** (len(num) + len(P.graph.incident_nodes) - 1))


def eval_polynomial_factored(
    P: FlowPolytope, f: FlowVertex, root: int, x: Sequence[Fraction]
) -> Fraction:
    """Same value through the factored form: prefix times the arborescence sum
    of the balanced image of x under the flip-affine map."""
    prefix, num, den = _scaled(P, f, root, x)
    return Fraction(prefix, den ** len(num)) * sarb(m_map(P, f, x), root, nodes=P.graph.incident_nodes)


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


def _orient_toward(support: list[frozenset], root: int) -> frozenset[Edge]:
    """Unique orientation of an undirected tree with every edge toward root."""
    adj: dict[int, list[int]] = {}
    for pair in support:
        u, v = tuple(pair)
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
    if len(oriented) != len(support):
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
    tree = tuple(sorted(T))
    if eta in tree:
        raise InvalidInstance("eta must lie outside the tree")
    s, t = P.edges[eta]
    support = [frozenset(P.edges[i]) for i in tree]
    if len(set(support)) != len(support):
        raise InvalidInstance("tree edges repeat an undirected support edge")
    A_s = _orient_toward(support, s)
    A_t = _orient_toward(support, t)

    tree_edges = {i: P.edges[i] for i in tree}
    C_plus = frozenset(e for e in tree_edges.values() if e in A_s and e not in A_t)
    C_minus = frozenset(e for e in tree_edges.values() if e in A_t and e not in A_s)

    g = {i: 0 for i in range(len(P.edges))}
    g[eta] = 1
    for i, e in tree_edges.items():
        if e in C_plus:
            g[i] = 1
        elif e in C_minus:
            g[i] = -1

    # g must be balanced and supported inside T + eta.
    g_vec = CirculationVector(
        P.n, {P.edges[i]: Fraction(v) for i, v in g.items() if v}
    )
    if not g_vec.is_balanced():
        raise IdentityViolated("exchange vector is not balanced")
    for i, v in g.items():
        if v and i != eta and i not in tree:
            raise IdentityViolated("exchange vector leaves the tree support")

    # Cycle decomposition: g = (cycle through eta) - two-cycles of C_minus.
    cycle = {P.edges[eta]} | set(C_plus) | {reverse_edge(e) for e in C_minus}
    if not _is_directed_cycle(cycle):
        raise IdentityViolated("eta with the exchange edges is not a directed cycle")
    recomposed: dict[Edge, Fraction] = {e: Fraction(1) for e in cycle}
    for e in C_minus:
        for a in (e, reverse_edge(e)):
            recomposed[a] = recomposed.get(a, Fraction(0)) - 1
    recomposed = {e: v for e, v in recomposed.items() if v}
    if recomposed != dict(g_vec.values):
        raise IdentityViolated("cycle decomposition does not recompose the vector")

    # Both flow families, from the tree's flip-image groups, and the map between them.
    outside = [i for i in range(len(P.edges)) if i != eta and i not in tree]
    F_s = []
    F_t = []
    for img, fs in _flip_images(P).groups(tree)[1].values():
        if img == A_s:
            F_s += [f for f in fs if f[eta] == 0]
        elif img == A_t:
            F_t += [f for f in fs if f[eta] == 1]
    F_t_set = set(F_t)
    images = set()
    for f in F_s:
        fp = tuple(f[i] + g[i] for i in range(len(P.edges)))
        if any(b not in (0, 1) for b in fp):
            raise IdentityViolated("image of the exchange map leaves {0,1}")
        if fp not in F_t_set:
            raise IdentityViolated("exchange map leaves the target family")
        if any(f[i] != fp[i] for i in outside):
            raise IdentityViolated("exchange map moves a coordinate off the tree")
        images.add(fp)
    if len(images) != len(F_s) or len(F_s) != len(F_t):
        raise IdentityViolated("exchange map is not a bijection")
    return BijectionWitness(
        g=g,
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
