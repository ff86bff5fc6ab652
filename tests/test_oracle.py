import random
from fractions import Fraction
from operator import add

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowfactory import (
    DegenerateDistribution,
    IdentityViolated,
    InvalidInstance,
    NotCirculation,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    check_bijection,
    check_marginal_identity,
    check_parallel_to_circ,
    check_positivity,
    check_root_independence,
    check_zls,
    enumerate_directed_trees,
    enumerate_vertices,
    eval_polynomial,
    eval_polynomial_factored,
    exact_output_distribution,
    random_interior_point,
    statistical_test,
)
from flowfactory.graphs import flip_tree, reverse_edge
from flowfactory.oracle import (
    _image_laplacians,
    _over_common_denominator,
    _Orientations,
    _orientations,
    _weights,
    qualifying_counts,
)
from flowfactory.spanning import ExitTables, is_arborescence, qualifying_tree_count

from instances import (
    THIRD,
    disconnected_pair,
    interior_instances,
    six_node_exchange,
    square,
    square_cycle_flow,
    triangle,
    two_node,
)

X2 = (THIRD, THIRD)


def test_eval_polynomial_two_node():
    P = two_node()
    assert eval_polynomial(P, (0, 0), 1, X2) == Fraction(4, 27)
    assert eval_polynomial(P, (1, 1), 1, X2) == Fraction(2, 27)


def test_eval_polynomial_disconnected_is_zero():
    P = disconnected_pair()
    for f in enumerate_vertices(P):
        assert eval_polynomial(P, f, 1, (THIRD,) * 4) == 0


@pytest.mark.parametrize("evaluate", [eval_polynomial, eval_polynomial_factored])
def test_evaluators_reject_inputs_of_the_wrong_length(evaluate):
    P = triangle()
    f = enumerate_vertices(P)[1]
    x = (THIRD,) * 6
    for bad_f, bad_x in [(f[:-1], x), (f + (1, 1), x), (f, x[:-1]), (f, x + (THIRD,))]:
        with pytest.raises(InvalidInstance, match="expected 6 edge bits and coordinates"):
            evaluate(P, bad_f, 1, bad_x)


@pytest.mark.parametrize("evaluate", [eval_polynomial, eval_polynomial_factored],
                         ids=["eval_polynomial", "eval_polynomial_factored"])
def test_eval_polynomial_rejects_a_01_vector_that_is_no_vertex(evaluate):
    # Flipping bit 0 of a vertex unbalances that edge's ends: no polynomial is defined there.
    P = triangle()
    f = enumerate_vertices(P)[1]
    off = (1 - f[0],) + f[1:]
    with pytest.raises(InvalidInstance, match=r"is no vertex of the polytope$"):
        evaluate(P, off, 1, (THIRD,) * 6)


def test_eval_polynomial_reads_the_read_only_integer_table():
    # P_f(x) is w_f over d^(|E|+k-1): here d = 3, |E| = 6 and k = 3 incident nodes.
    P = triangle()
    x = (THIRD,) * 6
    row = _orientations(P).row
    assert list(row) == enumerate_vertices(P) and list(row.values()) == list(range(len(row)))
    for root in P.graph.incident_nodes:
        w = _weights(P, x, root)
        with pytest.raises(ValueError, match="read-only"):
            w[0] = 0
        assert all(eval_polynomial(P, f, root, x) == Fraction(int(w[row[f]]), 3 ** 8) for f in row)


def test_triangle_polynomial_table():
    # frozen exact values at p=1/3, in units of 1/6561
    P = triangle()
    expected = {}
    for f in enumerate_vertices(P):
        w = sum(f)
        if w == 0:
            expected[f] = 192
        elif w == 2:
            expected[f] = 80
        elif w == 3:
            expected[f] = 72
        elif w == 4:
            expected[f] = 32
        else:
            expected[f] = 12
    total = 0
    for f, num in expected.items():
        assert eval_polynomial(P, f, 1, (THIRD,) * 6) == Fraction(num, 6561)
        total += num
    assert total == 684


def test_factored_form_agrees():
    rng = random.Random(1001)
    for P in [two_node(), triangle(), square(), build_matching_polytope(2)]:
        points = [random_interior_point(P, rng) for _ in range(5)]
        for x in points:
            for f in enumerate_vertices(P):
                for r in P.graph.incident_nodes:
                    assert eval_polynomial(P, f, r, x) == eval_polynomial_factored(P, f, r, x)


def flip_preimage(P, f, a):
    """Ids of edges e in E with flip_edge(e) == a (the empty tuple if none)."""
    ids = []
    i = P.graph.edge_index.get(a)
    if i is not None and f[i] == 0:
        ids.append(i)
    j = P.graph.edge_index.get(reverse_edge(a))
    if j is not None and f[j] == 1:
        ids.append(j)
    return tuple(ids)


def test_flip_preimage_weight_identity():
    # edgewise identity: the sum of preimage factors equals the mapped value
    rng = random.Random(1002)
    P = triangle()
    x = random_interior_point(P, rng)
    seen_cases = set()
    idx = P.graph.edge_index
    num, den = _over_common_denominator(x)
    at = {v: i for i, v in enumerate(P.graph.incident_nodes)}
    for f in enumerate_vertices(P):
        (L,) = _image_laplacians(P, [f], num, den)  # M_f(x)'s weight on (u, v) is -L[u, v] / den
        for e in P.edges:
            ids = flip_preimage(P, f, e)
            total = Fraction(0)
            for i in ids:
                xi = Fraction(x[i])
                total += (1 - xi) if f[i] else xi
            value = Fraction(-L[at[e[0]], at[e[1]]], den)
            assert total == value
            case = (f[idx[e]], f[idx[(e[1], e[0])]])
            seen_cases.add(case)
            if case == (1, 0):
                # the flip maps nothing onto such an edge
                assert ids == () and value == 0
    # all four (f_e, f_rev) preimage cases appear on the full triangle
    assert seen_cases == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_root_independence():
    assert check_root_independence(two_node(), X2)
    rng = random.Random(1003)
    for _ in range(5):
        x = random_interior_point(triangle(), rng)
        assert check_root_independence(triangle(), x)


def test_root_independence_negative_control():
    # an unbalanced point breaks the identity the checker relies on
    P = two_node()
    bad = (THIRD, Fraction(2, 5))
    assert not check_root_independence(P, bad)


def test_zls_rejects_a_polytope_with_no_vertex():
    # One edge cannot carry the demand 2: no vertex, so no first vertex to take cofactors of.
    from flowfactory import FlowPolytope, Graph

    P = FlowPolytope(Graph(2, ((1, 2),)), (2, -2))
    assert enumerate_vertices(P) == []
    with pytest.raises(InvalidInstance, match="polytope has no vertex"):
        check_zls(P, (Fraction(1, 2),))


def test_zls_and_factored_form_reject_an_unbalanced_point():
    P = two_node()
    assert check_zls(P, X2)
    bad = (THIRD, Fraction(2, 5))
    with pytest.raises(NotCirculation):
        check_zls(P, bad)
    with pytest.raises(NotCirculation):
        eval_polynomial_factored(P, (0, 0), 1, bad)


def test_marginal_identity():
    assert check_marginal_identity(two_node(), X2)
    assert check_marginal_identity(build_matching_polytope(2), (Fraction(1, 2),) * 4)
    rng = random.Random(1004)
    for _ in range(5):
        x = random_interior_point(triangle(), rng)
        assert check_marginal_identity(triangle(), x)


def test_positivity():
    assert check_positivity(two_node(), X2)
    assert not check_positivity(disconnected_pair(), (THIRD,) * 4)


def test_exact_output_distribution_two_node():
    dist = exact_output_distribution(two_node(), X2)
    assert dist.probabilities == {(0, 0): Fraction(2, 3), (1, 1): Fraction(1, 3)}
    assert dist.marginal(0) == THIRD
    assert dist.marginal(1) == THIRD


def test_exact_output_distribution_matching_barycenter():
    P = build_matching_polytope(2)
    dist = exact_output_distribution(P, (Fraction(1, 2),) * 4)
    assert sorted(dist.probabilities.values()) == [Fraction(1, 2), Fraction(1, 2)]


def test_exact_output_distribution_degenerate():
    with pytest.raises(DegenerateDistribution):
        exact_output_distribution(disconnected_pair(), (THIRD,) * 4)


def test_distribution_sums_to_one():
    rng = random.Random(1005)
    for P in [triangle(), build_kflow_polytope(4, 2)]:
        x = random_interior_point(P, rng)
        dist = exact_output_distribution(P, x)
        assert sum(dist.probabilities.values(), Fraction(0)) == 1
        for i in range(len(P.edges)):
            assert dist.marginal(i) == x[i]


def test_flip_arb_exists_at_every_root():
    # the sampler needs a qualifying tree for every vertex at whatever root it uses
    def at_every_root(P, f):
        return all(qualifying_tree_count(P, f, r) > 0 for r in P.graph.incident_nodes)

    P = triangle()
    for f in enumerate_vertices(P):
        assert at_every_root(P, f)
    from flowfactory import FlowPolytope, Graph

    cyc = FlowPolytope(Graph(3, ((1, 2), (2, 3), (3, 1))), (0, 0, 0))
    assert at_every_root(cyc, (0, 0, 0))
    path = FlowPolytope(Graph(3, ((1, 2), (2, 3))), (0, 0, 0))
    assert not at_every_root(path, (0, 0))


def test_check_parallel_to_circ():
    assert check_parallel_to_circ(triangle())
    assert check_parallel_to_circ(build_matching_polytope(2))
    assert check_parallel_to_circ(build_kflow_polytope(4, 2))


@pytest.mark.parametrize("build", [triangle, square, lambda: build_kflow_polytope(4, 2)],
                         ids=["triangle", "square", "kflow4_2"])
def test_check_parallel_to_circ_fails_on_an_off_balance_vertex(build, monkeypatch):
    # One 0/1 vector that meets no demand, among the vertices, makes its
    # difference with the first vertex unbalanced.
    from flowfactory import oracle

    P = build()
    honest = oracle.enumerate_vertices
    off = (1,) + (0,) * (len(P.edges) - 1)  # one edge alone is unbalanced at its ends
    monkeypatch.setattr(oracle, "enumerate_vertices", lambda P: honest(P) + [off])
    assert not check_parallel_to_circ(P)


def test_bijection_triangle_all_pairs():
    P = triangle()
    for tree in enumerate_directed_trees(P.graph):
        for eta in range(len(P.edges)):
            if eta in tree:
                continue
            w = check_bijection(P, tree, eta)
            assert len(w.F_s) == len(w.F_t)
            assert w.g[eta] == 1


def test_bijection_six_node_geometry():
    P, tree, eta = six_node_exchange()
    w = check_bijection(P, tree, eta)
    idx = P.graph.edge_index
    # hand-derived exchange vector for this layout
    assert w.g[idx[(1, 6)]] == 1
    assert w.g[idx[(4, 3)]] == 1
    assert w.g[idx[(1, 3)]] == -1
    assert w.g[idx[(4, 6)]] == -1
    assert all(w.g[i] == 0 for i in range(8) if i not in {idx[(1, 6)], idx[(4, 3)], idx[(1, 3)], idx[(4, 6)]})
    # the pentagon flow roots the tree at node 1 and maps to its partner
    f = [0] * 8
    for e in [(1, 3), (3, 2), (2, 4), (4, 6), (6, 1)]:
        f[idx[e]] = 1
    f = tuple(f)
    assert f in w.F_s
    fp = tuple(f[i] + w.g[i] for i in range(8))
    assert fp in w.F_t


def test_bijection_eta_inside_tree_rejected():
    P = triangle()
    tree = enumerate_directed_trees(P.graph)[0]
    with pytest.raises(InvalidInstance):
        check_bijection(P, tree, tree[0])


@pytest.mark.parametrize("eta", [99, -1])
def test_bijection_rejects_an_eta_off_the_edge_ids(eta):
    P = build_circulation_polytope(4)
    tree = enumerate_directed_trees(P.graph)[0]
    with pytest.raises(InvalidInstance, match=rf"eta {eta} is no edge id in 0\.\.11"):
        check_bijection(P, tree, eta)


@pytest.mark.parametrize("tree", [(0, 1), (0, 1, -10), (0, 1, 99), (1, 2, 6), (0, 0, 2)])
def test_bijection_rejects_a_tree_that_spans_no_tree(tree):
    # On circ4 with eta = (2,1): a tree that misses node 4, ids off the edge
    # ids, the antiparallel pair (1,3), (3,1), and a repeated id.
    P = build_circulation_polytope(4)
    with pytest.raises(InvalidInstance, match="is no spanning tree of the incident nodes"):
        check_bijection(P, tree, 3)


def test_bijection_sees_an_unbalanced_exchange_vector_at_either_end(monkeypatch):
    # Flipping one tree edge's bit in the pattern toward s moves g by one on
    # that edge, which unbalances both of its ends: the balance test must
    # catch it for every pair and every tree edge.
    P = triangle()
    honest = _Orientations.orientation
    for tree in enumerate_directed_trees(P.graph):
        for eta in (i for i in range(len(P.edges)) if i not in tree):
            s = P.edges[eta][0]
            for i in tree:
                def perturbed(self, t, r, i=i, s=s):
                    pattern, positions = honest(self, t, r)
                    return pattern ^ (1 << i if r == s else 0), positions

                monkeypatch.setattr(_Orientations, "orientation", perturbed)
                with pytest.raises(IdentityViolated, match="exchange vector is not balanced"):
                    check_bijection(P, tree, eta)


@settings(max_examples=60, deadline=None)
@given(interior_instances(), st.data())
def test_bijection_families_match_brute_force_on_random_instances(case, data):
    # F_s and F_t, in vertex order, against a fresh flip of the tree under
    # every vertex, filtered on the bit at eta.
    P, _ = case
    tree = data.draw(st.sampled_from(enumerate_directed_trees(P.graph)))
    outside = [i for i in range(len(P.edges)) if i not in tree]
    assume(outside)
    eta = data.draw(st.sampled_from(outside))
    w = check_bijection(P, tree, eta)

    def family(root, bit):
        return tuple(f for f in enumerate_vertices(P)
                     if f[eta] == bit and is_arborescence(flip_tree(P.graph, f, tree), root))

    s, t = P.edges[eta]
    assert w.F_s == family(s, 0)
    assert w.F_t == family(t, 1)
    assert sorted(tuple(map(add, f, w.g)) for f in w.F_s) == sorted(w.F_t)


@settings(max_examples=60, deadline=None)
@given(interior_instances(), st.data())
def test_exchange_vector_matches_brute_force_on_random_instances(case, data):
    # g against a reference from tree distances: +1 on eta, and on each tree
    # edge that only the orientation toward t reverses; -1 on each that only
    # the orientation toward s reverses.
    P, _ = case
    tree = data.draw(st.sampled_from(enumerate_directed_trees(P.graph)))
    outside = [i for i in range(len(P.edges)) if i not in tree]
    assume(outside)
    eta = data.draw(st.sampled_from(outside))

    def reversed_toward(root):
        # Tree edge (u, v) points toward root iff v is nearer root than u.
        dist, frontier = {root: 0}, [root]
        while frontier:
            w = frontier.pop()
            for i in tree:
                for a, b in (P.edges[i], P.edges[i][::-1]):
                    if a == w and b not in dist:
                        dist[b] = dist[w] + 1
                        frontier.append(b)
        return {i for i in tree if dist[P.edges[i][1]] > dist[P.edges[i][0]]}

    s, t = P.edges[eta]
    toward_s, toward_t = reversed_toward(s), reversed_toward(t)
    expected = [0] * len(P.edges)
    expected[eta] = 1
    for i in toward_t - toward_s:
        expected[i] = 1
    for i in toward_s - toward_t:
        expected[i] = -1
    assert check_bijection(P, tree, eta).g == tuple(expected)


def test_statistical_test_self_consistency():
    # drawing from the exact law must pass its own test
    P = two_node()
    dist = exact_output_distribution(P, X2)
    rng = random.Random(1006)
    flows = sorted(dist.probabilities)
    weights = [float(dist.probabilities[f]) for f in flows]
    samples = rng.choices(flows, weights=weights, k=20000)
    rep = statistical_test(P, X2, 1, samples)
    assert rep.passed


def test_statistical_test_negative_control():
    # a sampler stuck on the empty flow must fail
    P = two_node()
    samples = [(0, 0)] * 20000
    rep = statistical_test(P, X2, 1, samples)
    assert not rep.passed


def test_statistical_test_requires_samples():
    with pytest.raises(InvalidInstance):
        statistical_test(two_node(), X2, 1, [])


@pytest.mark.parametrize("sample", [(1, 0), (0, 1), (0, 0, 0), (2, 2)])
def test_statistical_test_rejects_a_sampled_non_vertex(sample):
    import re

    samples = [(0, 0), (1, 1), sample, (0, 0)]
    with pytest.raises(InvalidInstance, match=rf"sampled {re.escape(str(sample))} has zero exact probability"):
        statistical_test(two_node(), X2, 1, samples)


def test_statistical_test_reads_list_samples_as_tuples():
    # A list sample once raised a bare TypeError (unhashable type: 'list').
    samples = [(0, 0), (1, 1), (1, 1), (0, 0)] * 25
    assert statistical_test(two_node(), X2, 1, [list(f) for f in samples]) == statistical_test(
        two_node(), X2, 1, samples)
    with pytest.raises(InvalidInstance, match=r"sampled \[1, 0\] has zero exact probability"):
        statistical_test(two_node(), X2, 1, [[1, 0]])


@pytest.mark.parametrize("significance", [0, 0.0, 1.0, 2.0, 13.0, -0.5, float("nan")])
def test_statistical_test_rejects_a_significance_outside_0_1(significance):
    # 0 divided by zero, 13.0 and -0.5 took a square root of a negative
    # number, and 1.0, 2.0 or NaN gave a report that could never pass.
    with pytest.raises(InvalidInstance, match="significance must lie strictly between 0 and 1"):
        statistical_test(triangle(), (THIRD,) * 6, 1, [(0,) * 6] * 10, significance)


def test_random_interior_point_validity():
    rng = random.Random(1007)
    for P in [two_node(), triangle(), build_matching_polytope(2), build_kflow_polytope(4, 2)]:
        for _ in range(5):
            x = random_interior_point(P, rng)
            assert all(0 < c < 1 for c in x)


@pytest.mark.parametrize("edges, demands", [
    (((1, 2), (2, 1), (2, 3)), (0, 0, 0)),  # no vertex uses (2, 3): nothing flows back from 3
    (((1, 2), (2, 3), (3, 4), (2, 4)), (1, 0, 0, -1)),  # every vertex uses (1, 2), node 1's one edge
], ids=["edge-never-used", "edge-always-used"])
def test_random_interior_point_rejects_a_fixed_coordinate(edges, demands):
    # Two vertices or more, but an edge is 0 (or 1) at all of them: every
    # combination touches the boundary, so the draw gives up.
    from flowfactory import FlowPolytope, Graph

    P = FlowPolytope(Graph(len(demands), edges), demands)
    assert len(enumerate_vertices(P)) == 2
    with pytest.raises(InvalidInstance, match="could not find an interior combination"):
        random_interior_point(P, random.Random(0))


def test_square_flow_qualifying_trees_frozen():
    # square instance: 32 directed trees, 8 qualify for the cycle flow
    P = square()
    f = square_cycle_flow(P)
    trees = enumerate_directed_trees(P.graph)
    assert len(trees) == 32
    qual = [t for t in trees if is_arborescence(flip_tree(P.graph, f, t), 1)]
    assert len(qual) == 8
    table = _orientations(P)
    j = table.vertices.index(f)
    assert [t for t in trees if j in table.orientation(t, 1)[1]] == qual
    assert qualifying_counts(P, 1)[j] == 8


@settings(max_examples=60, deadline=None)
@given(interior_instances())
def test_exact_marginals_equal_x_on_random_instances(case):
    P, x = case
    for root in P.graph.incident_nodes:
        dist = exact_output_distribution(P, x, root)
        assert [dist.marginal(i) for i in range(len(P.edges))] == list(x), root


@settings(max_examples=60, deadline=None)
@given(interior_instances())
def test_factored_form_equals_tree_sum_on_random_instances(case):
    P, x = case
    for f in enumerate_vertices(P):
        for root in P.graph.incident_nodes:
            assert eval_polynomial(P, f, root, x) == eval_polynomial_factored(P, f, root, x), (f, root)


@pytest.mark.parametrize("read", [
    qualifying_tree_count,
    lambda P, f, root: qualifying_counts(P, root),
    lambda P, f, root: eval_polynomial(P, f, root, (Fraction(1, 2),) * 12),
    lambda P, f, root: eval_polynomial_factored(P, f, root, (Fraction(1, 2),) * 12),
    lambda P, f, root: ExitTables(P, root),
], ids=["qualifying_tree_count", "qualifying_counts", "eval_polynomial", "eval_polynomial_factored",
        "ExitTables"])
def test_one_message_for_a_root_off_the_graph(read):
    P = build_circulation_polytope(4)
    with pytest.raises(InvalidInstance, match="^root 99 touches no variable edge$"):
        read(P, enumerate_vertices(P)[0], 99)


@pytest.mark.parametrize("read", [
    lambda P, f: eval_polynomial(P, f, 1, (Fraction(1, 2),) * 6),
    lambda P, f: eval_polynomial_factored(P, f, 1, (Fraction(1, 2),) * 6),
], ids=["eval_polynomial", "eval_polynomial_factored"])
def test_oracle_rejects_an_f_that_is_no_edge_bit_vector(read):
    # Of the right length but no 0/1 vector: no value is read for it.
    P = triangle()
    for bad in [(2,) * 6, (1, 0, 0, 1, -1, 1)]:
        with pytest.raises(InvalidInstance, match="vertex coordinates must be 0 or 1"):
            read(P, bad)


@settings(max_examples=60, deadline=None)
@given(interior_instances())
def test_qualifying_trees_match_brute_force_on_random_instances(case):
    # At every root, the trees whose entry lists a vertex against a fresh flip
    # of every tree, and their count against the determinant.  A 0/1 vector
    # that is no vertex (a vertex with bit 0 flipped unbalances that edge's
    # ends) has no polynomial value.
    P, x = case
    table = _orientations(P)
    off = (1 - table.vertices[0][0],) + table.vertices[0][1:]
    for root in P.graph.incident_nodes:
        counts = qualifying_counts(P, root)
        for j, f in enumerate(table.vertices):
            expected = [t for t in table.trees if is_arborescence(flip_tree(P.graph, f, t), root)]
            assert [t for t in table.trees if j in table.orientation(t, root)[1]] == expected, (f, root)
            assert counts[j] == len(expected) == qualifying_tree_count(P, f, root), (f, root)
        with pytest.raises(InvalidInstance, match="is no vertex of the polytope"):
            eval_polynomial(P, off, root, x)
