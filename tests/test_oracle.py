import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flowfactory import (
    DegenerateDistribution,
    IdentityViolated,
    InvalidInstance,
    build_circulation_polytope,
    build_kflow_polytope,
    build_matching_polytope,
    check_bijection,
    check_marginal_identity,
    check_parallel_to_circ,
    check_positivity,
    check_root_independence,
    enumerate_directed_trees,
    enumerate_vertices,
    eval_polynomial,
    eval_polynomial_factored,
    exact_output_distribution,
    random_interior_point,
    statistical_test,
)
from flowfactory.graphs import flip_tree, m_map, reverse_edge
from flowfactory.oracle import polynomial_values, qualifying_trees
from flowfactory.spanning import is_arborescence, qualifying_tree_count

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
def test_evaluators_reject_a_root_off_the_graph(evaluate):
    P = two_node()
    with pytest.raises(InvalidInstance, match="root 99 touches no variable edge"):
        evaluate(P, (0, 0), 99, X2)


@pytest.mark.parametrize("evaluate", [eval_polynomial, eval_polynomial_factored])
def test_evaluators_reject_inputs_of_the_wrong_length(evaluate):
    P = triangle()
    f = enumerate_vertices(P)[1]
    x = (THIRD,) * 6
    for bad_f, bad_x in [(f[:-1], x), (f + (1, 1), x), (f, x[:-1]), (f, x + (THIRD,))]:
        with pytest.raises(InvalidInstance, match="expected 6 edge bits and coordinates"):
            evaluate(P, bad_f, 1, bad_x)


def test_polynomial_values_is_a_read_only_table_of_eval_polynomial():
    P = triangle()
    x = (THIRD,) * 6
    for root in P.graph.incident_nodes:
        table = polynomial_values(P, x, root)
        assert list(table) == enumerate_vertices(P)
        assert all(v == eval_polynomial(P, f, root, x) for f, v in table.items())
        with pytest.raises(TypeError):
            table[next(iter(table))] = Fraction(0)


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
    for f in enumerate_vertices(P):
        vec = m_map(P, f, x)
        for e in P.edges:
            ids = flip_preimage(P, f, e)
            total = Fraction(0)
            for i in ids:
                xi = Fraction(x[i])
                total += (1 - xi) if f[i] else xi
            assert total == vec.value(e)
            case = (f[idx[e]], f[idx[(e[1], e[0])]])
            seen_cases.add(case)
            if case == (1, 0):
                # the flip maps nothing onto such an edge
                assert ids == () and vec.value(e) == 0
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


def test_random_interior_point_validity():
    rng = random.Random(1007)
    for P in [two_node(), triangle(), build_matching_polytope(2), build_kflow_polytope(4, 2)]:
        for _ in range(5):
            x = random_interior_point(P, rng)
            assert all(0 < c < 1 for c in x)


def test_square_flow_qualifying_trees_frozen():
    # square instance: 32 directed trees, 8 qualify for the cycle flow
    P = square()
    f = square_cycle_flow(P)
    trees = enumerate_directed_trees(P.graph)
    assert len(trees) == 32
    qual = [t for t in trees if is_arborescence(flip_tree(P.graph, f, t), 1)]
    assert len(qual) == 8
    assert qualifying_trees(P, f, 1) == qual


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


def test_qualifying_trees_reject_a_root_off_the_graph():
    P = build_circulation_polytope(4)
    with pytest.raises(InvalidInstance, match="root 99 touches no variable edge"):
        qualifying_trees(P, enumerate_vertices(P)[0], 99)


def test_qualifying_trees_reject_an_f_of_the_wrong_length():
    P = build_circulation_polytope(4)
    f = enumerate_vertices(P)[1]
    for bad in (f[:-1], f + (1, 1)):
        with pytest.raises(InvalidInstance, match=f"expected 12 edge bits and coordinates, got {len(bad)}$"):
            qualifying_trees(P, bad, 1)


@settings(max_examples=60, deadline=None)
@given(interior_instances())
def test_qualifying_trees_match_brute_force_on_random_instances(case):
    # Every vertex, and one 0/1 vector that is none (a vertex with bit 0
    # flipped unbalances that edge's ends), against a fresh flip of every tree.
    P, _ = case
    trees = enumerate_directed_trees(P.graph)
    vertices = enumerate_vertices(P)
    off = (1 - vertices[0][0],) + vertices[0][1:]
    for f in [*vertices, off]:
        for root in P.graph.incident_nodes:
            expected = [t for t in trees if is_arborescence(flip_tree(P.graph, f, t), root)]
            assert qualifying_trees(P, f, root) == expected, (f, root)
            assert len(expected) == qualifying_tree_count(P, f, root), (f, root)
