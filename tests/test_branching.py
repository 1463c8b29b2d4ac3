import math

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from gclab.branching import (
    MAX_BALL_RADIUS,
    MAX_COMPONENT_SIZE,
    critical_percolation,
    limit_probability,
    rho,
    rho_k_table,
    solve_x_plus,
)
from gclab.census import (
    ComponentSizeAtLeast,
    ComponentSizeExactly,
    Conjunction,
    MaxDegreeBall,
    RootDegree,
    components,
)
from gclab.distributions import Distribution, mean, offspring, supercriticality, thin
from gclab.errors import DegenerateDistribution, NoThreshold, SpecParseError
from gclab.labcli import parse_property_spec

import helpers
from helpers import (
    enumerate_tree_size_probs,
    neighborhood,
    random_distribution,
    rho_k_recursion_oracle,
    sample_tree_forest,
    sample_tree_sizes,
    survival_oracle,
    survival_oracle_exact,
    tree_property_probability,
)


# ---------------------------------------------------------------------------
# survival fixed point


def test_x_plus_regular3(regular3):
    sol = solve_x_plus(regular3)
    assert sol.x_plus == pytest.approx(1.0, abs=1e-12)
    assert sol.rho == pytest.approx(1.0, abs=1e-12)
    assert sol.residual <= 1e-12


def test_x_plus_mixture(mixture):
    # Hand quadratic: extinction 3y^2 - 4y + 1 = 0 gives y = 1/3.
    sol = solve_x_plus(mixture)
    assert sol.x_plus == pytest.approx(2 / 3, abs=1e-10)
    assert sol.rho == pytest.approx(22 / 27, abs=1e-10)


def test_x_plus_critical_boundary(critical_mix):
    # Double root at y = 1: E[Z] = 1 exactly, so the solver answers
    # extinction without iterating and x_plus = rho = 0 exactly.
    sol = solve_x_plus(critical_mix)
    assert sol.x_plus == 0.0
    assert sol.rho == 0.0
    assert sol.residual <= 1e-10
    assert sol.converged


def test_x_plus_fixed_point_defect_bounded_by_residual(mixture, regular3, rng):
    dists = [mixture, regular3] + [
        random_distribution(rng, require_degree3=True, criticality_margin=1e-3)
        for _ in range(10)
    ]
    for d in dists:
        sol = solve_x_plus(d)
        z = offspring(d)
        y = 1.0 - sol.x_plus
        defect = abs((1.0 - float(np.dot(z.probs, y ** z.support.astype(float)))) - sol.x_plus)
        assert defect <= sol.residual + 1e-15


def test_x_plus_matches_root_finding_oracle(rng):
    for _ in range(25):
        d = random_distribution(rng, require_degree3=True, criticality_margin=1e-2)
        want_x, want_rho = survival_oracle(d)
        sol = solve_x_plus(d)
        assert sol.x_plus == pytest.approx(want_x, abs=1e-7)
        assert sol.rho == pytest.approx(want_rho, abs=1e-7)


def test_solver_refuses_degenerate_laws(all_twos, matching_law):
    # Only Z = 1 surely, D on {0, 2}, has no limit; sure extinction (E[Z] < 1
    # on {0, 1, 2} with mass on 1, or no edges at all) is exactly 0.
    with pytest.raises(DegenerateDistribution):
        solve_x_plus(all_twos)
    with pytest.raises(DegenerateDistribution):
        solve_x_plus(Distribution([(0, 0.5), (2, 0.5)]))
    for law in (matching_law, Distribution([(0, 1.0)])):
        sol = solve_x_plus(law)
        assert (sol.x_plus, sol.rho, sol.iterations, sol.converged) == (0.0, 0.0, 0, True)
        assert all(share == 0.0 and math.copysign(1.0, share) == 1.0 for share in sol.giant_shares.values())


def test_rho_values(mixture, critical_mix, regular3):
    assert rho(regular3) == pytest.approx(1.0, abs=1e-12)
    assert rho(mixture) == pytest.approx(22 / 27, abs=1e-10)
    assert rho(critical_mix) == 0.0


def test_rho_near_criticality_matches_closed_form(regular3):
    # thin(reg3, p) has extinction y = ((1-p)/p)^2 for p > 1/2; the root
    # approaches the double root at y = 1 as p -> p_c = 1/2.
    for k in range(1, 7):
        p = 0.5 + 10.0**-k
        y = ((1.0 - p) / p) ** 2
        want = 1.0 - (1.0 - p + p * y) ** 3
        sol = solve_x_plus(thin(regular3, p))
        assert abs(sol.rho - want) <= 1e-10
        assert sol.iterations <= 64


def test_rho_relative_accuracy_at_the_edge_of_criticality(regular3):
    # Same closed form, written without cancellation: with e = p - 1/2
    # (exact in floats) and u = 1 - (1-p)/p = 4e/(1+2e), rho = u(3 - 3u + u^2).
    for k in range(7, 12):
        p = 0.5 + 10.0**-k
        u = 4.0 * (p - 0.5) / (1.0 + 2.0 * (p - 0.5))
        want = u * (3.0 - 3.0 * u + u * u)
        sol = solve_x_plus(thin(regular3, p))
        assert abs(sol.rho - want) <= 1e-6 * want
        assert sol.converged


def test_near_critical_solves_match_exact_rational_oracle(mixture, regular3, rng):
    # Against the root of each stored law in exact rationals, the relative
    # error stays at float rounding however close the law is to criticality.
    laws = [mixture, regular3] + [
        random_distribution(rng, max_value=6, require_degree3=True, criticality_margin=1e-2)
        for _ in range(3)
    ]
    for base in laws:
        p_c = critical_percolation(base)
        for k in range(3, 13):
            p = p_c * (1.0 + 10.0**-k)
            if p > 1.0:
                continue
            law = thin(base, p)
            want_x, want_rho = survival_oracle_exact(law)
            sol = solve_x_plus(law)
            assert sol.converged
            assert abs(sol.x_plus - want_x) <= 1e-12 * want_x
            assert abs(sol.rho - want_rho) <= 1e-12 * want_rho


def test_solver_converges_on_high_degree_laws():
    # One rare huge degree puts the root far from x = 0, where the form of
    # k built on 1 - E[Z] cancels against sums of size E[Z].
    for q in (0.5, 0.1, 0.01, 0.002):
        for top in (10, 1_000, 10_000, 100_000):
            sol = solve_x_plus(Distribution([(1, 1.0 - q), (top, q)]))
            assert sol.converged
            assert sol.iterations <= 20
            assert sol.residual <= 1e-12


def test_subcritical_thinned_laws_give_exactly_zero(mixture, regular3, rng):
    laws = [mixture, regular3] + [
        random_distribution(rng, require_degree3=True, criticality_margin=1e-2)
        for _ in range(10)
    ]
    subcritical = 0
    for d in laws:
        p_c = critical_percolation(d)
        for p in np.linspace(0.05, 1.0, 20):
            sol = solve_x_plus(thin(d, p))
            assert sol.iterations <= 64
            assert sol.converged
            if p < p_c:
                subcritical += 1
                assert sol.x_plus == 0.0
                assert sol.rho == 0.0
    assert subcritical >= 20


@given(
    st.dictionaries(
        st.integers(0, 8), st.floats(0.01, 1.0), min_size=2, max_size=5
    ).filter(lambda atoms: max(atoms) >= 3)
)
def test_x_plus_matches_root_finding_oracle_property(atoms):
    total = sum(atoms.values())
    d = Distribution([(v, w / total) for v, w in atoms.items()])
    assume(abs(supercriticality(d)) >= 1e-2)
    want_x, want_rho = survival_oracle(d)
    sol = solve_x_plus(d)
    assert sol.x_plus == pytest.approx(want_x, abs=1e-7)
    assert sol.rho == pytest.approx(want_rho, abs=1e-7)
    assert sol.converged


# ---------------------------------------------------------------------------
# small-tree table


def test_rho_k_forced_matching(matching_law):
    table = rho_k_table(matching_law, 8)
    expected = np.zeros(8)
    expected[1] = 1.0
    np.testing.assert_allclose(table.rho_k, expected, atol=1e-15)


def test_rho_k_all_infinite(regular3):
    table = rho_k_table(regular3, 30)
    np.testing.assert_allclose(table.rho_k, np.zeros(30), atol=1e-15)
    assert table.tail == pytest.approx(1.0)


def test_rho_k_mixture_hand_values(mixture):
    table = rho_k_table(mixture, 6)
    assert table.rho_k[0] == 0.0
    assert table.rho_k[1] == pytest.approx(1 / 8, abs=1e-15)
    np.testing.assert_allclose(table.rho_k, enumerate_tree_size_probs(mixture, 6), atol=1e-12)


def test_rho_k_matches_enumeration_oracle(rng):
    # The last two laws have support beyond k_max, so their offspring
    # series is cut short.
    dists = [random_distribution(rng, max_value=5, max_atoms=4) for _ in range(10)] + [
        Distribution([(1, 0.5), (10**4, 0.5)]),
        Distribution([(0, 0.2), (1, 0.3), (8, 0.5)]),
    ]
    for d in dists:
        want = enumerate_tree_size_probs(d, 6)
        got = rho_k_table(d, 6).rho_k
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_rho_k_invariants(rng, mixture):
    dists = [mixture] + [random_distribution(rng) for _ in range(10)]
    for d in dists:
        table = rho_k_table(d, 50)
        np.testing.assert_allclose(table.rho_k, rho_k_recursion_oracle(d, 50), rtol=1e-13, atol=0.0)
        assert ((0.0 <= table.rho_k) & (table.rho_k <= 1.0)).all()
        assert table.rho_k.sum() <= 1.0 + 1e-9
        assert table.rho_k.sum() + table.tail == pytest.approx(1.0, abs=1e-9)


def test_rho_k_plus_rho_is_a_probability(rng):
    # Finite sizes plus survival never exceed total mass.
    for _ in range(10):
        d = random_distribution(rng, require_degree3=True, criticality_margin=1e-3)
        table = rho_k_table(d, 60)
        assert table.rho_k.sum() + rho(d) <= 1.0 + 1e-9


def test_rho_k_tail_nearly_exhausted_at_200(mixture, regular3, matching_law, rng):
    # Away from criticality the finite-size mass decays geometrically, so
    # 200 terms leave under 5% unaccounted beyond the survival mass.
    corpus = [mixture, regular3, matching_law] + [
        random_distribution(rng, require_degree3=True, criticality_margin=0.2)
        for _ in range(5)
    ]
    for d in corpus:
        table = rho_k_table(d, 200)
        assert table.tail - rho(d) < 0.05


# ---------------------------------------------------------------------------
# percolation threshold


def test_critical_percolation_values(mixture, regular3, all_twos):
    assert critical_percolation(regular3) == 0.5  # exact: 1/(d-1) for d = 3
    assert critical_percolation(mixture) == pytest.approx(2 / 3, abs=1e-15)
    assert critical_percolation(all_twos) == pytest.approx(1.0, abs=1e-15)


def test_critical_percolation_no_threshold(matching_law):
    with pytest.raises(NoThreshold):
        critical_percolation(Distribution([(0, 0.5), (1, 0.5)]))
    with pytest.raises(NoThreshold):
        critical_percolation(matching_law)


def test_threshold_is_unit_mean_offspring_point(rng, mixture, regular3):
    # p_c is the unique p with E(offspring(thin(D, p))) = 1; locate that
    # point by bisection and compare.
    for d in [mixture, regular3] + [
        random_distribution(rng, require_degree3=True, criticality_margin=1e-2)
        for _ in range(5)
    ]:
        target = critical_percolation(d)
        if not (0.0 < target < 1.0):
            continue
        lo, hi = 1e-9, 1.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if mean(offspring(thin(d, mid))) < 1.0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - target) <= 1e-9


# ---------------------------------------------------------------------------
# tree samplers


def test_sample_tree_size_forced(matching_law, rng):
    sizes = sample_tree_sizes(matching_law, 50, rng, cap=100)
    assert (sizes == 2).all()


def test_sample_tree_size_always_exceeds(regular3, rng):
    sizes = sample_tree_sizes(regular3, 20, rng, cap=10_000)
    assert (sizes > 10_000).all()


def test_sample_tree_sizes_matches_table(mixture):
    rng = np.random.default_rng(1)
    n = 100_000
    sizes = sample_tree_sizes(mixture, n, rng, cap=100)
    assert float((sizes == 2).mean()) == pytest.approx(1 / 8, abs=0.004)
    table = rho_k_table(mixture, 20)
    for k in range(1, 21):
        p_k = table.rho_k[k - 1]
        se = np.sqrt(p_k * (1 - p_k) / n)
        assert abs(float((sizes == k).mean()) - p_k) <= 4 * se


def test_sample_tree_sizes_deterministic(mixture):
    a = sample_tree_sizes(mixture, 1000, np.random.default_rng(5), cap=50)
    b = sample_tree_sizes(mixture, 1000, np.random.default_rng(5), cap=50)
    np.testing.assert_array_equal(a, b)


def _is_tree(graph):
    loops = graph.edges[:, 0] == graph.edges[:, 1]
    return graph.num_edges == graph.n - 1 and not loops.any() and components(graph).largest == graph.n


def test_truncated_tree_depth_zero(mixture, rng):
    tree = sample_tree_forest(mixture, 1, rng, 0)
    assert tree.n == 1
    assert tree.edges.shape == (0, 2)
    assert _is_tree(tree)


def test_truncated_tree_regular_depth_two(regular3, rng):
    # Deterministic counts: 1 root + 3 children + 6 grandchildren.
    for _ in range(5):
        tree = sample_tree_forest(regular3, 1, rng, 2)
        assert tree.n == 10
        assert tree.edges.shape[0] == 9
        assert _is_tree(tree)
        assert int(neighborhood(tree, 0, 10).distances.max()) == 2
    forest = sample_tree_forest(regular3, 5, rng, 2)
    assert forest.n == 50 and forest.num_edges == 45
    assert (components(forest).sizes == 10).all()
    np.testing.assert_array_equal(forest.degrees()[:5], 3)


def test_truncated_tree_isolated_root(rng):
    # A zero-mean law has no offspring law; the sampler must not ask for it.
    lonely = Distribution([(0, 1.0)])
    tree = sample_tree_forest(lonely, 1, rng, 3)
    assert tree.n == 1 and tree.edges.shape[0] == 0
    forest = sample_tree_forest(lonely, 4, rng, 3)
    assert forest.n == 4 and forest.num_edges == 0


def test_forest_levels_follow_the_laws(mixture):
    # Roots draw from D, every later vertex from Z: degree 1 + Z off the root.
    rng = np.random.default_rng(11)
    n_trees = 20_000
    forest = sample_tree_forest(mixture, n_trees, rng, 2)
    degrees = forest.degrees()
    roots, level1 = degrees[:n_trees], degrees[n_trees : n_trees + int(degrees[:n_trees].sum())]
    assert set(np.unique(roots).tolist()) <= {1, 3}
    assert abs(float((roots == 3).mean()) - 0.5) <= 4 * np.sqrt(0.25 / n_trees)
    z = offspring(mixture)  # Z = 2 w.p. 3/4, else 0
    assert set(np.unique(level1 - 1).tolist()) <= set(z.support.tolist())
    share = float((level1 == 3).mean())
    assert abs(share - 0.75) <= 4 * np.sqrt(0.75 * 0.25 / level1.size)


# ---------------------------------------------------------------------------
# tree property probabilities


def test_tree_probability_certain_events(regular3, rng):
    est, hw = tree_property_probability(regular3, RootDegree(3), 200, rng)
    assert est == 1.0 and hw == 0.0
    est, hw = tree_property_probability(regular3, MaxDegreeBall(3, 1), 200, rng)
    assert est == 1.0


def test_tree_probability_size_two_matches_table(mixture):
    rng = np.random.default_rng(77)
    est, hw = tree_property_probability(mixture, ComponentSizeExactly(2), 40_000, rng)
    assert abs(est - 1 / 8) <= hw + 0.005


def test_tree_probability_component_sizes_match_table(mixture):
    table = rho_k_table(mixture, 5)
    samples = 40_000
    for k in range(1, 6):
        rng = np.random.default_rng(100 + k)
        est, _ = tree_property_probability(mixture, ComponentSizeExactly(k), samples, rng)
        p_k = table.rho_k[k - 1]
        assert abs(est - p_k) <= 4 * np.sqrt(p_k * (1 - p_k) / samples)


def test_tree_probability_deterministic_per_seed(mixture):
    prop = MaxDegreeBall(3, 1)
    a = tree_property_probability(mixture, prop, 5_000, np.random.default_rng(3))
    b = tree_property_probability(mixture, prop, 5_000, np.random.default_rng(3))
    assert a == b


def test_tree_probability_splits_roots_into_forests(monkeypatch, mixture, matching_law, regular3, rng):
    # Radius 1 draws only the root counts, one uniform per root, so the
    # split into forests cannot change the estimate.
    whole = tree_property_probability(mixture, RootDegree(3), 999, np.random.default_rng(4))
    # A draw budget below one tree's size still puts one root in each forest
    # and counts every sample once.
    monkeypatch.setattr(helpers, "_DRAW_CHUNK", 1)
    assert tree_property_probability(mixture, RootDegree(3), 999, np.random.default_rng(4)) == whole
    assert tree_property_probability(matching_law, ComponentSizeExactly(2), 7, rng) == (1.0, 0.0)
    assert tree_property_probability(regular3, RootDegree(3), 5, rng) == (1.0, 0.0)
    monkeypatch.setattr(helpers, "_DRAW_CHUNK", 45)  # 4.5 trees of 10 vertices
    assert tree_property_probability(regular3, MaxDegreeBall(3, 1), 13, rng) == (1.0, 0.0)


# ---------------------------------------------------------------------------
# exact limit-tree probabilities


# A size window and one or two balls in every conjunction, perhaps a root
# degree too, so that degree caps and size windows always meet.
_CONJUNCTIONS = st.tuples(
    st.lists(st.builds(RootDegree, st.integers(1, 4)), max_size=1),
    st.builds(ComponentSizeExactly, st.integers(2, 5)) | st.builds(ComponentSizeAtLeast, st.integers(2, 5)),
    st.lists(st.builds(MaxDegreeBall, st.integers(2, 4), st.integers(0, 2)), min_size=1, max_size=2),
).map(lambda kinds: Conjunction(tuple(kinds[0] + [kinds[1]] + kinds[2])))

@given(
    st.lists(st.just(0.0) | st.floats(0.01, 1.0), min_size=4, max_size=4),
    _CONJUNCTIONS,
    st.integers(0, 2**32 - 1),
)
def test_limit_probability_matches_monte_carlo(weights, prop, seed):
    # Degree 1 keeps at least a fifth of the mass, so small trees are common.
    atoms = [(1, 1.0)] + list(zip((0, 2, 3, 4), weights))
    total = sum(w for _, w in atoms)
    law = Distribution([(v, w / total) for v, w in atoms])
    samples = 10_000
    exact = limit_probability(law, prop)
    estimate, _ = tree_property_probability(law, prop, samples, np.random.default_rng(seed))
    assert abs(estimate - exact) <= 4 * math.sqrt(exact * (1.0 - exact) / samples)


def test_limit_probability_pinned_values(mixture):
    law = Distribution([(1, 0.3), (2, 0.2), (4, 0.3), (6, 0.2)])
    # Monte Carlo at 400k samples: 0.06605 +- 0.00077.
    got = limit_probability(law, parse_property_spec("max_degree_ball:4,2&component_at_least:3"))
    assert got == pytest.approx(0.06598475623108624, rel=1e-14)
    # r_2 (q_0 + q_1)^2 with q_z = (z + 1) r_(z+1) / E(D).
    got = limit_probability(law, parse_property_spec("root_degree:2&max_degree_ball:2,1"))
    assert got == pytest.approx(0.2 * (0.7 / 3.1) ** 2, rel=1e-14)
    assert got == pytest.approx(0.01019771071800208, rel=1e-14)
    nested = Conjunction((Conjunction((RootDegree(2),)), Conjunction((MaxDegreeBall(2, 1), Conjunction(())))))
    assert limit_probability(law, nested) == got
    assert limit_probability(law, ComponentSizeExactly(5)) == rho_k_table(law, 5).rho_k[4]
    # Degrees 1 and 3 keep every ball within degree 3 and no root is alone:
    # exactly 1.0, also where the masses sum to 1 - 2^-53 in floats.
    spec = "max_degree_ball:3,2&component_at_least:2"
    assert limit_probability(mixture, parse_property_spec(spec)) == 1.0
    assert limit_probability(Distribution([(1, 0.6), (2, 0.3), (3, 0.1)]), parse_property_spec(spec)) == 1.0
    # Size 4 with degrees <= 2 up to depth 1: a path from a leaf root, or a
    # degree-2 root with one grandchild. q_z = (z + 1) r_(z+1) / E(D).
    r1, r2, r3 = 0.5, 0.3, 0.2
    q0, q1 = r1 / 1.7, 2 * r2 / 1.7
    got = limit_probability(Distribution([(1, r1), (2, r2), (3, r3)]), parse_property_spec("max_degree_ball:2,1&component_exactly:4"))
    assert got == pytest.approx(r1 * q1**2 * q0 + 2 * r2 * q1 * q0**2, rel=1e-14)
    assert limit_probability(mixture, RootDegree(3)) == 0.5
    got = limit_probability(mixture, ComponentSizeExactly(60))
    assert got == rho_k_table(mixture, 60).rho_k[59]
    assert got == pytest.approx(2.0031300756360564e-07, rel=1e-15)


@pytest.mark.parametrize("law", ["mixture", "regular3", "critical_mix", "matching_law", "all_twos"])
def test_component_exactly_is_the_small_tree_table(request, law):
    dist = request.getfixturevalue(law)
    table = rho_k_table(dist, 20)
    for k in range(1, 21):
        assert limit_probability(dist, ComponentSizeExactly(k)) == table.rho_k[k - 1]


def test_limit_probability_empty_conditions(mixture):
    assert limit_probability(mixture, Conjunction((RootDegree(1), RootDegree(3)))) == 0.0
    assert limit_probability(mixture, Conjunction((ComponentSizeExactly(3), ComponentSizeAtLeast(4)))) == 0.0
    assert limit_probability(mixture, Conjunction((ComponentSizeExactly(3), ComponentSizeExactly(4)))) == 0.0
    assert limit_probability(mixture, ComponentSizeExactly(0)) == 0.0
    assert limit_probability(mixture, MaxDegreeBall(0, 0)) == 0.0


def test_limit_probability_on_a_zero_mean_law():
    # {0: 1} has no offspring law; no spec may ask for it.
    lonely = Distribution([(0, 1.0)])
    assert limit_probability(lonely, RootDegree(0)) == 1.0
    assert limit_probability(lonely, ComponentSizeExactly(1)) == 1.0
    assert limit_probability(lonely, parse_property_spec("max_degree_ball:0,3&component_exactly:1")) == 1.0
    assert limit_probability(lonely, ComponentSizeAtLeast(2)) == 0.0
    assert limit_probability(lonely, RootDegree(1)) == 0.0


def test_limit_probability_refuses_specs_past_the_caps(mixture):
    at_caps = Conjunction((MaxDegreeBall(3, MAX_BALL_RADIUS), ComponentSizeExactly(MAX_COMPONENT_SIZE)))
    assert 0.0 <= limit_probability(mixture, at_caps) <= 1.0
    assert 0.0 <= limit_probability(mixture, ComponentSizeAtLeast(MAX_COMPONENT_SIZE + 1)) <= 1.0
    for prop in [
        ComponentSizeExactly(MAX_COMPONENT_SIZE + 1),
        ComponentSizeAtLeast(MAX_COMPONENT_SIZE + 2),
        MaxDegreeBall(3, MAX_BALL_RADIUS + 1),
        Conjunction((RootDegree(1), MaxDegreeBall(3, 10**12))),
    ]:
        with pytest.raises(SpecParseError):
            limit_probability(mixture, prop)


# ---------------------------------------------------------------------------
# giant degree fractions


def test_giant_degree_fraction_mixture(mixture):
    shares = solve_x_plus(mixture).giant_shares
    assert shares[3] == pytest.approx(13 / 27, abs=1e-10)
    assert shares[1] == pytest.approx(1 / 3, abs=1e-10)
    assert shares.get(7, 0.0) == 0.0


def test_giant_degree_fractions_sum_to_rho(mixture, rng):
    dists = [mixture] + [
        random_distribution(rng, require_degree3=True, criticality_margin=1e-2)
        for _ in range(10)
    ]
    for d in dists:
        total = sum(solve_x_plus(d).giant_shares.values())
        assert total == pytest.approx(rho(d), abs=1e-12)


def test_giant_degree_fractions_sum_to_rho_near_criticality(regular3):
    # The shares are the very terms the solver sums into rho, so they add up
    # to rho to rounding even where rho itself is tiny.
    for k in range(6, 13):
        d = thin(regular3, 0.5 + 10.0**-k)
        total = sum(solve_x_plus(d).giant_shares.values())
        assert total == pytest.approx(rho(d), rel=1e-15, abs=0.0)


def test_giant_degree_fraction_is_plus_zero_off_the_support(mixture, regular3):
    # x_plus = 1 for reg3 and for {0: 1/2, 3: 1/2}, where (1 - x_plus)^0 is 0^0.
    zero_or_three = Distribution([(0, 0.5), (3, 0.5)])
    cases = [(regular3, 0), (regular3, 7), (regular3, -1), (mixture, 0), (mixture, 2), (zero_or_three, 0)]
    for d, degree in cases:
        got = solve_x_plus(d).giant_shares.get(degree, 0.0)
        assert got == 0.0 and np.copysign(1.0, got) == 1.0


# ---------------------------------------------------------------------------
# criterion and continuity


def test_sign_criterion_module_scale(rng):
    from gclab.distributions import supercriticality

    for _ in range(25):
        d = random_distribution(rng, require_degree3=True, criticality_margin=1e-3)
        assert (rho(d) > 1e-6) == (supercriticality(d) > 0.0)


def test_rho_continuity_under_light_thinning(rng, mixture, regular3):
    for d in [mixture, regular3] + [
        random_distribution(rng, require_degree3=True, criticality_margin=1e-3)
        for _ in range(15)
    ]:
        assert abs(rho(thin(d, 1.0 - 1e-4)) - rho(d)) <= 0.01


def test_rho_monotone_in_retention(mixture):
    values = [rho(thin(mixture, p)) for p in np.linspace(0.7, 1.0, 13)]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
