from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from gclab.branching import rho
from gclab.census import components
from gclab.configuration import (
    DegreeSequence,
    MultiGraph,
    conf_distance,
    sample_degree_sequence,
    sample_pairing,
    to_multigraph,
)
from gclab.distributions import thin
from gclab.errors import BadProbability
from gclab.percolation import (
    ColoredGraph,
    color_edges,
    percolate,
    retention_levels,
    split,
)

from helpers import exact_multigraph_law, multigraph_key, random_multigraph


# ---------------------------------------------------------------------------
# coloring


def test_color_all_red_all_blue(rng):
    g = MultiGraph(4, [[0, 1], [1, 2], [2, 3]])
    assert color_edges(g, 1.0, rng).red.all()
    assert not color_edges(g, 0.0, rng).red.any()


def test_color_rejects_bad_probability(rng):
    g = MultiGraph(2, [[0, 1]])
    with pytest.raises(BadProbability):
        color_edges(g, 1.0001, rng)


def test_color_count_concentration():
    # One million parallel edges: the red count is Binomial(m, 1/2).
    m = 1_000_000
    edges = np.zeros((m, 2), dtype=np.int64)
    edges[:, 1] = 1
    g = MultiGraph(2, edges)
    colored = color_edges(g, 0.5, np.random.default_rng(123))
    assert abs(int(colored.red.sum()) - m / 2) <= 4.0 * np.sqrt(m / 4)


def test_color_deterministic_per_seed():
    g = MultiGraph(5, [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]])
    a = color_edges(g, 0.3, np.random.default_rng(9)).red
    b = color_edges(g, 0.3, np.random.default_rng(9)).red
    np.testing.assert_array_equal(a, b)


# ---------------------------------------------------------------------------
# split


def test_split_all_red(rng):
    g = MultiGraph(3, [[0, 1], [1, 2]])
    red_g, blue_g, dred, dblue = split(color_edges(g, 1.0, rng))
    assert red_g.edges.tolist() == g.edges.tolist()
    assert blue_g.num_edges == 0
    assert dblue.degrees.tolist() == [0, 0, 0]
    assert dred.degrees.tolist() == [1, 2, 1]


def test_split_blue_loop():
    g = MultiGraph(1, [[0, 0]])
    colored = ColoredGraph(g, np.array([False]))
    _, _, dred, dblue = split(colored)
    assert dred.degrees.tolist() == [0]
    assert dblue.degrees.tolist() == [2]  # loop keeps its double weight


def test_split_triangle_one_blue():
    g = MultiGraph(3, [[0, 1], [1, 2], [0, 2]])
    colored = ColoredGraph(g, np.array([True, True, False]))
    _, _, dred, dblue = split(colored)
    assert sorted(dred.degrees.tolist()) == [1, 1, 2]
    assert sorted(dblue.degrees.tolist()) == [0, 1, 1]


def test_split_degrees_add_up(rng):
    for _ in range(50):
        g = random_multigraph(rng, n=30, m=40)
        red_g, blue_g, dred, dblue = split(color_edges(g, rng.random(), rng))
        np.testing.assert_array_equal(dred.degrees + dblue.degrees, g.degrees())
        assert red_g.num_edges + blue_g.num_edges == g.num_edges


# ---------------------------------------------------------------------------
# percolate


def test_percolate_keep_all(rng):
    g = MultiGraph(4, [[0, 1], [1, 2], [2, 3]])
    kept = percolate(g, 1.0, rng)
    assert kept.edges.tolist() == g.edges.tolist()


def test_percolate_delete_all(rng):
    g = MultiGraph(6, [[0, 1], [2, 3], [4, 5]])
    empty = percolate(g, 0.0, rng)
    assert empty.num_edges == 0
    assert components(empty).vertices_in_components_of_size(1) == 6


def test_percolate_three_regular_supercritical(regular3):
    # Retention 0.6 on the 3-regular model: survival solved by hand gives
    # extinction 4/9, so the giant holds 1 - (2/3)^3 = 19/27 of vertices.
    rng = np.random.default_rng(60)
    n = 100_000
    ds = sample_degree_sequence(regular3, n, rng)
    g = to_multigraph(sample_pairing(ds, rng))
    kept = percolate(g, 0.6, rng)
    assert abs(components(kept).largest / n - 19 / 27) <= 0.02


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_percolation_keeps_the_red_rows_in_order(p):
    graphs = [
        MultiGraph(5, []),
        MultiGraph(6, [[0, 0], [0, 1], [1, 0], [2, 3], [3, 3], [2, 3], [4, 5], [5, 5]]),
        random_multigraph(np.random.default_rng(3), n=50, m=400),
    ]
    for seed, g in enumerate(graphs):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        red = reference.random(g.num_edges) < p
        kept = percolate(g, p, rng)
        assert kept.edges.shape == (int(red.sum()), 2)
        np.testing.assert_array_equal(kept.edges, g.edges[red])
        assert rng.random() == reference.random()

        colored = color_edges(g, p, np.random.default_rng(seed))
        np.testing.assert_array_equal(colored.red, red)
        red_g, blue_g, _, _ = split(colored)
        rows = np.empty_like(g.edges)
        rows[red] = red_g.edges
        rows[~red] = blue_g.edges
        np.testing.assert_array_equal(rows, g.edges)


def test_retention_levels_hold_the_rows_marked_in_their_band():
    # One draw of marks; level k keeps, in order, the rows with
    # ps[k-1] <= mark < ps[k], and levels 0..k are percolate at ps[k].
    graphs = [
        MultiGraph(5, []),
        MultiGraph(6, [[0, 0], [0, 1], [1, 0], [2, 3], [3, 3], [2, 3], [4, 5], [5, 5]]),
        random_multigraph(np.random.default_rng(3), n=50, m=400),
    ]
    ps = [0.0, 0.25, 0.3, 0.7, 1.0]
    for seed, g in enumerate(graphs):
        rng, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        marks = reference.random(g.num_edges)
        levels = retention_levels(g, ps, rng)
        assert rng.random() == reference.random()
        assert len(levels) == len(ps)
        low = 0.0
        for k, (p, level) in enumerate(zip(ps, levels)):
            assert level.n == g.n
            np.testing.assert_array_equal(level.edges, g.edges[(low <= marks) & (marks < p)])
            kept = percolate(g, p, np.random.default_rng(seed))
            rows = np.concatenate([lv.edges for lv in levels[: k + 1]])
            assert sorted(map(tuple, rows.tolist())) == sorted(map(tuple, kept.edges.tolist()))
            low = p


def test_retention_levels_refuse_a_grid_out_of_order(rng):
    g = MultiGraph(3, [[0, 1], [1, 2]])
    for ps in ([0.5, 0.3], [0.4, 0.4]):
        with pytest.raises(ValueError):
            retention_levels(g, ps, rng)
    with pytest.raises(BadProbability):
        retention_levels(g, [0.5, 1.5], rng)
    assert retention_levels(g, [], rng) == []


# ---------------------------------------------------------------------------
# thinned-degree bridge


def test_thinned_distance_at_full_retention(mixture, rng):
    ds = sample_degree_sequence(mixture, 500, rng)
    g = to_multigraph(sample_pairing(ds, rng))
    red_g, _, dred, _ = split(color_edges(g, 1.0, rng))
    assert conf_distance(dred.degrees, thin(mixture, 1.0)) == conf_distance(dred.degrees, mixture)


def test_thinned_distance_floor(mixture, rng):
    ds = DegreeSequence([1, 1, 1, 1])
    g = to_multigraph(sample_pairing(ds, rng))
    _, _, dred, _ = split(color_edges(g, 0.5, rng))
    assert conf_distance(dred.degrees, thin(mixture, 0.5)) >= 0.25


def test_thinned_distance_concentrates(regular3):
    n = 100_000
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ds = sample_degree_sequence(regular3, n, rng)
        g = to_multigraph(sample_pairing(ds, rng))
        _, _, dred, _ = split(color_edges(g, 0.5, rng))
        if conf_distance(dred.degrees, thin(regular3, 0.5)) <= 0.05:
            hits += 1
    assert hits >= 99


def test_thinned_prediction_matches_simulation(regular3):
    # Solver and simulation agree through the thinned law at p = 0.7.
    rng = np.random.default_rng(77)
    n = 100_000
    ds = sample_degree_sequence(regular3, n, rng)
    g = to_multigraph(sample_pairing(ds, rng))
    kept = percolate(g, 0.7, rng)
    predicted = rho(thin(regular3, 0.7))
    assert abs(components(kept).largest / n - predicted) <= 0.02


def test_solver_tracks_simulation_across_grid(regular3):
    # Sub- and supercritical points of the whole retention grid: below the
    # 1/2 threshold the largest component is negligible, above it the
    # simulated fraction tracks the solved survival of the thinned law.
    rng = np.random.default_rng(123)
    n = 100_000
    ds = sample_degree_sequence(regular3, n, rng)
    g = to_multigraph(sample_pairing(ds, rng))
    for p in np.arange(0.1, 0.95, 0.1):
        p = round(float(p), 2)
        l1 = components(percolate(g, p, rng)).largest / n
        if p < 0.5:
            assert l1 <= 0.02, f"p={p}"
        elif p > 0.5:
            assert abs(l1 - rho(thin(regular3, p))) <= 0.02, f"p={p}"
        else:
            # Exactly critical: the largest component scales like n^(2/3),
            # so neither the subcritical nor the supercritical band applies.
            assert l1 <= 0.1, f"p={p}"


# ---------------------------------------------------------------------------
# red/blue conditional independence


def run_red_blue_chi_square(degrees, trials, seed, p=0.5, min_expected=5.0):
    """Bucket trials by the realized red degree sequence and compare the
    joint (red graph, blue graph) law to the product of the exact uniform
    configuration laws; returns the number of buckets tested."""
    ds = DegreeSequence(degrees)
    rng = np.random.default_rng(seed)
    buckets: dict[tuple, dict] = defaultdict(lambda: defaultdict(int))
    for _ in range(trials):
        g = to_multigraph(sample_pairing(ds, rng))
        colored = color_edges(g, p, rng)
        red_g, blue_g, dred, dblue = split(colored)
        key = tuple(dred.degrees.tolist())
        buckets[key][(multigraph_key(red_g), multigraph_key(blue_g))] += 1
    base = np.asarray(degrees)
    tested = 0
    for key, cells in buckets.items():
        count = sum(cells.values())
        red_law = exact_multigraph_law(DegreeSequence(np.array(key)))
        blue_law = exact_multigraph_law(DegreeSequence(base - np.array(key)))
        joint = {
            (rk, bk): rp * bp
            for rk, rp in red_law.items()
            for bk, bp in blue_law.items()
        }
        if count * min(joint.values()) < min_expected:
            continue
        observed = np.array([cells.get(cell, 0) for cell in joint])
        expected = count * np.array([joint[cell] for cell in joint])
        _, p_value = stats.chisquare(observed, expected)
        if len(joint) > 1:
            assert p_value >= 1e-3, f"bucket {key}: p={p_value}"
        tested += 1
    return tested


def test_red_blue_conditionally_independent_small():
    assert run_red_blue_chi_square([1, 1, 1, 1], trials=40_000, seed=5) >= 3
    assert run_red_blue_chi_square([2, 2], trials=20_000, seed=6) >= 2
