import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gclab.branching import limit_probability
from gclab.census import (
    ComponentSizeAtLeast,
    ComponentSizeExactly,
    Conjunction,
    LocalProperty,
    MaxDegreeBall,
    RootDegree,
    clauses,
    components,
    property_counts,
    property_mask,
    _within_distance,
)
from gclab.configuration import MultiGraph, sample_degree_sequence, sample_pairing, to_multigraph
from gclab.distributions import Distribution

from helpers import (
    InsufficientRadius,
    component_id,
    component_order,
    evaluate_property,
    neighborhood,
    radius,
    random_multigraph,
    sample_tree_forest,
    tree_property_probability,
    vertices_in_components_of_size_at_least,
)


@pytest.fixture(scope="module")
def mixture_graph(mixture):
    rng = np.random.default_rng(314)
    ds = sample_degree_sequence(mixture, 100_000, rng)
    return to_multigraph(sample_pairing(ds, rng))


# ---------------------------------------------------------------------------
# component census


def test_components_perfect_matching():
    n = 20
    g = MultiGraph(n, [[2 * i, 2 * i + 1] for i in range(n // 2)])
    cen = components(g)
    assert cen.largest == 2
    assert cen.vertices_in_components_of_size(2) == n
    assert (cen.sizes == 2).all()


def test_components_star():
    n = 12
    g = MultiGraph(n, [[0, v] for v in range(1, n)])
    cen = components(g)
    assert cen.largest == n
    assert cen.second_largest == 0


def test_components_empty_graph():
    cen = components(MultiGraph(7, []))
    assert cen.vertices_in_components_of_size(1) == 7
    assert cen.largest == 1


def test_components_tie_break_by_smallest_vertex():
    # Two components of size 2; the one containing vertex 0 must be "the"
    # largest for deterministic giant-restricted counts.
    g = MultiGraph(6, [[1, 2], [0, 5]])
    cen = components(g)
    assert cen.largest == 2 and cen.second_largest == 2
    assert component_id(cen)[0] == 0
    assert component_id(cen)[1] == 1


def test_components_of_the_vertexless_graph():
    cen = components(MultiGraph(0, []))
    assert cen.largest == 0 and cen.second_largest == 0
    assert cen.sizes.size == 0
    assert cen.giant_mask().shape == (0,) and cen.giant_mask().dtype == bool
    assert property_counts(MultiGraph(0, []), ComponentSizeAtLeast(1)) == (0, 0)


def test_components_ignores_loops_for_connectivity():
    g = MultiGraph(3, [[0, 0], [1, 2]])
    cen = components(g)
    assert cen.largest == 2
    assert cen.vertices_in_components_of_size(1) == 1


def test_census_counting_identities(rng):
    for _ in range(30):
        g = random_multigraph(rng, n=40, m=35)
        cen = components(g)
        n = g.n
        total = sum(cen.vertices_in_components_of_size(k) for k in range(1, n + 1))
        assert total == n
        for k in range(1, 8):
            below = sum(cen.vertices_in_components_of_size(j) for j in range(1, k))
            assert vertices_in_components_of_size_at_least(cen, k) == n - below


def test_l1_plus_l2_bounded_by_tail_counts(rng):
    for _ in range(30):
        g = random_multigraph(rng, n=60, m=45)
        cen = components(g)
        l1, l2 = cen.largest, cen.second_largest
        for k in range(1, max(l2, 1) + 1):
            assert l1 + l2 <= vertices_in_components_of_size_at_least(cen, k) + 2 * k


def test_census_json_export():
    g = MultiGraph(5, [[0, 1], [1, 2]])
    cen = components(g)
    sizes = component_order(cen)[0]
    doc = {
        "sizes": sizes.tolist(),
        "N_k": {str(k): cen.vertices_in_components_of_size(k) for k in sorted(set(sizes.tolist()))},
        "L1": cen.largest,
        "L2": cen.second_largest,
    }
    assert doc == {"sizes": [3, 1, 1], "N_k": {"1": 2, "3": 3}, "L1": 3, "L2": 1}


# ---------------------------------------------------------------------------
# neighborhoods


def test_neighborhood_depth_zero():
    g = MultiGraph(4, [[0, 1], [1, 2]])
    ball = neighborhood(g, 1, 0)
    assert ball.size == 1 and ball.edges.shape[0] == 0
    assert ball.is_tree


def test_neighborhood_triangle_detects_cycle():
    g = MultiGraph(3, [[0, 1], [1, 2], [0, 2]])
    ball = neighborhood(g, 0, 1)
    assert ball.size == 3
    assert ball.edges.shape[0] == 3
    assert not ball.is_tree


def test_neighborhood_path_center():
    g = MultiGraph(5, [[0, 1], [1, 2], [2, 3], [3, 4]])
    ball = neighborhood(g, 2, 1)
    assert sorted(ball.vertices.tolist()) == [1, 2, 3]
    assert ball.edges.shape[0] == 2
    assert ball.is_tree
    dist = dict(zip(ball.vertices.tolist(), ball.distances.tolist()))
    assert dist == {2: 0, 1: 1, 3: 1}


def test_neighborhood_counts_parallel_edges_and_loops():
    g = MultiGraph(2, [[0, 1], [0, 1], [1, 1]])
    ball = neighborhood(g, 0, 1)
    assert ball.edges.shape[0] == 3
    assert not ball.is_tree
    assert ball.degree_of(1) == 4  # two parallel + loop twice
    assert g.degrees()[1] == 4


# ---------------------------------------------------------------------------
# property evaluation: the per-vertex ball oracle against property_mask


def test_evaluate_max_degree_ball_rejects_heavy_root():
    g = MultiGraph(5, [[0, v] for v in range(1, 5)])
    ball = neighborhood(g, 0, 2)
    assert not evaluate_property(ball, MaxDegreeBall(3, 1))
    assert not property_mask(g, MaxDegreeBall(3, 1))[0]


def test_evaluate_component_size_on_isolated_edge():
    g = MultiGraph(4, [[0, 1], [2, 3]])
    ball = neighborhood(g, 0, 2)
    assert evaluate_property(ball, ComponentSizeExactly(2))
    assert not evaluate_property(ball, ComponentSizeAtLeast(3))
    assert property_mask(g, ComponentSizeExactly(2))[0]
    assert not property_mask(g, ComponentSizeAtLeast(3))[0]


def test_evaluate_root_degree_with_loop():
    g = MultiGraph(2, [[0, 0], [0, 1]])
    ball = neighborhood(g, 0, 1)
    assert evaluate_property(ball, RootDegree(3))
    assert property_mask(g, RootDegree(3))[0]


def test_evaluate_requires_enough_depth():
    g = MultiGraph(4, [[0, 1], [1, 2], [2, 3]])
    shallow = neighborhood(g, 0, 1)
    with pytest.raises(InsufficientRadius):
        evaluate_property(shallow, ComponentSizeExactly(4))
    # A whole-graph census substitutes for depth on component-size kinds.
    cen = components(g)
    assert property_mask(g, ComponentSizeExactly(4), cen)[0]


def _properties(draw_int):
    """One property of every kind, plus conjunctions, from small parameters.

    One conjunction holds every kind and a second ball clause of another
    radius; another nests both ball clauses and a size clause. A ball
    clause no vertex can break, which has no source to search from, comes
    alone and beside one that can.
    """
    kinds = [
        RootDegree(draw_int(0, 4)),
        ComponentSizeExactly(draw_int(1, 5)),
        ComponentSizeAtLeast(draw_int(1, 5)),
        MaxDegreeBall(draw_int(0, 4), draw_int(0, 2)),
    ]
    second_ball = MaxDegreeBall(draw_int(0, 4), (kinds[3].t + draw_int(1, 2)) % 3)
    sourceless = MaxDegreeBall(10**6, draw_int(0, 2))
    return kinds + [
        Conjunction((kinds[0], kinds[3])),
        Conjunction((kinds[1], kinds[2])),
        Conjunction((*kinds, second_ball)),
        Conjunction((kinds[3], Conjunction((second_ball, Conjunction((kinds[2],)))))),
        sourceless,
        Conjunction((sourceless, kinds[3])),
    ]


def _assert_mask_matches_oracle(graph, props, vertices):
    for prop in props:
        mask = property_mask(graph, prop)
        for v in vertices:
            ball = neighborhood(graph, v, radius(prop))
            assert bool(mask[v]) == evaluate_property(ball, prop), (prop, v, graph.edges.tolist())


@given(st.data(), st.integers(1, 12), st.integers(0, 16))
def test_property_mask_matches_ball_oracle_on_multigraphs(data, n, m):
    edges = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=m, max_size=m))
    graph = MultiGraph(n, edges)
    props = _properties(lambda lo, hi: data.draw(st.integers(lo, hi)))
    _assert_mask_matches_oracle(graph, props, range(n))


@given(
    st.data(),
    st.dictionaries(st.integers(0, 4), st.floats(0.05, 1.0), min_size=1, max_size=3),
    st.integers(1, 6),
    st.integers(0, 2**32 - 1),
)
def test_property_mask_matches_ball_oracle_on_forest_roots(data, atoms, trees, seed):
    total = sum(atoms.values())
    law = Distribution([(v, w / total) for v, w in atoms.items()])
    props = _properties(lambda lo, hi: data.draw(st.integers(lo, hi)))
    deep = sample_tree_forest(law, trees, np.random.default_rng(seed), 2 + max(radius(p) for p in props))
    assert components(deep).sizes.size == trees  # one tree per root
    _assert_mask_matches_oracle(deep, props, range(trees))
    # Levels are drawn in order, so a shallower cut from the same seed is a
    # prefix of the deep forest: the property's radius must already decide it.
    for prop in props:
        cut = sample_tree_forest(law, trees, np.random.default_rng(seed), radius(prop))
        np.testing.assert_array_equal(
            property_mask(cut, prop)[:trees], property_mask(deep, prop)[:trees]
        )


def test_clauses_flatten_a_spec(mixture):
    nested = Conjunction((
        RootDegree(3),
        Conjunction((ComponentSizeAtLeast(2), MaxDegreeBall(4, 1), Conjunction((RootDegree(3), RootDegree(1))))),
        ComponentSizeExactly(6),
        ComponentSizeAtLeast(4),
        MaxDegreeBall(2, 0),
    ))
    assert clauses(nested) == ([3, 3, 1], [(4, 1), (2, 0)], 6, 6)
    assert clauses(Conjunction((ComponentSizeExactly(3), ComponentSizeExactly(5)))) == ([], [], 5, 3)
    assert clauses(ComponentSizeAtLeast(0)) == ([], [], 1, math.inf)
    assert clauses(Conjunction(())) == ([], [], 1, math.inf)

    class Unknown(LocalProperty):
        pass

    for prop in (Unknown(), Conjunction((RootDegree(1), Unknown()))):
        with pytest.raises(TypeError, match="Unknown"):
            clauses(prop)
        with pytest.raises(TypeError, match="Unknown"):
            property_mask(MultiGraph(2, [[0, 1]]), prop)
        with pytest.raises(TypeError, match="Unknown"):
            limit_probability(mixture, prop)


def test_property_mask_reads_the_degrees_once(monkeypatch, mixture_graph):
    calls = []
    degrees = MultiGraph.degrees

    def counted(graph):
        calls.append(graph)
        return degrees(graph)

    monkeypatch.setattr(MultiGraph, "degrees", counted)
    prop = Conjunction((RootDegree(3), MaxDegreeBall(3, 1)))
    mask = property_mask(mixture_graph, prop)
    assert len(calls) == 1
    monkeypatch.undo()
    np.testing.assert_array_equal(
        mask, property_mask(mixture_graph, RootDegree(3)) & property_mask(mixture_graph, MaxDegreeBall(3, 1))
    )


def test_property_radii():
    assert radius(ComponentSizeExactly(4)) == 4
    assert radius(ComponentSizeAtLeast(4)) == 3
    assert radius(RootDegree(2)) == 1
    assert radius(MaxDegreeBall(3, 2)) == 3
    assert radius(Conjunction((RootDegree(1), MaxDegreeBall(3, 2)))) == 3


# ---------------------------------------------------------------------------
# whole-graph property counts


def test_count_matches_census_for_size_kinds(rng):
    for _ in range(1000):
        g = random_multigraph(rng, n=25, m=20)
        cen = components(g)
        for k in (1, 2, 3, 4, 7):
            assert property_counts(g, ComponentSizeExactly(k))[0] == cen.vertices_in_components_of_size(k)


def test_count_root_degree_regular():
    g = MultiGraph(4, [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2], [1, 3]])  # K4, 3-regular
    assert property_counts(g, RootDegree(3))[0] == 4


def test_count_max_degree_ball_star():
    # Star on 4 vertices: the center has degree 3 > 2, and every leaf sees
    # it at distance 1, so nobody passes.
    g = MultiGraph(4, [[0, 1], [0, 2], [0, 3]])
    assert property_counts(g, MaxDegreeBall(2, 1))[0] == 0


def test_count_max_degree_ball_saturates(mixture_graph):
    delta = int(mixture_graph.degrees().max())
    assert property_counts(mixture_graph, MaxDegreeBall(delta, 2))[0] == mixture_graph.n


def test_ball_search_without_sources_reads_no_row():
    # Where no vertex is heavier than delta the search has no source, and it
    # ends before its first step.
    class Rowless:
        @property
        def edges(self):
            pytest.fail("the search read the rows")

    for t in range(3):
        assert not _within_distance(Rowless(), np.zeros(5, dtype=bool), t).any()


def test_count_in_giant_on_connected_graph():
    g = MultiGraph(3, [[0, 1], [1, 2], [0, 2]])
    for prop in (RootDegree(2), ComponentSizeAtLeast(2)):
        whole, in_giant = property_counts(g, prop)
        assert in_giant == whole


def test_count_in_giant_excludes_small_components():
    g = MultiGraph(5, [[0, 1], [1, 2], [0, 2], [3, 4]])
    whole, in_giant = property_counts(g, RootDegree(1))
    assert in_giant == 0
    assert whole == 2


def test_giant_degree_fraction_matches_closed_form(mixture, mixture_graph):
    n = mixture_graph.n
    got = property_counts(mixture_graph, RootDegree(3))[1] / n
    assert abs(got - 13 / 27) <= 0.02


# ---------------------------------------------------------------------------
# local weak limit checks


def test_most_radius2_balls_are_trees(mixture_graph):
    n = mixture_graph.n
    trees = sum(neighborhood(mixture_graph, v, 2).is_tree for v in range(n))
    assert trees / n > 0.95


def test_counts_track_tree_probabilities(mixture, mixture_graph):
    props = [
        RootDegree(1),
        RootDegree(3),
        ComponentSizeExactly(2),
        ComponentSizeAtLeast(3),
        MaxDegreeBall(3, 1),
        MaxDegreeBall(1, 2),
    ]
    n = mixture_graph.n
    rng = np.random.default_rng(2718)
    for prop in props:
        assert radius(prop) <= 3
        observed = property_counts(mixture_graph, prop)[0] / n
        estimate, half_width = tree_property_probability(mixture, prop, 20_000, rng)
        assert abs(observed - estimate) <= 0.02 + half_width


def test_property_mask_conjunction(mixture_graph):
    a = property_mask(mixture_graph, RootDegree(3))
    b = property_mask(mixture_graph, ComponentSizeAtLeast(3))
    both = property_mask(mixture_graph, Conjunction((RootDegree(3), ComponentSizeAtLeast(3))))
    np.testing.assert_array_equal(both, a & b)
