"""The graph layer against networkx on small multigraphs with loops and
parallel edges; networkx shares no code with the numpy/scipy paths."""

import networkx as nx
import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from gclab.census import MaxDegreeBall, components, property_mask
from gclab.configuration import MultiGraph, is_simple


@st.composite
def edge_lists(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(0, 2 * n))
    vertex = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(vertex, vertex), min_size=m, max_size=m))


def multigraphs():
    return edge_lists().map(lambda case: MultiGraph(*case))


def to_networkx(graph: MultiGraph) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(graph.n))
    g.add_edges_from(graph.edges.tolist())
    return g


def test_adjacency_csr_merges_parallel_edges_and_drops_loops():
    g = MultiGraph(4, [[0, 1], [1, 0], [0, 1], [2, 2], [1, 2]])
    adj = g.adjacency_csr()
    assert adj.shape == (4, 4) and adj.dtype == bool
    assert adj.indptr.tolist() == [0, 1, 3, 4, 4]
    assert adj.indices.tolist() == [1, 0, 2, 1]
    assert (adj != adj.T).nnz == 0
    assert g.adjacency_csr() is adj
    inc = g.incidence_csr()
    assert inc.shape == (4, 5)
    assert [inc.indices[inc.indptr[v] : inc.indptr[v + 1]].tolist() for v in range(4)] == [
        [0, 1, 2],
        [0, 1, 2, 4],
        [3, 4],
        [],
    ]


@given(edge_lists())
def test_edges_are_stored_as_sorted_rows(case):
    n, pairs = case
    given_edges = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    kept = given_edges.copy()
    graph = MultiGraph(n, given_edges)
    assert np.array_equal(graph.edges, np.sort(kept, axis=1))
    assert np.array_equal(given_edges, kept)  # the caller's array is not reordered
    assert not graph.edges.flags.writeable


@given(multigraphs())
def test_pair_csr_holds_each_distinct_pair_once(graph):
    upper = graph.pair_csr()
    expected = sorted((min(u, v), max(u, v)) for u, v in nx.Graph(to_networkx(graph)).edges() if u != v)
    stored = upper.tocoo()
    assert upper.shape == (graph.n, graph.n) and upper.dtype == bool
    assert sorted(zip(stored.row.tolist(), stored.col.tolist())) == expected
    assert bool(upper.data.all())
    assert upper.has_canonical_format
    assert bool((stored.row < stored.col).all())
    assert graph.pair_csr() is upper
    assert (graph.adjacency_csr() != upper + upper.T).nnz == 0


def test_pair_csr_of_graphs_without_pairs():
    for graph in (MultiGraph(3, []), MultiGraph(3, [[0, 0], [2, 2], [2, 2]])):
        upper = graph.pair_csr()
        assert upper.shape == (3, 3) and upper.nnz == 0 and upper.has_canonical_format
        assert upper.indptr.tolist() == [0, 0, 0, 0]
        assert graph.adjacency_csr().nnz == 0
        assert components(graph).sizes.tolist() == [1, 1, 1]


@given(multigraphs())
def test_components_match_networkx(graph):
    cen = components(graph)
    # Size descending, ties to the component holding the smaller vertex.
    expected = sorted(nx.connected_components(to_networkx(graph)), key=lambda c: (-len(c), min(c)))
    assert cen.sizes.tolist() == [len(c) for c in expected]
    assert cen.largest == len(expected[0])
    for label, comp in enumerate(expected):
        assert set(np.flatnonzero(cen.component_id == label).tolist()) == comp
    holds_zero = next(c for c in expected if 0 in c)
    assert (cen.component_id[0] == 0) == (len(holds_zero) == cen.largest)


@given(multigraphs())
def test_is_simple_matches_networkx(graph):
    # The loop-free copy reaches the repeated-pair test on every example.
    loop_free = MultiGraph(graph.n, graph.edges[graph.edges[:, 0] != graph.edges[:, 1]])
    for h in (graph, loop_free):
        g = to_networkx(h)
        expected = nx.number_of_selfloops(g) == 0 and nx.Graph(g).number_of_edges() == g.number_of_edges()
        assert is_simple(h) == expected, h.edges.tolist()


@given(multigraphs())
def test_max_degree_ball_matches_networkx(graph):
    g = to_networkx(graph)  # nx counts a loop twice toward the degree
    for delta in range(5):
        for t in range(4):
            mask = property_mask(graph, MaxDegreeBall(delta, t))
            for v in range(graph.n):
                ball = nx.single_source_shortest_path_length(g, v, cutoff=t)
                expected = all(g.degree(u) <= delta for u in ball)
                assert bool(mask[v]) == expected, (delta, t, v, graph.edges.tolist())
