"""The graph layer against networkx on small multigraphs with loops and
parallel edges, and the census against scipy's ``connected_components`` on
sparse graphs over several blocks. networkx shares no code with the
numpy/scipy paths, and the census none with scipy."""

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix, triu
from scipy.sparse.csgraph import connected_components

from gclab import census
from gclab.census import ComponentSizeAtLeast, ComponentSizeExactly, MaxDegreeBall, components, property_mask
from gclab.configuration import BLOCK, MultiGraph, is_simple, sample_degree_sequence, sample_pairing, to_multigraph
from gclab.distributions import Distribution

from helpers import component_id, component_order, neighborhood, numbering_oracle


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
    # The adjacency's upper triangle is the set of distinct non-loop pairs.
    adj = graph.adjacency_csr()
    upper = triu(adj, format="csr")
    expected = sorted((min(u, v), max(u, v)) for u, v in nx.Graph(to_networkx(graph)).edges() if u != v)
    stored = upper.tocoo()
    assert upper.shape == (graph.n, graph.n) and upper.dtype == bool
    assert sorted(zip(stored.row.tolist(), stored.col.tolist())) == expected
    assert bool(upper.data.all())
    assert adj.has_canonical_format
    assert bool((stored.row < stored.col).all())
    assert graph.adjacency_csr() is adj
    assert (adj != upper + upper.T).nnz == 0


def test_pair_csr_of_graphs_without_pairs():
    for graph in (MultiGraph(3, []), MultiGraph(3, [[0, 0], [2, 2], [2, 2]])):
        adj = graph.adjacency_csr()
        upper = triu(adj, format="csr")
        assert upper.shape == (3, 3) and upper.nnz == 0 and adj.has_canonical_format
        assert adj.indptr.tolist() == [0, 0, 0, 0]
        assert adj.nnz == 0
        assert components(graph).sizes.tolist() == [1, 1, 1]


@given(multigraphs())
def test_components_match_networkx(graph):
    cen = components(graph)
    # Size descending, ties to the component holding the smaller vertex.
    expected = sorted(nx.connected_components(to_networkx(graph)), key=lambda c: (-len(c), min(c)))
    assert component_order(cen)[0].tolist() == [len(c) for c in expected]
    assert cen.largest == len(expected[0])
    for label, comp in enumerate(expected):
        assert set(np.flatnonzero(component_id(cen) == label).tolist()) == comp
    holds_zero = next(c for c in expected if 0 in c)
    assert (component_id(cen)[0] == 0) == (len(holds_zero) == cen.largest)


def networkx_census(graph: MultiGraph) -> tuple[list[int], np.ndarray]:
    """Sizes and vertex labels numbered as ``components`` numbers them."""
    expected = sorted(nx.connected_components(to_networkx(graph)), key=lambda c: (-len(c), min(c)))
    labels = np.empty(graph.n, dtype=np.int64)
    for label, comp in enumerate(expected):
        labels[list(comp)] = label
    return [len(c) for c in expected], labels


def _random_path(rng):
    n = 10_000
    labels = rng.permutation(n)
    return MultiGraph(n, np.column_stack([labels[:-1], labels[1:]]))


def _star_with_largest_centre(rng):
    n = 1000
    return MultiGraph(n, [[leaf, n - 1] for leaf in rng.permutation(n - 1).tolist()])


def _interleaved_cycles(rng):
    # Evens on one cycle, odds on the other, each in random order: the two
    # equal sizes tie, and the cycle holding vertex 0 must come first.
    edges = []
    for start in (0, 1):
        cycle = rng.permutation(np.arange(start, 10_000, 2))
        edges.append(np.column_stack([cycle, np.roll(cycle, -1)]))
    return MultiGraph(10_000, np.concatenate(edges))


def _isolated_vertices_around_a_path(rng):
    # The other 9000 vertices are finished roots from the start; the path's
    # roots stay live for about six rounds after the first.
    n = 10_000
    path = rng.choice(n, size=1000, replace=False)
    return MultiGraph(n, np.column_stack([path[:-1], path[1:]]))


def _short_cycles_beside_a_long_one(rng):
    # Each triangle is finished after the first round, where both of its
    # larger vertices hook to its smallest; the 4000-cycle stays live for
    # about seven more.
    triangles = np.arange(3000).reshape(-1, 3)
    cycle = np.arange(3000, 7000)
    edges = np.concatenate(
        [
            np.stack([triangles, np.roll(triangles, -1, axis=1)], axis=2).reshape(-1, 2),
            np.column_stack([cycle, np.roll(cycle, -1)]),
        ]
    )
    labels = rng.permutation(7000)
    return MultiGraph(7000, labels[edges])


def _tied_sizes_under_random_labels(rng):
    # 2000 paths of one to four vertices, relabelled at random: each size
    # is shared by about 500 components, so every tie is broken by labels.
    lengths = rng.integers(1, 5, size=2000)
    n = int(lengths.sum())
    starts = np.zeros(n, dtype=bool)
    starts[np.cumsum(lengths)[:-1]] = True
    steps = np.column_stack([np.arange(n - 1), np.arange(1, n)])[~starts[1:]]
    labels = rng.permutation(n)
    return MultiGraph(n, labels[steps])


def _two_largest_tie_away_from_vertex_0(rng):
    # Vertex 0 is alone; two 4000-cycles under random labels tie for the
    # largest, and the one holding the smaller root is the giant. 1000 more
    # vertices sit on paths of two.
    labels = 1 + rng.permutation(9000)
    cycles = labels[:8000].reshape(2, -1)
    edges = [np.column_stack([cycle, np.roll(cycle, -1)]) for cycle in cycles]
    edges.append(labels[8000:].reshape(-1, 2))
    return MultiGraph(9001, np.concatenate(edges))


def _second_largest_holds_vertex_0(rng):
    # Vertex 0 starts a 2000-vertex path, L2, whose root lies before the
    # giant's, a 5000-cycle under random labels. 2000 more vertices sit on
    # paths of two.
    labels = 1 + rng.permutation(8999)
    path = np.concatenate([[0], labels[:1999]])
    cycle = labels[1999:6999]
    edges = [
        np.column_stack([path[:-1], path[1:]]),
        np.column_stack([cycle, np.roll(cycle, -1)]),
        labels[6999:].reshape(-1, 2),
    ]
    return MultiGraph(9000, np.concatenate(edges))


def _configuration_graph_over_blocks(rng):
    # A mixture multigraph, loops and parallel edges included, with three
    # blocks of rows, whose round-1 survivors alone fill more than a block:
    # the census's first two re-reads cross block edges.
    law = Distribution([(1, 0.5), (3, 0.5)])
    return to_multigraph(sample_pairing(sample_degree_sequence(law, 3 * BLOCK, rng), rng))


def _path_in_label_order(rng):
    # The first round hooks each vertex onto the one before it: one chain
    # through every block, a block long inside each, which the in-place
    # flatten must halve rather than walk.
    n = 3 * BLOCK + 5
    return MultiGraph(n, np.column_stack([np.arange(n - 1), np.arange(1, n)]))


def _random_path_over_blocks(rng):
    # The rows run along the path, so a block's rows share their vertices:
    # the hook pass reads the first round's hooks and little else.
    n = 4 * BLOCK
    labels = rng.permutation(n)
    return MultiGraph(n, np.column_stack([labels[:-1], labels[1:]]))


def _star_over_blocks_with_largest_centre(rng):
    # The first round hooks only the centre, onto the smallest leaf; the
    # hook pass then reads every leaf's row as that leaf and the centre's
    # root, and hooks the leaves one block after another.
    n = 2 * BLOCK + 1
    leaves = rng.permutation(n - 1)
    return MultiGraph(n, np.column_stack([leaves, np.full(n - 1, n - 1)]))


def _small_components_over_blocks(rng):
    # Pairs joined by two parallel rows, triangles and 4-cycles under random
    # labels: n rows, and every component is finished after the first round
    # and the hook pass.
    kinds = rng.integers(2, 5, size=BLOCK)
    n = int(kinds.sum())
    first = np.cumsum(kinds) - kinds
    offsets = np.arange(n) - np.repeat(first, kinds)
    nxt = np.where(offsets + 1 == np.repeat(kinds, kinds), np.repeat(first, kinds), np.arange(1, n + 1))
    edges = np.column_stack([np.arange(n), nxt])
    return MultiGraph(n, rng.permutation(n)[edges])


def _loops_and_parallel_edges_over_blocks(rng):
    # Every vertex carries a loop, and each row of a random forest of
    # paths appears twice, in either order: the rows are dense, most of
    # them repeats.
    n = 3 * BLOCK
    labels = rng.permutation(n)
    steps = np.column_stack([labels[:-1], labels[1:]])[rng.random(n - 1) < 0.9]
    loops = np.column_stack([np.arange(n), np.arange(n)])
    return MultiGraph(n, np.concatenate([steps, loops, steps[:, ::-1]]))


def _configuration_rows_sorted_by_larger_end(rng):
    # A mixture graph over three blocks with its rows sorted by their larger
    # end: each block's rows share their larger ends, the order in which a
    # hook pass without a first round before it hooks no more than that
    # round does.
    graph = _configuration_graph_over_blocks(rng)
    return MultiGraph(graph.n, graph.edges[np.argsort(graph.edges[:, 1], kind="stable")])


# Graphs with at least 0.9 n rows, whose census takes the hook pass: the
# networkx checks above run them through it, not around it.
HOOK_PASS_GRAPHS = (
    "path_in_label_order",
    "random_path_over_blocks",
    "star_over_blocks_with_largest_centre",
    "small_components_over_blocks",
    "loops_and_parallel_edges_over_blocks",
    "configuration_rows_sorted_by_larger_end",
)


ADVERSARIAL_GRAPHS = {
    "path_in_label_order": _path_in_label_order,
    "random_path_over_blocks": _random_path_over_blocks,
    "star_over_blocks_with_largest_centre": _star_over_blocks_with_largest_centre,
    "small_components_over_blocks": _small_components_over_blocks,
    "loops_and_parallel_edges_over_blocks": _loops_and_parallel_edges_over_blocks,
    "configuration_rows_sorted_by_larger_end": _configuration_rows_sorted_by_larger_end,
    "random_path": _random_path,
    "configuration_graph_over_blocks": _configuration_graph_over_blocks,
    "isolated_vertices_around_a_path": _isolated_vertices_around_a_path,
    "short_cycles_beside_a_long_one": _short_cycles_beside_a_long_one,
    "star_with_largest_centre": _star_with_largest_centre,
    "interleaved_cycles": _interleaved_cycles,
    "tied_sizes_under_random_labels": _tied_sizes_under_random_labels,
    "two_largest_tie_away_from_vertex_0": _two_largest_tie_away_from_vertex_0,
    "second_largest_holds_vertex_0": _second_largest_holds_vertex_0,
    "parallel_edges_and_loops_only": lambda rng: MultiGraph(
        7, [[0, 0], [2, 1], [1, 2], [1, 2], [3, 3], [3, 3], [6, 4], [4, 6], [5, 5]]
    ),
    "one_vertex": lambda rng: MultiGraph(1, []),
    "one_vertex_with_loops": lambda rng: MultiGraph(1, [[0, 0], [0, 0]]),
    "zero_edges": lambda rng: MultiGraph(5, []),
    "zero_edges_many_vertices": lambda rng: MultiGraph(10_000, []),
}


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_GRAPHS))
def test_components_match_networkx_on_adversarial_graphs(name):
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    sizes, labels = networkx_census(graph)
    cen = components(graph)
    assert component_order(cen)[0].tolist() == sizes
    assert np.array_equal(component_id(cen), labels)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_GRAPHS))
def test_numbering_matches_the_argsort_oracle(name):
    # The key-sort numbering of `component_order` against the argsort-and-rank
    # numbering of the census's own roots, and the roots against each
    # component's smallest vertex.
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    cen = components(graph)
    ordered_sizes, ordered_roots = component_order(cen)
    sizes, ids = numbering_oracle(cen.parent)
    assert np.array_equal(ordered_sizes, sizes)
    assert np.array_equal(component_id(cen), ids)
    assert np.array_equal(cen.parent, ordered_roots[component_id(cen)])
    smallest = np.full(ordered_roots.size, graph.n)
    np.minimum.at(smallest, component_id(cen), np.arange(graph.n))
    assert np.array_equal(ordered_roots, smallest)
    assert np.array_equal(cen.giant_mask(), component_id(cen) == 0)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_GRAPHS))
def test_readers_agree_with_the_component_order(name):
    # Each reader gets a fresh census, its components in the vertex order
    # of their roots.
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    ordered = components(graph)
    sizes, ids = component_order(ordered)[0], component_id(ordered)

    def read(reader):
        return reader(components(graph))

    assert read(lambda cen: cen.largest) == sizes[0]
    assert read(lambda cen: cen.second_largest) == (sizes[1] if sizes.size > 1 else 0)
    present = np.unique(sizes).tolist()
    absent = 1 + sizes[0]
    counts = read(lambda cen: [cen.vertices_in_components_of_size(k) for k in present + [absent]])
    assert counts == [k * int(np.count_nonzero(sizes == k)) for k in present] + [0]
    assert np.array_equal(read(lambda cen: cen.giant_mask()), ids == 0)
    component_size = sizes.take(ids)
    for prop, expected in (
        (ComponentSizeExactly(int(sizes[0])), component_size == sizes[0]),
        (ComponentSizeAtLeast(2), component_size >= 2),
    ):
        assert np.array_equal(read(lambda cen: property_mask(graph, prop, cen)), expected), prop


def test_tied_giant_is_the_component_with_the_smaller_root():
    graph = ADVERSARIAL_GRAPHS["two_largest_tie_away_from_vertex_0"](np.random.default_rng(1982))
    cen = components(graph)
    assert cen.largest == cen.second_largest == 4000
    roots, sizes = np.unique(cen.parent, return_counts=True)
    tied = roots[sizes == 4000]
    assert np.array_equal(cen.giant_mask(), cen.parent == tied.min())
    ordered_roots = component_order(cen)[1]
    assert ordered_roots[:2].tolist() == tied.tolist() and ordered_roots[0] != 0


@st.composite
def graph_pairs(draw):
    """Two multigraphs on one vertex set; either may have no edges."""
    n = draw(st.integers(1, 10))
    vertex = st.integers(0, n - 1)
    rows = st.lists(st.tuples(vertex, vertex), max_size=2 * n)
    return MultiGraph(n, draw(rows)), MultiGraph(n, draw(rows))


def assert_grows_to_the_union(a: MultiGraph, b: MultiGraph) -> None:
    """The census of b grown from the parent array of a's is the census of
    a's and b's rows together, from scratch and by networkx, and its parent
    is that array, grown in place."""
    union = MultiGraph(a.n, np.concatenate([a.edges, b.edges]))
    start = components(a).parent
    grown = components(b, start=start)
    assert grown.parent is start
    fresh = components(union)
    assert np.array_equal(grown.parent, fresh.parent)
    assert np.array_equal(grown.roots, fresh.roots)
    assert np.array_equal(grown.sizes, fresh.sizes)
    sizes, labels = networkx_census(union)
    assert component_order(grown)[0].tolist() == sizes
    assert np.array_equal(component_id(grown), labels)


@given(graph_pairs())
@example((MultiGraph(4, []), MultiGraph(4, [[0, 1], [2, 2], [3, 2]])))
@example((MultiGraph(4, [[1, 1], [0, 3], [3, 0]]), MultiGraph(4, [])))
@example((MultiGraph(3, []), MultiGraph(3, [])))
def test_census_grown_from_a_start_matches_the_union(pair):
    assert_grows_to_the_union(*pair)


@pytest.mark.parametrize("name", sorted(ADVERSARIAL_GRAPHS))
def test_census_grown_from_half_the_rows_matches_the_union(name):
    # Each row goes to one half at random, so the start census is in pieces
    # that the other half joins; on the random path that takes many rounds.
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    first = np.random.default_rng(2001).random(graph.num_edges) < 0.5
    halves = [MultiGraph(graph.n, graph.edges[keep]) for keep in (first, ~first)]
    assert_grows_to_the_union(*halves)
    assert_grows_to_the_union(*halves[::-1])


def count_hook_passes(monkeypatch) -> list:
    """Record the rows of each hook pass that ``components`` makes."""
    calls = []
    hook_rows = census._hook_rows

    def counted(parent, edges):
        calls.append(edges.shape[0])
        hook_rows(parent, edges)

    monkeypatch.setattr(census, "_hook_rows", counted)
    return calls


@pytest.mark.parametrize("name", HOOK_PASS_GRAPHS)
def test_dense_graphs_take_the_hook_pass(monkeypatch, name):
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    passes = count_hook_passes(monkeypatch)
    components(graph)
    assert passes == [graph.num_edges]


@pytest.mark.parametrize("name", HOOK_PASS_GRAPHS)
def test_flatten_points_every_vertex_at_its_root(name):
    # The first round's parents, flattened in place by ``_jump`` a block of
    # vertices at a time, against following each vertex's pointers one step
    # at a time on a copy.
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    parent = np.arange(graph.n)
    np.minimum.at(parent, graph.edges[:, 1], graph.edges[:, 0])
    roots = parent.copy()
    while not np.array_equal(roots, parent[roots]):
        roots = parent[roots]
    for first in range(0, graph.n, BLOCK):
        census._jump(parent, slice(first, first + BLOCK))
    assert np.array_equal(parent, roots)


def test_sparse_graphs_skip_the_hook_pass(monkeypatch):
    # 0.4 n rows, taken fresh and grown from a start, as a sweep's levels
    # are (on reg3 its first holds 0.45 n rows, the later ones fewer).
    graph = _configuration_graph_over_blocks(np.random.default_rng(1982))
    sparse = MultiGraph(graph.n, graph.edges[: 2 * graph.n // 5])
    passes = count_hook_passes(monkeypatch)
    start = components(sparse).parent
    components(sparse, start=start)
    assert passes == []


@pytest.mark.parametrize("name", HOOK_PASS_GRAPHS)
def test_census_grown_from_a_hooked_census_matches_the_union(monkeypatch, name):
    # Nineteen rows in twenty go to the start census, which takes the hook
    # pass; the rest, too few for a pass of their own, are hooked into its
    # parent array in rounds.
    graph = ADVERSARIAL_GRAPHS[name](np.random.default_rng(1982))
    first = np.random.default_rng(2001).random(graph.num_edges) < 0.95
    start, rest = (MultiGraph(graph.n, graph.edges[keep]) for keep in (first, ~first))
    passes = count_hook_passes(monkeypatch)
    components(start)
    assert passes == [start.num_edges]
    monkeypatch.undo()
    assert_grows_to_the_union(start, rest)


def test_census_grown_by_dense_rows_matches_the_union(monkeypatch):
    # One row in twenty goes to the start census, too few for the hook
    # pass; the rest take it from the start's roots.
    graph = _configuration_graph_over_blocks(np.random.default_rng(1982))
    first = np.random.default_rng(2001).random(graph.num_edges) < 0.05
    start, rest = (MultiGraph(graph.n, graph.edges[keep]) for keep in (first, ~first))
    passes = count_hook_passes(monkeypatch)
    assert_grows_to_the_union(start, rest)
    assert passes == [rest.num_edges, graph.num_edges]


def _sparse_random_rows(rng, n):
    m = int(rng.integers(n // 4, 4 * n // 5))
    return rng.integers(0, n, size=(m, 2))


def _path_rows(rng, n, labels, shuffled):
    # A path through 4/5 of the vertices, the rest isolated.
    path = labels[: 4 * n // 5]
    rows = np.column_stack([path[:-1], path[1:]])
    return rows[rng.permutation(rows.shape[0])] if shuffled else rows


def _random_forest_rows(rng, n):
    # Each vertex after the first hooks onto a uniform earlier one with
    # probability 4/5 (a forest of random recursive trees), under random
    # labels, the rows in random order.
    children = np.flatnonzero(rng.random(n) < 0.8)
    children = children[children > 0]
    parents = (rng.random(children.size) * children).astype(np.int64)
    labels = rng.permutation(n)
    rows = labels[np.column_stack([parents, children])]
    return rows[rng.permutation(rows.shape[0])]


SPARSE_ROWS = {
    "random_rows": _sparse_random_rows,
    "path_in_label_order": lambda rng, n: _path_rows(rng, n, np.arange(n), False),
    "path_in_label_order_shuffled_rows": lambda rng, n: _path_rows(rng, n, np.arange(n), True),
    "random_path": lambda rng, n: _path_rows(rng, n, rng.permutation(n), False),
    "random_path_shuffled_rows": lambda rng, n: _path_rows(rng, n, rng.permutation(n), True),
    "random_forest": _random_forest_rows,
}


@pytest.mark.parametrize("name", sorted(SPARSE_ROWS))
@pytest.mark.parametrize("seed", range(3))
def test_sparse_census_from_scratch_matches_scipy(monkeypatch, name, seed):
    # Graphs of fewer than 0.9 n rows over four blocks and more: the census
    # goes from its first round to the re-read without a flatten. Each
    # vertex's root is its component's smallest vertex by scipy's labels.
    rng = np.random.default_rng([seed, sorted(SPARSE_ROWS).index(name)])
    n = 4 * BLOCK + int(rng.integers(0, BLOCK))
    graph = MultiGraph(n, SPARSE_ROWS[name](rng, n))
    assert 10 * graph.num_edges < 9 * n
    passes = count_hook_passes(monkeypatch)
    cen = components(graph)
    assert passes == []
    rows = graph.edges
    adjacency = coo_matrix((np.ones(rows.shape[0]), (rows[:, 0], rows[:, 1])), shape=(n, n))
    count, labels = connected_components(adjacency, directed=False)
    smallest = np.full(count, n)
    np.minimum.at(smallest, labels, np.arange(n))
    assert np.array_equal(cen.parent, smallest[labels])
    assert np.array_equal(cen.roots, np.sort(smallest))
    assert np.array_equal(cen.sizes, np.bincount(labels)[np.argsort(smallest)])


def test_start_census_must_cover_the_same_vertices():
    with pytest.raises(ValueError):
        components(MultiGraph(3, [[0, 1]]), start=components(MultiGraph(4, [])).parent)


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


def test_max_degree_ball_on_a_configuration_graph_matches_neighborhoods():
    law = Distribution([(1, 0.45), (2, 0.2), (3, 0.25), (5, 0.1)])
    rng = np.random.default_rng(8)  # two loops and two repeated pairs
    graph = to_multigraph(sample_pairing(sample_degree_sequence(law, 2000, rng), rng))
    loops = graph.edges[:, 0] == graph.edges[:, 1]
    assert loops.any() and not is_simple(MultiGraph(graph.n, graph.edges[~loops]))
    degrees = graph.degrees()
    balls = [neighborhood(graph, v, 5) for v in range(graph.n)]
    for t in range(6):
        heaviest = np.array([degrees[ball.vertices[ball.distances <= t]].max() for ball in balls])
        for delta in range(1, 7):
            mask = property_mask(graph, MaxDegreeBall(delta, t))
            assert np.array_equal(mask, heaviest <= delta), (delta, t)
