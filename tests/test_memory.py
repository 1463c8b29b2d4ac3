"""Peak allocations of the graph pipeline's stages, traced by tracemalloc.

Each stage runs at n = 10^5, on the mixture {1: 1/2, 3: 1/2} (about 10^5
edges) unless the test names another law, on a graph built before tracing
starts, so the peak counts only what the stage allocates. Where the
census's tail or the local counts after it set the peak only at larger n,
a test runs the stage at n = 10^6 as well. Bounds are
multiples of the edge array's bytes E, or of an n-sized int64 array where
the edges are few; each test gives the measured peak (numpy 2.4) and the
peak of the wasteful variant that its bound rules out.
"""

import tracemalloc

import numpy as np
import pytest

from gclab.census import components, property_mask
from gclab.configuration import (
    MultiGraph,
    conf_distance,
    is_simple,
    sample_degree_sequence,
    sample_multigraph,
    sample_simple,
)
from gclab.distributions import Distribution
from gclab.labcli import (
    cmd_giant,
    cmd_local_census,
    cmd_percolation_sweep,
    parse_property_spec,
    trial_rng,
)
from gclab.percolation import percolate, retention_levels


def traced_peak(call):
    """(peak bytes allocated while call() runs, its result)."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def degree_sequence(mixture):
    return sample_degree_sequence(mixture, 100_000, np.random.default_rng(11))


@pytest.fixture(scope="module")
def graph(degree_sequence):
    return sample_multigraph(degree_sequence, np.random.default_rng(12))


@pytest.fixture(scope="module")
def large_graph(mixture):
    # At n = 10^6 a block's temporaries weigh a tenth of what they weigh at
    # 10^5, so the census's rounds no longer set its peak: its tail does.
    degree_sequence = sample_degree_sequence(mixture, 1_000_000, np.random.default_rng(11))
    return sample_multigraph(degree_sequence, np.random.default_rng(12))


def test_degrees_allocates_only_its_output(graph):
    # Measured: 5.5 KB beyond the output. bincount would first copy the
    # read-only edge array: E more.
    peak, degrees = traced_peak(graph.degrees)
    assert peak <= degrees.nbytes + 64 * 1024


def test_conf_distance_allocates_only_its_counts(degree_sequence, mixture):
    # Measured: 5.5 KB; its counts are four entries wide. bincount would
    # first copy the read-only degrees: 800 KB.
    peak, _ = traced_peak(lambda: conf_distance(degree_sequence.degrees, mixture))
    assert peak <= 64 * 1024


def test_degree_draw_peak(mixture):
    # Measured: 1.26 n-sized int64 arrays (the uniforms, whose buffer takes
    # the values a block at a time, and the degree sequence's checks).
    # Values in an array of their own beside the uniforms, as searchsorted
    # returns them: 2.00. A guide table read with whole-array products,
    # indices and gathers: 3.13.
    rng = np.random.default_rng(19)
    peak, _ = traced_peak(lambda: sample_degree_sequence(mixture, 100_000, rng))
    assert peak <= 1.35 * 8 * 100_000


def test_sample_multigraph_peak(degree_sequence):
    # Measured: 1.17 E (the shuffled owners, ordered in place as the rows,
    # and one block's repeat temporaries; 1.02 E at n = 10^6). The (min,
    # max) rows as a second array beside the owners, built by one whole
    # np.repeat: 2.00 E; 32768-vertex blocks: 1.66 E. A stub permutation,
    # two endpoint gathers and their stacked copy: 5.00 E.
    rng = np.random.default_rng(13)
    peak, graph = traced_peak(lambda: sample_multigraph(degree_sequence, rng))
    assert peak <= 1.25 * graph.edges.nbytes


def test_components_peak(graph, large_graph):
    # Measured: 0.75 E, in the first round, the hook pass, the flatten and
    # the re-read after them (the parents, a flag per row and a block's
    # temporaries; 0.57 E at n = 10^6, where the blocks weigh less). The
    # tail that counts by the roots' ranks holds the parents, a flag per
    # vertex and the roots: 0.62 E (0.60 E at n = 10^6; 0.65 and 0.64 E
    # with the flags kept through the rank read). A count of length
    # n at the end (bincount's counts beside the parents, a flag per count,
    # the roots and their sizes): 1.10 E. The first round's whole-array gather
    # into a copy, and a second round that jumps the hooked ends of the
    # 37.5% of rows that survive it (its two gathers beside those ends):
    # 1.27 E. Re-reading both ends of every row at once and compressing
    # them: 1.94 E. Copying the loop-free edges before the first round as
    # well: 3.06 E.
    peak, _ = traced_peak(lambda: components(graph))
    assert peak <= 0.8 * graph.edges.nbytes
    # At n = 10^6 the peak is in the tail. Measured: 0.60 E, where the roots
    # are read from the flags (the parents, the flags and the roots); the
    # rounds 0.57 E. The flags kept until the roots' ranks are read, each
    # block's read masked by them: 0.64 E.
    peak, _ = traced_peak(lambda: components(large_graph))
    assert peak <= 0.62 * large_graph.edges.nbytes


def test_components_peak_when_components_finish_early():
    # On {0: 9/10, 2: 1/10} nine vertices in ten are finished roots from the
    # start. Measured: 3.80 n-sized int64 arrays (4.70 with component ids
    # built up front and numbered by argsort). Whole-array rounds with the
    # cumsum renumbering of the roots: 6.60. Renumbering all surviving roots
    # every round, which keeps the finished ones in its working set: 6.50
    # in its leanest form.
    n = 100_000
    law = Distribution([(0, 0.9), (2, 0.1)])
    rng = np.random.default_rng(14)
    graph = sample_multigraph(sample_degree_sequence(law, n, rng), rng)
    peak, _ = traced_peak(lambda: components(graph))
    assert peak <= 5.5 * 8 * n


def test_components_peak_when_every_vertex_is_a_root():
    # Without edges the census holds n roots. Measured: 4.00 n-sized int64
    # arrays (the parents, the roots, the root counts and the roots' sizes
    # gathered from them). A stable argsort of the root sizes and a rank per
    # root, gathered into component ids up front: 5.01.
    n = 100_000
    graph = MultiGraph(n, np.empty((0, 2), dtype=np.int64))
    peak, _ = traced_peak(lambda: components(graph))
    assert peak <= 4.5 * 8 * n


def test_components_peak_on_a_path_of_many_rounds():
    # A randomly labelled path takes 10 rounds. The first round and the
    # hook pass leave a ninth of the rows to round 2, and rounds 2-10 keep
    # their hooked ends for the relabel, 0.17 n in all, 0.11 n of it from
    # round 2. Measured:
    # 1.49 n-sized int64 arrays, in the hook pass (the parents and a block's
    # temporaries); round 2's jump 1.46, the tail that counts by the roots'
    # ranks 1.22. A count of length n at the end (the parents, bincount's
    # counts and a flag per count): 2.13. The first round's gather into a copy
    # without the hook pass leaves a third of the rows, and the peak in
    # round 2's jump (the parents, those rows' ends and the jump's two
    # gathers): 2.37. Re-reading both ends of every row at once: 3.79;
    # keeping those ends as well: 4.00.
    n = 100_000
    labels = np.random.default_rng(16).permutation(n)
    graph = MultiGraph(n, np.column_stack([labels[:-1], labels[1:]]))
    peak, census = traced_peak(lambda: components(graph))
    assert census.largest == n
    assert peak <= 1.6 * 8 * n


def test_components_peak_when_grown_from_a_start(graph):
    # The rows marked at or above 1/2, hooked into the parent array of the
    # rest's census, grown in place. Measured: 2.05 n-sized int64 arrays
    # (1.03 E), in the first round's jump: the half's re-read ends, nearly
    # all of which differ, and the jump's two gathers. Copying the start's
    # parents first: 3.05. Re-reading all of the half's ends at once and
    # compressing them as well: 3.39. The census of all the rows from
    # scratch with whole-array re-reads: 3.87.
    n = graph.n
    below, above = retention_levels(graph, [0.5, 1.0], np.random.default_rng(17))
    start = components(below).parent
    peak, census = traced_peak(lambda: components(above, start=start))
    assert census.largest == components(graph).largest
    assert peak <= 2.15 * 8 * n


def op_edge_bytes(law, seed, n=100_000):
    """E of an op at n (10^5 by default) with its own graph: 16 bytes per
    stub pair of the op's first degree draw."""
    return 16 * sample_degree_sequence(law, n, trial_rng(seed, 0)).size


@pytest.mark.parametrize("seed", [1, 2])
def test_local_census_op_peak(mixture, seed):
    # The whole op at the benchmark's spec, with its own graph: E is that
    # graph's edge bytes, 16 per stub pair of the op's degree draw. Its peak
    # is the census beside the graph and the property's bools, which are
    # decided before the census from the degrees of the draw, dropped
    # before it. Measured: 1.81 and 1.81 E. The census ending in a count of
    # length n: 2.17 and 2.17 E. The drawn degrees kept alive through the
    # census as well: 2.67 and 2.67 E. The
    # census without its hook pass (its peak in round 2's jump), with the
    # degree and ball clauses decided after it: 2.28 and 2.28 E (2.27 E,
    # 36.4 MB, at n = 10^6). Both ends of every row re-read at once beside
    # the graph as well: 2.94 E.
    spec = "max_degree_ball:3,2&component_at_least:2"
    edge_bytes = op_edge_bytes(mixture, seed)
    peak, _ = traced_peak(lambda: cmd_local_census(mixture, 100_000, spec, seed))
    assert peak <= 1.9 * edge_bytes
    # At n = 10^6 the peak follows the census: the size window and the
    # giant's hits, counted a block of vertices at a time beside the census,
    # the mask and the window's flag per vertex. Measured: 1.70 and 1.70 E.
    # The window gathered for every vertex at once, the giant's mask and
    # its conjunction with the property's: 1.76 and 1.76 E.
    edge_bytes = op_edge_bytes(mixture, seed, 1_000_000)
    peak, _ = traced_peak(lambda: cmd_local_census(mixture, 1_000_000, spec, seed))
    assert peak <= 1.73 * edge_bytes


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param("root_degree:3&max_degree_ball:2,1", id="degree-and-radius-1"),
        pytest.param("max_degree_ball:2,3", id="radius-3"),
    ],
)
def test_local_census_op_peak_with_ball_sources(mixture, spec):
    # Every degree-3 vertex of the mixture is a source of a ball clause with
    # delta = 2, so the BFS runs. Each step marks the rows' ends a block of
    # rows at a time beside two flags per vertex, and the clause is negated
    # in place, so the peak is the census's, as for the benchmark's spec.
    # Measured: 1.81 and 1.81 E. Whole-array steps (each gathers the flags
    # of every row's ends and the ends they reach) and a negated copy: 2.19
    # and 2.28 E.
    edge_bytes = op_edge_bytes(mixture, 1)
    peak, _ = traced_peak(lambda: cmd_local_census(mixture, 100_000, spec, 1))
    assert peak <= 1.9 * edge_bytes


BENCH_GRID = [0.3, 0.45, 0.5, 0.55, 0.7]


@pytest.mark.parametrize(
    "law, grid, bound",
    [
        pytest.param("mixture", BENCH_GRID, 3.0, id="mixture-3.0"),
        pytest.param("regular3", BENCH_GRID, 2.40, id="regular3-2.4"),
        pytest.param("mixture", [0.0, 1.0], 3.65, id="mixture-p0,1-3.65"),
        pytest.param("regular3", [0.0, 1.0], 3.2, id="regular3-p0,1-3.2"),
    ],
)
def test_sweep_op_peak(request, law, grid, bound):
    # The whole op, over the benchmark's grid and over p = 0 and 1. Its
    # peak is in a census: the levels still to come (at p = 1 every row),
    # the red degrees and the parents beside the census's working set.
    # Measured: 2.91 and 2.34 E on the mixture and reg3 over the benchmark's
    # grid, 3.51 and 3.06 E over 0 and 1, where the census at p = 1 holds
    # every row and takes the hook pass, which leaves few rows to re-read.
    # Re-reading and hooking every row in rounds there: 4.07 and 3.73 E.
    # Keeping the last census alive through the next, which copies its
    # parents: 3.66, 2.34, 5.57 and 4.73 E. Keeping as well the degree
    # sequence, the graph and every finished level alive through the census
    # loop, and ending the census with a whole-array gather: 5.46 and
    # 3.95 E over the benchmark's grid.
    dist = request.getfixturevalue(law)
    edge_bytes = op_edge_bytes(dist, 1)
    peak, _ = traced_peak(lambda: cmd_percolation_sweep(dist, 100_000, grid, 1, 1))
    assert peak <= bound * edge_bytes


@pytest.mark.parametrize(
    "law, simple, trials, seed, bound, large_bound",
    [
        pytest.param("mixture", False, 1, 1, 1.85, 1.62, id="mixture-seed1"),
        pytest.param("mixture", False, 1, 2, 1.85, 1.62, id="mixture-seed2"),
        pytest.param("mixture", False, 2, 1, 1.85, 1.62, id="mixture-two-trials"),
        pytest.param("regular3", True, 1, 1, 2.0, None, id="regular3-simple"),
    ],
)
def test_giant_op_peak(request, law, simple, trials, seed, bound, large_bound):
    # The whole op; its peak is the census beside the graph. Measured: 1.75
    # and 1.75 E on the mixture, 1.76 E over two trials, 1.90 E for reg3
    # with --simple, whose peak is in drawing the simple graph (the census
    # beside it: 1.50 E). The census ending in a count of length n: 2.11,
    # 2.11, 2.11 and 1.90 E. The census without its hook pass as well:
    # 2.27, 2.28, 2.30 and 2.37 E. The degree sequence alive through the
    # census as well: 2.78
    # and 2.70 E; the first trial's census alive through the second's:
    # 2.87 E, and with its degree sequence and graph as well: 3.37 E.
    dist = request.getfixturevalue(law)
    edge_bytes = op_edge_bytes(dist, seed)
    peak, _ = traced_peak(lambda: cmd_giant(dist, 100_000, trials, seed, simple=simple))
    assert peak <= bound * edge_bytes
    if large_bound is None:
        return
    # At n = 10^6 the census's tail sets the op's peak. Measured: 1.60, 1.60
    # and 1.60 E. The flags kept until the roots' ranks are read, each
    # block's read masked by them: 1.64, 1.64 and 1.64 E.
    edge_bytes = op_edge_bytes(dist, seed, 1_000_000)
    peak, _ = traced_peak(lambda: cmd_giant(dist, 1_000_000, trials, seed, simple=simple))
    assert peak <= large_bound * edge_bytes


def test_sample_simple_peak_after_rejections(regular3):
    # reg3 at n = 10^5 is simple with probability about e^-2; at this seed
    # the fifth draw is. Measured: 1.56 E (the accepted graph and the
    # simplicity test's sorted pair keys), as for a first draw accepted.
    # Keeping each rejected graph alive beside the next draw: 2.14 E.
    ds = sample_degree_sequence(regular3, 100_000, np.random.default_rng(100))
    draws = np.random.default_rng(100)
    attempts = 1
    while not is_simple(sample_multigraph(ds, draws)):
        attempts += 1
    assert attempts == 5
    peak, graph = traced_peak(lambda: sample_simple(ds, np.random.default_rng(100), 200))
    assert peak <= 1.65 * graph.edges.nbytes


def test_percolate_peak(graph):
    # Measured: 1.56 E at p = 1 (the kept rows and the index array compress
    # builds for them), 0.81 E at p = 0.5. Passing the kept rows through
    # MultiGraph's check and (min, max) copy: 2.06 E. A take or compress on
    # the strided columns: 3.06 E or more.
    rng = np.random.default_rng(15)
    peak, _ = traced_peak(lambda: percolate(graph, 1.0, rng))
    assert peak <= 1.75 * graph.edges.nbytes


@pytest.mark.parametrize("k", [2, 101, 1001])
def test_retention_levels_peak_does_not_grow_with_the_grid(graph, k):
    # Measured: 2.04, 1.69 and 1.82 E at k = 2, 101 and 1001 (the marks,
    # one band's mask, the kept rows and the index array compress builds
    # for the widest band). Holding k masks marked below each p and k
    # masks of the rows that enter there: 1.66, 13.6 and 126 E.
    grid = np.linspace(0.05, 1.0, k).tolist()
    rng = np.random.default_rng(18)
    peak, _ = traced_peak(lambda: retention_levels(graph, grid, rng))
    assert peak <= 2.25 * graph.edges.nbytes


def test_property_mask_peak(graph):
    # Measured: 0.63 E, in the degree count (the degrees, the mask and the
    # ball clause's sources). Gathering int64 component sizes per vertex
    # and a degree count that copies the edges: 1.56 E.
    census = components(graph)
    prop = parse_property_spec("max_degree_ball:3,2&component_at_least:2")
    peak, _ = traced_peak(lambda: property_mask(graph, prop, census))
    assert peak <= 0.65 * graph.edges.nbytes
    # The size window alone, applied in place a block of vertices at a time
    # beside the mask and the window's flag per vertex. Measured: 0.13 E.
    # A window mask gathered for every vertex at once: 0.19 E.
    prop = parse_property_spec("component_at_least:2")
    peak, _ = traced_peak(lambda: property_mask(graph, prop, census))
    assert peak <= 0.15 * graph.edges.nbytes
