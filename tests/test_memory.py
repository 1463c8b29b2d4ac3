"""Peak allocations of the graph pipeline's stages, traced by tracemalloc.

Each stage runs at n = 10^5, on the mixture {1: 1/2, 3: 1/2} (about 10^5
edges) unless the test names another law, on a graph built before tracing
starts, so the peak counts only what the stage allocates. Bounds are
multiples of the edge array's bytes E, or of an n-sized int64 array where
the edges are few; each test gives the measured peak (numpy 2.4) and the
peak of the wasteful variant that its bound rules out.
"""

import tracemalloc

import numpy as np
import pytest

from gclab.census import components, property_mask
from gclab.configuration import conf_distance, sample_degree_sequence, sample_multigraph
from gclab.distributions import Distribution
from gclab.labcli import parse_property_spec
from gclab.percolation import percolate


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


def test_degrees_allocates_only_its_output(graph):
    # Measured: 5.5 KB beyond the output. bincount would first copy the
    # read-only edge array: E more.
    peak, degrees = traced_peak(graph.degrees)
    assert peak <= degrees.nbytes + 64 * 1024


def test_conf_distance_allocates_only_its_counts(degree_sequence, mixture):
    # Measured: 5.5 KB; its counts are four entries wide. bincount would
    # first copy the read-only degrees: 800 KB.
    peak, _ = traced_peak(lambda: conf_distance(degree_sequence, mixture))
    assert peak <= 64 * 1024


def test_sample_multigraph_peak(degree_sequence):
    # Measured: 2.00 E (the shuffled owners, then the (min, max) rows). A
    # stub permutation, two endpoint gathers and their stacked copy: 5.00 E.
    rng = np.random.default_rng(13)
    peak, graph = traced_peak(lambda: sample_multigraph(degree_sequence, rng))
    assert peak <= 2.25 * graph.edges.nbytes


def test_components_peak(graph):
    # Measured: 1.94 E, of which 0.19 E is the index array compress builds
    # for the rows that survive round 1 (1.75 E with boolean-mask
    # survivors). Copying the loop-free edges before the first round and
    # re-reading both endpoints at once: 3.06 E. A take on the strided
    # first-round columns: 2.0006 E.
    peak, _ = traced_peak(lambda: components(graph))
    assert peak <= 2.0 * graph.edges.nbytes


def test_components_peak_when_components_finish_early():
    # On {0: 9/10, 2: 1/10} nine vertices in ten are finished roots from the
    # start. Measured: 4.70 n-sized int64 arrays. Whole-array rounds with
    # the cumsum renumbering of the roots: 6.60. Renumbering all surviving
    # roots every round, which keeps the finished ones in its working set:
    # 6.50 in its leanest form.
    n = 100_000
    law = Distribution([(0, 0.9), (2, 0.1)])
    rng = np.random.default_rng(14)
    graph = sample_multigraph(sample_degree_sequence(law, n, rng), rng)
    peak, _ = traced_peak(lambda: components(graph))
    assert peak <= 5.5 * 8 * n


def test_percolate_peak(graph):
    # Measured: 2.06 E at p = 1 (the kept rows, then the (min, max) copy
    # MultiGraph makes of them), 1.06 E at p = 0.5. A take or compress on
    # the strided columns, or a second copy of the kept rows: 3.06 E or more.
    rng = np.random.default_rng(15)
    peak, _ = traced_peak(lambda: percolate(graph, 1.0, rng))
    assert peak <= 2.25 * graph.edges.nbytes


def test_property_mask_peak(graph):
    # Measured: 0.63 E. Gathering int64 component sizes per vertex and a
    # degree count that copies the edges: 1.56 E.
    census = components(graph)
    prop = parse_property_spec("max_degree_ball:3,2&component_at_least:2")
    peak, _ = traced_peak(lambda: property_mask(graph, prop, census))
    assert peak <= 1.0 * graph.edges.nbytes
