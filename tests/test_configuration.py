import numpy as np
import pytest
from scipy import stats

from gclab import configuration
from gclab.configuration import (
    BLOCK,
    DegreeSequence,
    MultiGraph,
    Pairing,
    apply_switching,
    conf_distance,
    is_simple,
    load_degree_sequence,
    sample_degree_sequence,
    sample_multigraph,
    sample_pairing,
    sample_simple,
    to_multigraph,
)
from gclab.census import MaxDegreeBall, RootDegree, Conjunction, components
from gclab.distributions import Distribution
from gclab.errors import Exhausted, SamePair, SpecParseError

from helpers import all_matchings, count_property, degree_counts, matching_key, random_distribution, tail_mass


# ---------------------------------------------------------------------------
# degree sequences


def test_degree_sequence_validation():
    with pytest.raises(ValueError):
        DegreeSequence([1, 1, 1])  # odd sum
    with pytest.raises(ValueError):
        DegreeSequence([])
    with pytest.raises(ValueError):
        DegreeSequence([-1, 1])
    # Sums past int64 would wrap: m = -2^62 and -1 for these two.
    for degrees in ([2**62, 2**62], [2**63 - 1] * 2):
        with pytest.raises(ValueError):
            DegreeSequence(degrees)
    assert DegreeSequence([2**62 - 1] * 2).size == 2**62 - 1


@pytest.mark.parametrize(
    "build, accepted",
    [
        (lambda: DegreeSequence([1.5, 2.5, 3.9]), False),
        (lambda: MultiGraph(3, [[0.5, 1.7]]), False),
        (lambda: DegreeSequence([True, True]), False),
        (lambda: MultiGraph(3, []), True),
        (lambda: DegreeSequence(np.array([1, 3, 2], dtype=np.uint8)), True),
        (lambda: MultiGraph(3, np.array([[0, 2]], dtype=np.uint8)), True),
    ],
)
def test_graph_input_must_be_integer(build, accepted):
    # A float or bool array would be truncated (1.5 -> 1, True -> 1).
    if accepted:
        built = build()
        values = built.degrees if isinstance(built, DegreeSequence) else built.edges
        assert values.dtype == np.int64
    else:
        with pytest.raises(ValueError, match="integers"):
            build()


def test_degree_counts_cases():
    assert degree_counts(DegreeSequence([1, 1, 3, 3])) == {1: 2, 3: 2}
    assert degree_counts(DegreeSequence([3, 3, 3, 3])) == {3: 4}
    ds = DegreeSequence([0, 0])
    assert degree_counts(ds) == {0: 2}
    assert ds.size == 0


def test_degree_counts_identities(rng):
    for _ in range(10):
        d = random_distribution(rng)
        ds = sample_degree_sequence(d, 200, rng)
        counts = degree_counts(ds)
        assert sum(counts.values()) == len(ds)
        assert sum(i * c for i, c in counts.items()) == 2 * ds.size


# ---------------------------------------------------------------------------
# configuration distance and tails


def test_conf_distance_floor_cases(mixture, regular3):
    # Exact empirical match leaves only the 1/n floor.
    assert conf_distance(np.array([1, 1, 3, 3]), mixture) == pytest.approx(0.25)
    assert conf_distance(np.array([3, 3, 3, 3]), regular3) == pytest.approx(0.25)


def test_conf_distance_mismatch(regular3):
    # |1*1 - 0| + |0 - 3*1| = 4 dominates the 1/2 floor.
    assert conf_distance(np.array([1, 1]), regular3) == pytest.approx(4.0)


def test_tail_mass_cases():
    reg = DegreeSequence([3, 3, 3, 3])
    assert tail_mass(reg, 4) == 0.0
    assert tail_mass(reg, 0) == 3.0
    assert tail_mass(DegreeSequence([1, 1, 1, 9]), 5) == pytest.approx(9 / 4)


# ---------------------------------------------------------------------------
# degree sequence sampling


def test_sample_degree_sequence_point_mass(regular3, rng):
    assert sample_degree_sequence(regular3, 4, rng).degrees.tolist() == [3, 3, 3, 3]
    # Odd total: the final entry absorbs the parity fix.
    assert sample_degree_sequence(regular3, 5, rng).degrees.tolist() == [3, 3, 3, 3, 4]


def test_sample_degree_sequence_cap_is_inclusive(monkeypatch, mixture, rng):
    # E(D) = 2 on the mixture: n = 1000 needs exactly 3000 vertices and stubs.
    monkeypatch.setattr(configuration, "MAX_GRAPH_ELEMENTS", 3000)
    assert len(sample_degree_sequence(mixture, 1000, rng)) == 1000
    with pytest.raises(SpecParseError, match="MAX_GRAPH_ELEMENTS"):
        sample_degree_sequence(mixture, 1001, rng)


def test_sample_degree_sequence_converges(mixture):
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        ds = sample_degree_sequence(mixture, 100_000, rng)
        if conf_distance(ds.degrees, mixture) <= 0.05:
            hits += 1
    assert hits >= 99


# ---------------------------------------------------------------------------
# pairings


def test_pairing_unique_cases(rng):
    p = sample_pairing(DegreeSequence([1, 1]), rng)
    assert matching_key(p.pairs) == ((0, 1),)
    p = sample_pairing(DegreeSequence([2]), rng)
    assert matching_key(p.pairs) == ((0, 1),)
    assert p.n_vertices == 1


def test_pairing_blocks_are_consecutive(rng):
    ds = DegreeSequence([2, 0, 3, 1])
    p = sample_pairing(ds, rng)
    np.testing.assert_array_equal(p.owner, [0, 0, 2, 2, 2, 3])
    assert p.stub_count == 6


def test_pairing_uniform_over_three_matchings():
    rng = np.random.default_rng(8)
    ds = DegreeSequence([1, 1, 1, 1])
    keys = [matching_key(m) for m in all_matchings(list(range(4)))]
    assert len(keys) == 3
    counts = dict.fromkeys(keys, 0)
    draws = 100_000
    for _ in range(draws):
        counts[matching_key(sample_pairing(ds, rng).pairs)] += 1
    for key in keys:
        assert abs(counts[key] / draws - 1 / 3) <= 0.01


def test_pairing_uniformity_chi_square_small_cases():
    rng = np.random.default_rng(21)
    for degrees in ([1, 1, 1, 1], [2, 2], [2, 1, 1]):
        ds = DegreeSequence(degrees)
        keys = [matching_key(m) for m in all_matchings(list(range(2 * ds.size)))]
        index = {k: i for i, k in enumerate(keys)}
        observed = np.zeros(len(keys))
        draws = 30_000
        for _ in range(draws):
            observed[index[matching_key(sample_pairing(ds, rng).pairs)]] += 1
        _, p_value = stats.chisquare(observed)
        assert p_value >= 1e-3


# ---------------------------------------------------------------------------
# multigraph construction


def test_to_multigraph_loop():
    rng = np.random.default_rng(0)
    g = to_multigraph(sample_pairing(DegreeSequence([2]), rng))
    assert g.edges.tolist() == [[0, 0]]
    assert g.degrees().tolist() == [2]  # loop counts twice


def test_to_multigraph_single_edge(rng):
    g = to_multigraph(sample_pairing(DegreeSequence([1, 1]), rng))
    assert g.edges.tolist() == [[0, 1]]


def test_to_multigraph_double_edge():
    # Stubs 0,1 belong to vertex 0 and 2,3 to vertex 1; the crossing
    # matching contracts to a doubled edge.
    pairing = Pairing(4, np.array([[0, 2], [1, 3]]), np.array([0, 0, 1, 1]), 2)
    g = to_multigraph(pairing)
    assert g.edges.tolist() == [[0, 1], [0, 1]]
    assert not is_simple(g)


def test_degree_preservation(rng):
    for _ in range(20):
        d = random_distribution(rng)
        ds = sample_degree_sequence(d, 60, rng)
        g = to_multigraph(sample_pairing(ds, rng))
        np.testing.assert_array_equal(g.degrees(), ds.degrees)
        assert g.num_edges == ds.size


def _over_blocks():
    """Two blocks and a half of vertices: a run of degree-0 vertices across
    the first block edge, and right after it a vertex of degree 1000, whose
    stubs pair among themselves (a loop) in every seeded draw below."""
    degrees = [1, 3, 0] * (5 * BLOCK // 6)
    degrees[BLOCK - 40 : BLOCK + 40] = [0] * 80
    degrees[BLOCK + 40] = 1000
    degrees[-1] += sum(degrees) % 2
    return degrees


@pytest.mark.parametrize(
    "degrees",
    [
        pytest.param([0, 3, 0, 1, 2, 0], id="degree-0-vertices"),
        pytest.param([0, 0, 0], id="no-edges"),
        pytest.param([2], id="single-loop"),
        pytest.param([1, 3, 0] * 400, id="mixture-1200"),
        pytest.param(_over_blocks(), id="over-blocks"),
    ],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sample_multigraph_is_the_pairing_graph(degrees, seed):
    # One shuffle of the stub owners must make the pairing's swaps: the same
    # edges, row for row, and the same generator state afterwards. The rows
    # are also checked against owners and (min, max) order made whole, with
    # no blocks.
    ds = DegreeSequence(degrees)
    shuffled, paired = np.random.default_rng(seed), np.random.default_rng(seed)
    graph = sample_multigraph(ds, shuffled)
    pairing = sample_pairing(ds, paired)
    np.testing.assert_array_equal(graph.edges, to_multigraph(pairing).edges)
    owner = np.repeat(np.arange(len(ds)), degrees)
    np.testing.assert_array_equal(pairing.owner, owner)
    np.testing.assert_array_equal(graph.edges, np.sort(owner[pairing.pairs], axis=1))
    assert graph.n == len(ds)
    assert shuffled.integers(2**62) == paired.integers(2**62)


def test_sample_simple_is_pairing_rejection():
    # sample_simple draws through sample_multigraph; seeded, it must return
    # the graph the rejection loop over sample_pairing returns.
    ds = DegreeSequence([3] * 60)
    for seed in range(5):
        direct, reference = np.random.default_rng(seed), np.random.default_rng(seed)
        graph = sample_simple(ds, direct, max_attempts=200)
        expected = to_multigraph(sample_pairing(ds, reference))
        while not is_simple(expected):
            expected = to_multigraph(sample_pairing(ds, reference))
        np.testing.assert_array_equal(graph.edges, expected.edges)
        assert direct.integers(2**62) == reference.integers(2**62)


# ---------------------------------------------------------------------------
# switchings


def test_switching_literal_recombination(rng):
    ds = DegreeSequence([1, 1, 1, 1])
    pairing = Pairing(4, np.array([[0, 1], [2, 3]]), np.arange(4), 4)
    switched = apply_switching(pairing, 0, 1)
    assert switched.pairs.tolist() == [[0, 2], [1, 3]]
    # Vertex view: matching {01, 23} became {02, 13}.
    assert to_multigraph(switched).edges.tolist() == [[0, 2], [1, 3]]


def test_switching_requires_distinct_pairs(rng):
    pairing = sample_pairing(DegreeSequence([2, 2]), rng)
    with pytest.raises(SamePair):
        apply_switching(pairing, 1, 1)


def test_switching_preserves_matching_and_degrees(rng):
    d = Distribution([(1, 0.4), (2, 0.3), (3, 0.3)])
    ds = sample_degree_sequence(d, 40, rng)
    pairing = sample_pairing(ds, rng)
    for _ in range(200):
        i, j = rng.choice(pairing.pairs.shape[0], size=2, replace=False)
        pairing = apply_switching(pairing, int(i), int(j))
        assert sorted(pairing.pairs.ravel().tolist()) == list(range(pairing.stub_count))
        np.testing.assert_array_equal(to_multigraph(pairing).degrees(), ds.degrees)


def test_switching_component_count_lipschitz(mixture):
    # A switching rewires two edges, so vertex counts in k-components move
    # by at most 4k.
    rng = np.random.default_rng(3)
    ds = sample_degree_sequence(mixture, 150, rng)
    pairing = sample_pairing(ds, rng)
    cen = components(to_multigraph(pairing))
    for _ in range(500):
        i, j = rng.choice(pairing.pairs.shape[0], size=2, replace=False)
        pairing = apply_switching(pairing, int(i), int(j))
        nxt = components(to_multigraph(pairing))
        for k in (1, 2, 3, 5):
            delta = abs(
                nxt.vertices_in_components_of_size(k)
                - cen.vertices_in_components_of_size(k)
            )
            assert delta <= 4 * k
        cen = nxt


def test_switching_bounded_property_lipschitz(mixture):
    # Counts of (t-local property) AND (ball degrees <= delta) move by at
    # most 16 * delta^t per switching.
    rng = np.random.default_rng(4)
    delta, t = 3, 1
    prop = Conjunction((RootDegree(3), MaxDegreeBall(delta, t)))
    ds = sample_degree_sequence(mixture, 120, rng)
    pairing = sample_pairing(ds, rng)
    before = count_property(to_multigraph(pairing), prop)[0]
    for _ in range(300):
        i, j = rng.choice(pairing.pairs.shape[0], size=2, replace=False)
        pairing = apply_switching(pairing, int(i), int(j))
        after = count_property(to_multigraph(pairing), prop)[0]
        assert abs(after - before) <= 16 * delta**t
        before = after


def test_single_edge_edit_property_lipschitz(mixture):
    # One edge insertion or deletion moves the bounded count by <= 4*delta^t.
    rng = np.random.default_rng(5)
    delta, t = 3, 1
    prop = Conjunction((RootDegree(3), MaxDegreeBall(delta, t)))
    ds = sample_degree_sequence(mixture, 120, rng)
    g = to_multigraph(sample_pairing(ds, rng))
    base = count_property(g, prop)[0]
    for _ in range(100):
        # deletion
        drop = int(rng.integers(g.num_edges))
        g_minus = MultiGraph(g.n, np.delete(g.edges, drop, axis=0))
        assert abs(count_property(g_minus, prop)[0] - base) <= 4 * delta**t
        # insertion
        u, v = rng.integers(0, g.n, size=2)
        g_plus = MultiGraph(g.n, np.vstack([g.edges, [[u, v]]]))
        assert abs(count_property(g_plus, prop)[0] - base) <= 4 * delta**t


# ---------------------------------------------------------------------------
# simplicity and rejection sampling


def test_is_simple_cases():
    assert not is_simple(MultiGraph(2, [[0, 0]]))
    assert not is_simple(MultiGraph(2, [[0, 1], [0, 1]]))
    assert is_simple(MultiGraph(3, [[0, 1], [1, 2], [0, 2]]))
    assert is_simple(MultiGraph(3, []))


def test_vertex_count_keeps_pair_keys_in_int64():
    # The pair key u*n + v wraps int64 past n = isqrt(2^63 - 1): at n = 2^33
    # the two distinct pairs below got equal keys and is_simple said False.
    largest = 3_037_000_499
    for n in (largest + 1, 2**33):
        with pytest.raises(ValueError, match="wrap int64"):
            MultiGraph(n, [[0, 2**31 + 1], [2**31, 2**31 + 1]])
    assert is_simple(MultiGraph(largest, [[0, largest - 1], [largest - 2, largest - 1]]))
    assert not is_simple(MultiGraph(largest, [[largest - 2, largest - 1]] * 2))


def test_sample_simple_trivial_success(rng):
    g = sample_simple(DegreeSequence([1, 1]), rng, max_attempts=1)
    assert g.edges.tolist() == [[0, 1]]


def test_sample_simple_exhausts_on_single_loop(rng):
    with pytest.raises(Exhausted) as info:
        sample_simple(DegreeSequence([2]), rng, max_attempts=50)
    assert info.value.attempts == 50


def test_degree_sequence_file_round_trip(tmp_path):
    ds = DegreeSequence([3, 1, 0, 2])
    text_path = tmp_path / "degrees.txt"
    text_path.write_text("3\n1\n0\n2\n")
    assert load_degree_sequence(text_path) == ds
    json_path = tmp_path / "degrees.json"
    json_path.write_text("[3, 1, 0, 2]")
    assert load_degree_sequence(json_path) == ds


@pytest.mark.parametrize(
    "name, content",
    [
        pytest.param("missing.txt", None, id="unreadable"),
        pytest.param("bad.json", "[3, 1,", id="invalid-json"),
        pytest.param("frac.json", "[3, 1.5]", id="json-float"),
        pytest.param("bool.json", "[1, true]", id="json-bool"),
        pytest.param("words.txt", "3\nthree\n", id="text-non-integer"),
        pytest.param("odd.txt", "3\n1\n1\n", id="odd-sum"),
        pytest.param("neg.json", "[2, -2]", id="negative"),
        pytest.param("huge.txt", f"{2**62}\n{2**62}\n", id="sum-overflow"),
    ],
)
def test_load_degree_sequence_refuses_cleanly(tmp_path, name, content):
    path = tmp_path / name
    if content is not None:
        path.write_text(content)
    with pytest.raises(SpecParseError):
        load_degree_sequence(path)


def test_sample_simple_three_regular_rate_and_attempts():
    ds = DegreeSequence([3] * 1000)
    successes = 0
    attempts_used = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        try:
            sample_simple(ds, rng, max_attempts=200)
            successes += 1
        except Exhausted:
            continue
        # Re-run the rejection loop to count attempts for this seed.
        rng2 = np.random.default_rng(seed)
        n_attempts = 0
        while True:
            n_attempts += 1
            g = to_multigraph(sample_pairing(ds, rng2))
            if is_simple(g):
                break
        attempts_used.append(n_attempts)
    assert successes >= 99
    # Independent estimate of Pr(simple) from fresh pairings.
    rng = np.random.default_rng(10_000)
    trials = 2000
    simple_hits = sum(
        is_simple(to_multigraph(sample_pairing(ds, rng))) for _ in range(trials)
    )
    p_hat = simple_hits / trials
    mean_attempts = float(np.mean(attempts_used))
    se_attempts = float(np.std(attempts_used)) / np.sqrt(len(attempts_used))
    se_inverse = (p_hat * (1 - p_hat) / trials) ** 0.5 / p_hat**2
    assert abs(mean_attempts - 1.0 / p_hat) <= 4.0 * (se_attempts + se_inverse)
