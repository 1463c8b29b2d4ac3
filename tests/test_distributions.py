import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gclab.distributions import (
    MAX_SUPPORT,
    Distribution,
    from_json_doc,
    mean,
    offspring,
    sample,
    size_biased,
    supercriticality,
    thin,
    to_json_doc,
)
from gclab.errors import BadProbability, SpecParseError, ZeroMean

from helpers import joint_thinning_oracle, random_distribution


def dense(dist, length):
    return dist.dense(length)


# ---------------------------------------------------------------------------
# construction


def test_constructor_sorts_and_drops_zero_atoms():
    d = Distribution([(3, 0.5), (1, 0.5), (2, 0.0)])
    assert d.masses == [(1, 0.5), (3, 0.5)]


def test_constructor_rejects_bad_masses():
    with pytest.raises(ValueError):
        Distribution([(1, 0.4), (3, 0.4)])  # sums to 0.8
    with pytest.raises(ValueError):
        Distribution([(1, 0.5), (1, 0.5)])  # duplicate value
    with pytest.raises(ValueError):
        Distribution([(1, 1.2), (2, -0.2)])  # negative atom
    with pytest.raises(ValueError):
        Distribution([(-1, 1.0)])  # negative value


def test_constructor_records_truncation_and_renormalizes():
    # Poisson(2) truncated once the remaining tail is below 1e-9.
    lam = 2.0
    masses, total = [], 0.0
    k = 0
    while 1.0 - total > 1e-9:
        p = math.exp(-lam) * lam**k / math.factorial(k)
        masses.append((k, p))
        total += p
        k += 1
    d = Distribution(masses)
    assert 0.0 <= d.truncated_mass <= 1e-9
    assert abs(d.probs.sum() - 1.0) <= 1e-12
    assert abs(mean(d) - lam) <= 1e-7


@pytest.mark.parametrize(
    "masses",
    [
        [(1.5, 0.5), (3, 0.5)],
        [(True, 0.5), (3, 0.5)],
        [(np.bool_(True), 1.0)],
        [(np.float64(1.0), 1.0)],
        [(1, "1.0")],
        [(1, True)],
        [(1, np.bool_(True))],
        [(1, None)],
        [(10**30, 1.0)],
    ],
)
def test_constructor_refuses_inexact_atoms(masses):
    # Nothing is truncated, rounded or parsed: 1.5 is not degree 1, True is
    # not the integer 1, "1.0" is not a number and 10^30 overflows int64.
    with pytest.raises(ValueError):
        Distribution(masses)


def test_constructor_takes_numpy_numbers():
    d = Distribution([(np.int64(1), np.float32(0.5)), (np.int32(3), 0.5)])
    assert d.masses == [(1, 0.5), (3, 0.5)]


def test_probabilities_sum_to_one_within_tolerance():
    d = Distribution([(0, 0.25), (2, 0.25), (5, 0.5)])
    assert abs(d.probs.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# mean


def test_mean_point_mass():
    assert mean(Distribution([(3, 1.0)])) == 3.0


def test_mean_mixture(mixture):
    assert mean(mixture) == 2.0


def test_mean_zero_is_valid_output():
    assert mean(Distribution([(0, 1.0)])) == 0.0


# ---------------------------------------------------------------------------
# size-biasing and offspring


def test_size_biased_regular_is_fixed_point(regular3):
    assert size_biased(regular3).masses == [(3, 1.0)]


def test_size_biased_mixture(mixture):
    # q_i = i * r_i / 2 by hand: q_1 = 1/4, q_3 = 3/4.
    assert size_biased(mixture).masses == [(1, 0.25), (3, 0.75)]


def test_size_biased_zero_mean_raises():
    with pytest.raises(ZeroMean):
        size_biased(Distribution([(0, 1.0)]))


def test_offspring_point_mass(regular3):
    assert offspring(regular3).masses == [(2, 1.0)]


def test_offspring_mixture(mixture):
    assert offspring(mixture).masses == [(0, 0.25), (2, 0.75)]


def test_offspring_critical_mix(critical_mix):
    # E(D) = 1.5, so both atoms weigh 1/2.
    assert offspring(critical_mix).masses == [(0, 0.5), (2, 0.5)]


def test_offspring_zero_mean_raises():
    with pytest.raises(ZeroMean):
        offspring(Distribution([(0, 1.0)]))


# ---------------------------------------------------------------------------
# thinning


def test_thin_identity(mixture, regular3):
    for d in (mixture, regular3, Distribution([(0, 1.0)])):
        assert thin(d, 1.0).masses == d.masses
    # A law without edges is left alone by every thinning.
    assert thin(Distribution([(0, 1.0)]), 0.3).masses == [(0, 1.0)]


def test_thin_point_mass_half(regular3):
    got = thin(regular3, 0.5)
    np.testing.assert_allclose(got.dense(4), [1 / 8, 3 / 8, 3 / 8, 1 / 8], atol=1e-15)


def test_thin_total_deletion(mixture):
    assert thin(mixture, 0.0).masses == [(0, 1.0)]


def test_thin_rejects_bad_probability(mixture):
    with pytest.raises(BadProbability):
        thin(mixture, 1.5)
    with pytest.raises(BadProbability):
        thin(mixture, -0.1)


def test_thin_composition_matches_product(rng):
    for _ in range(20):
        d = random_distribution(rng)
        p, q = rng.random(), rng.random()
        lhs = thin(thin(d, p), q)
        rhs = thin(d, p * q)
        width = d.max_support + 1
        np.testing.assert_allclose(lhs.dense(width), rhs.dense(width), atol=1e-12)


def test_thin_scales_mean(rng):
    for _ in range(20):
        d = random_distribution(rng)
        p = rng.random()
        assert abs(mean(thin(d, p)) - p * mean(d)) <= 1e-12


def test_thinning_commutes_with_size_bias_shift(rng):
    # Thinning then taking the offspring law equals thinning the offspring law.
    for _ in range(20):
        d = random_distribution(rng)
        if mean(d) <= 0:
            continue
        p = rng.random()
        thinned = thin(d, p)
        if mean(thinned) <= 0:
            continue
        lhs = offspring(thinned)
        rhs = thin(offspring(d), p)
        width = d.max_support + 1
        np.testing.assert_allclose(lhs.dense(width), rhs.dense(width), atol=1e-12)


def test_offspring_mean_matches_moment_identity(rng):
    # E(Z) = E(D(D-1)) / E(D), equivalently E(Z) - 1 = E(D(D-2)) / E(D).
    for _ in range(20):
        d = random_distribution(rng)
        if mean(d) <= 0:
            continue
        s = d.support.astype(float)
        second = float(np.dot(s * (s - 1.0), d.probs))
        assert abs(mean(offspring(d)) - second / mean(d)) <= 1e-12
        assert abs((mean(offspring(d)) - 1.0) - supercriticality(d) / mean(d)) <= 1e-12


def test_thinning_matches_term_by_term_oracle(rng):
    for max_value in (8, 40):
        for _ in range(10):
            d = random_distribution(rng, max_value=max_value)
            p = rng.random()
            want = joint_thinning_oracle(d, p)
            width = d.max_support + 1
            np.testing.assert_allclose(thin(d, p).dense(width), want.sum(axis=1), atol=1e-12)


def test_thin_memory_is_linear_in_max_support():
    # A dense (max_support + 1) x atoms matrix would take ~800 MB here.
    uniform = Distribution([(v, 1e-4) for v in range(1, 10**4 + 1)])
    tracemalloc.start()
    try:
        thin(uniform, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# ---------------------------------------------------------------------------
# sampling


def test_sample_point_mass_always_three(regular3, rng):
    draws = sample(regular3, rng, size=1000)
    assert (draws == 3).all()
    assert sample(regular3, rng, size=1)[0] == 3


def test_sample_mixture_frequency(mixture):
    rng = np.random.default_rng(11)
    draws = sample(mixture, rng, size=1_000_000)
    freq_one = float((draws == 1).mean())
    assert 0.497 <= freq_one <= 0.503


def test_sample_deterministic_per_seed(mixture):
    a = sample(mixture, np.random.default_rng(99), size=500)
    b = sample(mixture, np.random.default_rng(99), size=500)
    np.testing.assert_array_equal(a, b)


class FixedUniforms:
    """Stands in for a generator: ``random`` hands out the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = uniforms

    def random(self, size):
        assert size == self.uniforms.size
        return self.uniforms.copy()


def searchsorted_reference(dist, uniforms):
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    return dist.support.take(np.searchsorted(cdf, uniforms, side="right"))


def law_for_guide_tests(rng, case):
    """1-40 atoms on support <= 10^4. Every third law has masses in 64ths,
    so its cdf values fall on guide-table boundaries; the others are
    Dirichlet draws, some with many tiny atoms crowded into one interval."""
    atoms = int(rng.integers(1, 41))
    values = rng.choice(10**4 + 1, size=atoms, replace=False)
    if case % 3 == 0:
        cuts = np.sort(rng.choice(np.arange(1, 64), size=min(atoms, 64) - 1, replace=False))
        probs = np.diff(np.concatenate([[0], cuts, [64]])) / 64
    else:
        probs = rng.dirichlet(np.full(atoms, rng.choice([0.05, 1.0, 20.0])))
    return Distribution(list(zip(values.tolist(), probs.tolist())))


def power_law(exponent):
    """r_k proportional to k^-exponent on 1..10^4: thousands of atoms share
    the guide's top cells."""
    k = np.arange(1, 10**4 + 1)
    weights = k ** -float(exponent)
    return Distribution(list(zip(k.tolist(), (weights / weights.sum()).tolist())))


def test_sample_matches_searchsorted_on_random_laws():
    # Uniforms from a generator, more than a block of them, plus the edge
    # cases: 0, the largest doubles below 1 (1 - 2^-53 is the largest that
    # a generator draws), every cdf value, every cell edge of the guide
    # (4 << (atoms - 1).bit_length() cells), and their neighbours.
    rng = np.random.default_rng(1974)
    # The fifth cdf value is the double nearest 5/6, and u just below it has
    # fl(6u) = 5: a guide of 6 entries read at floor(6u) would start that u
    # past its index.
    crowded = [0.8293333333333334, 0.001, 0.001, 0.001, 0.001, 0.16666666666666663]
    assert np.cumsum(crowded)[4] == 5 / 6 and math.floor(6 * np.nextafter(5 / 6, 0)) == 5
    laws = [Distribution(list(enumerate(crowded)))]
    # Laws whose guide cells hold many atoms: heavy tails, 10^4 + 1 equal
    # atoms, one heavy atom before thousands of tiny ones, and two cdf jumps
    # inside the first of 16 cells.
    laws += [power_law(2.5), power_law(2.2)]
    laws.append(Distribution([(k, 1 / (10**4 + 1)) for k in range(10**4 + 1)]))
    laws.append(Distribution([(0, 0.99)] + [(k, 0.01 / 5000) for k in range(1, 5001)]))
    laws.append(Distribution([(1, 0.01), (2, 0.02), (3, 0.97)]))
    laws += [law_for_guide_tests(rng, case) for case in range(300)]
    for law in laws:
        cdf = np.cumsum(law.probs)
        width = 4 << (cdf.size - 1).bit_length()
        edges = np.concatenate([cdf[:-1], np.arange(width) / width])
        edges = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, 1.0)])
        special = np.concatenate([edges, [0.0, 1 - 2**-53, 1 - 2**-52, 1 - 3 * 2**-53]])
        uniforms = np.concatenate([rng.random(9000), special[(special >= 0.0) & (special < 1.0)]])
        draws = sample(law, FixedUniforms(uniforms), uniforms.size)
        assert draws.dtype == np.int64
        np.testing.assert_array_equal(draws, searchsorted_reference(law, uniforms), err_msg=repr(law))


def test_sample_time_is_bounded_on_heavy_tails():
    # Each block costs a guide read and one search whatever the law. A walk
    # up from the guide takes a pass per atom of the most crowded cell:
    # 2.0-3.3 s per 10^6 draws on a 2-core x86 host, against 11-21 ms for
    # the search.
    law = power_law(2.2)
    rng = np.random.default_rng(3)
    start = time.perf_counter()
    sample(law, rng, 10**6)
    assert time.perf_counter() - start < 0.5


def test_sample_draws_one_uniform_per_value(mixture):
    # The same values as inverting the generator's own uniforms, and the
    # stream after the draw is where those uniforms leave it.
    four = Distribution([(1, 0.3), (2, 0.2), (4, 0.3), (6, 0.2)])
    for law in (mixture, four):
        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        draws = sample(law, ours, 20_000)
        np.testing.assert_array_equal(draws, searchsorted_reference(law, theirs.random(20_000)))
        assert ours.random() == theirs.random()


def test_sample_histogram_concentration(rng):
    d = random_distribution(rng, max_value=6)
    n = 1_000_000
    draws = sample(d, rng, size=n)
    for value, prob in d.masses:
        freq = float((draws == value).mean())
        assert abs(freq - prob) <= 4.0 * math.sqrt(prob / n)


# ---------------------------------------------------------------------------
# supercriticality


def test_supercriticality_values(mixture, critical_mix, regular3):
    assert supercriticality(regular3) == 3.0
    assert supercriticality(critical_mix) == pytest.approx(0.0, abs=1e-15)
    assert supercriticality(mixture) == pytest.approx(1.0, abs=1e-15)


# ---------------------------------------------------------------------------
# JSON interface


def test_json_round_trip(mixture):
    doc = to_json_doc(mixture)
    assert doc == {"masses": [[1, 0.5], [3, 0.5]]}
    assert from_json_doc(doc) == mixture


@given(st.dictionaries(st.integers(0, MAX_SUPPORT), st.floats(1e-6, 1.0), min_size=1, max_size=30))
def test_json_round_trip_random_laws(weights):
    total = sum(weights.values())
    d = Distribution([(v, w / total) for v, w in weights.items()])
    assert from_json_doc(to_json_doc(d)) == d


def test_json_rejects_malformed_docs():
    with pytest.raises(SpecParseError):
        from_json_doc({"wrong": []})
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": []})
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": [[1]]})
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": [[1, 0.5]]})  # bad total


def test_json_caps_support_value():
    assert from_json_doc({"masses": [[MAX_SUPPORT, 1.0]]}).max_support == MAX_SUPPORT
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": [[1, 0.5], [MAX_SUPPORT + 1, 0.5]]})


def test_json_rejects_inexact_support_values():
    # 1.5 must not truncate to degree 1, and JSON true is not the integer 1.
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": [[1.5, 1.0]]})
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": [[True, 1.0]]})
    with pytest.raises(SpecParseError):
        from_json_doc({"masses": [[1, True]]})
    assert from_json_doc({"masses": [[3, 1]]}).masses == [(3, 1.0)]
