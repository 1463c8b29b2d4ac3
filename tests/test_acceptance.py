"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance below is pinned; the statistical checks run on fixed seeds so
the suite is deterministic. Run with ``pytest tests/test_acceptance.py -v -s``
to see the per-criterion lines.
"""

import time
from collections import defaultdict

import numpy as np
import pytest
from scipy import stats

from gclab.branching import (
    critical_percolation,
    rho,
    rho_k_table,
    solve_x_plus,
)
from gclab.census import (
    Conjunction,
    MaxDegreeBall,
    RootDegree,
    components,
)
from gclab.configuration import (
    DegreeSequence,
    apply_switching,
    sample_degree_sequence,
    sample_pairing,
    to_multigraph,
)
from gclab.distributions import Distribution, offspring, supercriticality, thin
from gclab.percolation import color_edges, percolate, split

from helpers import (
    all_matchings,
    count_property,
    enumerate_tree_size_probs,
    exact_multigraph_law,
    matching_key,
    multigraph_key,
    partitions,
    random_distribution,
    sample_tree_sizes,
)

N_LARGE = 100_000
RHO_MIXTURE = 22 / 27  # survival of the half-1 half-3 law, solved by hand


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def mixture_trials(mixture):
    """Five seeded configuration graphs at n = 100k, censused and timed."""
    runs = []
    start = time.perf_counter()
    for seed in range(5):
        rng = np.random.default_rng(seed)
        ds = sample_degree_sequence(mixture, N_LARGE, rng)
        graph = to_multigraph(sample_pairing(ds, rng))
        runs.append((graph, components(graph)))
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_giant_component_law(mixture_trials):
    runs, elapsed = mixture_trials
    worst_l1 = max(abs(cen.largest / N_LARGE - RHO_MIXTURE) for _, cen in runs)
    worst_l2 = max(cen.second_largest / N_LARGE for _, cen in runs)
    ok = worst_l1 <= 0.02 and worst_l2 <= 0.01 and elapsed <= 5.0
    check(
        "giant-component-law",
        ok,
        f"max|L1/n-22/27|={worst_l1:.4f} (<=0.02), max L2/n={worst_l2:.5f} "
        f"(<=0.01), runtime={elapsed:.2f}s (<=5s)",
    )


def test_small_components(mixture_trials):
    runs, _ = mixture_trials
    worst = max(
        abs(cen.vertices_in_components_of_size(2) / N_LARGE - 1 / 8) for _, cen in runs
    )
    # Forced perfect matching: every vertex sits in a 2-component.
    rng = np.random.default_rng(0)
    ones = Distribution([(1, 1.0)])
    ds = sample_degree_sequence(ones, 10_000, rng)
    cen = components(to_multigraph(sample_pairing(ds, rng)))
    exact = cen.vertices_in_components_of_size(2) == 10_000
    ok = worst <= 0.01 and exact
    check(
        "small-components",
        ok,
        f"max|N2/n-1/8|={worst:.4f} (<=0.01), matching N2==n exact={exact}",
    )


def test_percolation_agreement(regular3):
    worst = 0.0
    sub_ok = True
    near_ok = True
    rho_055 = rho(thin(regular3, 0.55))
    for seed in range(5):
        rng = np.random.default_rng(100 + seed)
        ds = sample_degree_sequence(regular3, N_LARGE, rng)
        graph = to_multigraph(sample_pairing(ds, rng))
        l1_06 = components(percolate(graph, 0.6, rng)).largest / N_LARGE
        worst = max(worst, abs(l1_06 - 19 / 27))
        l1_045 = components(percolate(graph, 0.45, rng)).largest / N_LARGE
        sub_ok = sub_ok and l1_045 <= 0.05
        l1_055 = components(percolate(graph, 0.55, rng)).largest / N_LARGE
        near_ok = near_ok and l1_055 >= rho_055 - 0.02
    p_c = critical_percolation(regular3)
    ok = worst <= 0.02 and sub_ok and near_ok and p_c == 0.5
    check(
        "percolation-agreement",
        ok,
        f"max|L1/n-19/27|={worst:.4f} (<=0.02), p=0.45 small={sub_ok}, "
        f"p=0.55 near rho({rho_055:.4f})={near_ok}, p_c={p_c} (==0.5)",
    )


def test_giant_restricted_local_counts(mixture, mixture_trials):
    runs, _ = mixture_trials
    graph, _ = runs[0]
    frac3 = count_property(graph, RootDegree(3))[1] / N_LARGE
    frac1 = count_property(graph, RootDegree(1))[1] / N_LARGE
    pred3 = solve_x_plus(mixture).giant_shares[3]
    pred1 = solve_x_plus(mixture).giant_shares[1]
    identity_gap = abs(pred1 + pred3 - rho(mixture))
    ok = (
        abs(frac3 - 13 / 27) <= 0.02
        and abs(frac1 - 1 / 3) <= 0.02
        and identity_gap <= 1e-12
    )
    check(
        "giant-restricted-local-counts",
        ok,
        f"|deg3-13/27|={abs(frac3 - 13 / 27):.4f}, |deg1-1/3|={abs(frac1 - 1 / 3):.4f} "
        f"(<=0.02), |pred1+pred3-rho|={identity_gap:.2e} (<=1e-12)",
    )


def test_oracle_equivalence(mixture):
    rng = np.random.default_rng(55)
    worst_table = 0.0
    for _ in range(20):
        dist = random_distribution(rng, max_value=5, max_atoms=4)
        want = enumerate_tree_size_probs(dist, 6)
        got = rho_k_table(dist, 6).rho_k
        worst_table = max(worst_table, float(np.abs(want - got).max()))
    table_ok = worst_table <= 1e-10

    n = 1_000_000
    sizes = sample_tree_sizes(mixture, n, np.random.default_rng(1), cap=100)
    table = rho_k_table(mixture, 20)
    worst_z = 0.0
    hist_ok = True
    for k in range(1, 21):
        p_k = table.rho_k[k - 1]
        observed = float((sizes == k).mean())
        if p_k == 0.0:
            hist_ok = hist_ok and observed == 0.0
            continue
        se = np.sqrt(p_k * (1 - p_k) / n)
        worst_z = max(worst_z, abs(observed - p_k) / se)
    hist_ok = hist_ok and worst_z <= 4.0
    check(
        "oracle-equivalence",
        table_ok and hist_ok,
        f"max|dp-enum|={worst_table:.2e} (<=1e-10) over 20 laws, "
        f"histogram max|z|={worst_z:.2f} (<=4) at 1e6 samples",
    )


def test_criterion_and_continuity():
    rng = np.random.default_rng(77)
    sign_hits = 0
    continuity_ok = True
    worst_gap = 0.0
    for _ in range(100):
        dist = random_distribution(rng, require_degree3=True, criticality_margin=1e-3)
        survival = rho(dist)
        if (survival > 1e-6) == (supercriticality(dist) > 0.0):
            sign_hits += 1
        gap = abs(rho(thin(dist, 0.9999)) - survival)
        worst_gap = max(worst_gap, gap)
        continuity_ok = continuity_ok and gap <= 0.01
    ok = sign_hits == 100 and continuity_ok
    check(
        "criterion-and-continuity",
        ok,
        f"sign matches {sign_hits}/100, max|rho(thin(D,0.9999))-rho(D)|="
        f"{worst_gap:.4f} (<=0.01)",
    )


def test_structural_lipschitz_suite(mixture):
    rng = np.random.default_rng(88)
    delta, t = 3, 1
    bounded = Conjunction((RootDegree(3), MaxDegreeBall(delta, t)))
    k_checks = (1, 2, 3, 5)
    degrees_ok = True
    nk_ok = True
    prop_ok = True
    total = 0
    for graph_index in range(10):
        dist = mixture if graph_index < 4 else random_distribution(rng)
        ds = sample_degree_sequence(dist, 150, rng)
        pairing = sample_pairing(ds, rng)
        graph = to_multigraph(pairing)
        cen = components(graph)
        n_bounded = count_property(graph, bounded)[0]
        for _ in range(1000):
            i, j = rng.choice(pairing.pairs.shape[0], size=2, replace=False)
            pairing = apply_switching(pairing, int(i), int(j))
            graph = to_multigraph(pairing)
            degrees_ok = degrees_ok and bool(
                np.array_equal(graph.degrees(), ds.degrees)
            )
            nxt = components(graph)
            for k in k_checks:
                delta_nk = abs(
                    nxt.vertices_in_components_of_size(k)
                    - cen.vertices_in_components_of_size(k)
                )
                nk_ok = nk_ok and delta_nk <= 4 * k
            nxt_bounded = count_property(graph, bounded)[0]
            prop_ok = prop_ok and abs(nxt_bounded - n_bounded) <= 16 * delta**t
            cen, n_bounded = nxt, nxt_bounded
            total += 1

    commute_rng = np.random.default_rng(89)
    worst_commute = 0.0
    for _ in range(20):
        dist = random_distribution(commute_rng)
        p = float(commute_rng.random())
        thinned = thin(dist, p)
        if min(
            float(np.dot(dist.support, dist.probs)),
            float(np.dot(thinned.support, thinned.probs)),
        ) <= 0:
            continue
        width = dist.max_support + 1
        lhs = offspring(thinned).dense(width)
        rhs = thin(offspring(dist), p).dense(width)
        worst_commute = max(worst_commute, float(np.abs(lhs - rhs).max()))
    ok = degrees_ok and nk_ok and prop_ok and total == 10_000 and worst_commute <= 1e-12
    check(
        "structural-lipschitz-suite",
        ok,
        f"{total} switchings: degrees={degrees_ok}, |dN_k|<=4k={nk_ok}, "
        f"bounded-count<=16*delta^t={prop_ok}, commutation max|diff|="
        f"{worst_commute:.2e} (<=1e-12)",
    )


def test_exact_law_micro_tests():
    # Pairing uniformity: every degree sequence with 2m <= 8 (partitions of
    # 2, 4, 6 and 8), chi-square at significance 1e-3 against the uniform
    # law over all perfect matchings of the stubs.
    rng = np.random.default_rng(99)
    uniform_ok = True
    tested_sequences = 0
    for two_m in (2, 4, 6, 8):
        keys = [matching_key(m) for m in all_matchings(list(range(two_m)))]
        index = {key: i for i, key in enumerate(keys)}
        for part in partitions(two_m):
            ds = DegreeSequence(list(part))
            tested_sequences += 1
            if len(keys) == 1:
                for _ in range(50):
                    if matching_key(sample_pairing(ds, rng).pairs) != keys[0]:
                        uniform_ok = False
                continue
            draws = 300 * len(keys)
            observed = np.zeros(len(keys))
            for _ in range(draws):
                observed[index[matching_key(sample_pairing(ds, rng).pairs)]] += 1
            _, p_value = stats.chisquare(observed)
            if p_value < 1e-3:
                uniform_ok = False

    # Red/blue split: conditioned on the realized red degree sequence, the
    # joint law of (red graph, blue graph) is the product of the exact
    # uniform configuration laws.
    law_cache: dict[tuple, dict] = {}

    def law(seq: tuple) -> dict:
        if seq not in law_cache:
            law_cache[seq] = exact_multigraph_law(DegreeSequence(np.array(seq)))
        return law_cache[seq]

    redblue_ok = True
    buckets_tested = 0
    for degrees, trials, seed in (
        ([1, 1, 1, 1], 60_000, 7),
        ([2, 2, 1, 1], 60_000, 8),
        ([2, 2, 2, 2], 60_000, 9),
    ):
        ds = DegreeSequence(degrees)
        base = np.asarray(degrees)
        rng = np.random.default_rng(seed)
        buckets: dict[tuple, dict] = defaultdict(lambda: defaultdict(int))
        for _ in range(trials):
            graph = to_multigraph(sample_pairing(ds, rng))
            red_graph, blue_graph, dred, _ = split(color_edges(graph, 0.5, rng))
            key = tuple(dred.degrees.tolist())
            buckets[key][(multigraph_key(red_graph), multigraph_key(blue_graph))] += 1
        for key, cells in buckets.items():
            count = sum(cells.values())
            joint = {
                (rk, bk): rp * bp
                for rk, rp in law(key).items()
                for bk, bp in law(tuple((base - np.array(key)).tolist())).items()
            }
            if len(joint) <= 1 or count * min(joint.values()) < 5.0:
                continue
            observed = np.array([cells.get(cell, 0) for cell in joint])
            expected = count * np.array([joint[cell] for cell in joint])
            _, p_value = stats.chisquare(observed, expected)
            if p_value < 1e-3:
                redblue_ok = False
            buckets_tested += 1

    ok = uniform_ok and redblue_ok and buckets_tested >= 10
    check(
        "exact-law-micro-tests",
        ok,
        f"uniformity over {tested_sequences} sequences={uniform_ok}, "
        f"red/blue product law over {buckets_tested} buckets={redblue_ok}",
    )
