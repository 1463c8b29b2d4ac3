"""Branching-process quantities behind the giant-component limit.

The two-stage tree has root offspring drawn from the degree law D and every
later offspring count drawn from the size-biased-minus-one law Z. Its
survival probability is the limiting giant-component fraction; its finite
size probabilities are the limiting small-component fractions. Everything
here is either an exact finite computation (fixed point, power series,
closed forms) or a seeded Monte Carlo sampler of the tree itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import LocalProperty, property_mask
from .configuration import MultiGraph
from .distributions import Distribution, mean, offspring, sample
from .errors import DegenerateDistribution, NoThreshold, ZeroMean

DEFAULT_CAP = 10**4

# Newton on the concave survival function k (see solve_x_plus) rises
# monotonically to a simple root after its first step, quadratically near
# it. Measured: at most 9 steps on 9000 random and thinned laws with degrees
# up to 40, at most 13 on {1: 1-q, N: q} with N up to 10^5. A solve still
# running after 64 steps is moving in float noise.
_NEWTON_STEP_BOUND = 64
# A Newton step shorter than this ends the solve.
_STEP_TOL = 1e-12

# Keeps the scratch arrays of the batched tree samplers bounded: draws per
# round in sample_tree_sizes, expected vertices per forest in
# tree_property_probability.
_DRAW_CHUNK = 8_000_000


@dataclass(frozen=True)
class SurvivalSolution:
    """Solved survival fixed point.

    ``x_plus`` is the largest root in [0,1] of the one-stage survival
    equation; ``rho`` the two-stage survival probability derived from it.
    ``iterations`` counts Newton steps (0 when the subcritical short-circuit
    answered). ``residual`` is |E[y^Z] - y| at the returned extinction
    probability y = 1 - x_plus. ``converged`` is true when a step below the
    tolerance or the short-circuit ended the solve; it is false only when
    the step bound ran out first.
    """

    x_plus: float
    rho: float
    iterations: int
    residual: float
    converged: bool


@dataclass(frozen=True)
class ProgenyTable:
    """Exact probabilities that the two-stage tree has k vertices, k <= k_max.

    ``tail`` is 1 - sum(rho_k): the finite-size mass beyond k_max plus the
    survival probability.
    """

    k_max: int
    rho_k: np.ndarray
    tail: float

    def prob_size(self, k: int) -> float:
        if not (1 <= k <= self.k_max):
            raise ValueError(f"k must be in 1..{self.k_max}")
        return float(self.rho_k[k - 1])


def _prob_at_least(dist: Distribution, cutoff: int) -> float:
    return float(dist.probs[dist.support >= cutoff].sum())


def solve_x_plus(dist: Distribution) -> SurvivalSolution:
    """Largest root in [0, 1] of the one-stage survival equation.

    In the survival coordinate x = 1 - y the extinction equation
    E[y^Z] = y reads h(x) = E[(1-x)^Z] - (1-x) = 0, and h(0) = 0 always.
    The solver divides that trivial root out and works on

        k(x) = h(x) / x = (1 - E[Z]) + sum_i z_i sum_{0<j<i} (1 - (1-x)^j),

    which is concave and increasing with k(0) = 1 - E[Z]. When E[Z] <= 1
    (1 - E[Z] is summed exactly from the law's atoms) extinction is certain
    and x_plus = rho = 0 exactly. Otherwise x_plus is the one root of k in
    (0, 1], a simple root even at the edge of criticality, where h has a
    nearly double one. Newton on k starts at x = 1 and stops when a step
    falls below 1e-12; after its first step the iterates rise
    monotonically to the root. With 1 - (1-x)^j taken as -expm1(j log1p(-x)),
    x_plus and rho keep their relative accuracy near criticality, limited
    by the rounding of the law's probabilities rather than by the solver.
    """
    if mean(dist) <= 0.0:
        raise ZeroMean("survival fixed point needs E(D) > 0")
    if _prob_at_least(dist, 3) <= 0.0:
        raise DegenerateDistribution(
            "no mass on degrees >= 3; survival is degenerate for laws "
            "supported inside {0, 1, 2}"
        )
    z = offspring(dist)
    # sum_i z_i (1 - i): 1 - E[Z] up to the float normalization of z. Near
    # criticality it carries the whole answer, so it is summed exactly: each
    # probability is n / 2^e, so integers over the largest 2^e hold the sum,
    # and int / int rounds once.
    ratios = [p.as_integer_ratio() for p in z.probs.tolist()]
    den = max(d for _, d in ratios)
    excess = sum(n * (den // d) * (1 - i) for (n, d), i in zip(ratios, z.support.tolist())) / den
    x, iterations, converged = 1.0, 0, False
    if excess >= 0.0:
        x, converged = 0.0, True
    while not converged and iterations < _NEWTON_STEP_BOUND:
        gap, slope = _survival_gap(z, excess, x)
        step = gap / slope
        x = min(max(x - step, 0.0), 1.0)
        iterations += 1
        converged = abs(step) < _STEP_TOL
    # 1 - (1-x)^i summed as -expm1: rho >= 0, exactly 0 at x = 0, and
    # accurate when x is tiny.
    atoms = dist.support > 0
    rho_val = 0.0 - float(np.dot(dist.probs[atoms], np.expm1(dist.support[atoms] * _log1m(x))))
    y = 1.0 - x
    residual = abs(float(np.dot(z.probs, y ** z.support.astype(np.float64))) - y)
    return SurvivalSolution(x, rho_val, iterations, residual, converged)


def _log1m(x: float) -> float:
    """log(1 - x), with log(0) = -inf and no warning at x = 1."""
    return float(np.log1p(-x)) if x < 1.0 else -np.inf


def _survival_gap(z: Distribution, excess: float, x: float) -> tuple[float, float]:
    """k(x) and k'(x) of solve_x_plus for the offspring law z.

    k has two algebraically equal forms, excess + sum_i z_i W_i(x) and
    (x - sum_i z_i (1 - (1-x)^i)) / x. Float rounding in each grows with
    the magnitudes it sums, so the smaller one is used: the first near
    x = 0, where the second cancels, the second further out, where the
    first cancels for high degrees.
    """
    j = np.arange(1, z.max_support + 1, dtype=np.float64)
    lost = -np.expm1(j * _log1m(x))  # 1 - (1-x)^j, j = 1..max Z
    # w[i] = W_i(x) = sum_{0<j<i} (1 - (1-x)^j); v[i] = W_i'(x).
    w = np.concatenate(([0.0, 0.0], np.cumsum(lost[:-1])))
    v = np.concatenate(([0.0, 0.0], np.cumsum(j[:-1] * (1.0 - x) ** (j[:-1] - 1.0))))
    near = float(np.dot(z.probs, w[z.support]))
    gap = excess + near
    if x > 0.0:
        lost_mass = float(np.dot(z.probs, np.concatenate(([0.0], lost))[z.support]))
        if (x + lost_mass) / x < abs(excess) + near:
            gap = (x - lost_mass) / x
    return gap, float(np.dot(z.probs, v[z.support]))


def rho(dist: Distribution) -> float:
    """Two-stage survival probability: 1 - sum_i r_i (1 - x_plus)^i."""
    return solve_x_plus(dist).rho


def rho_k_table(dist: Distribution, k_max: int) -> ProgenyTable:
    """Exact small-tree probabilities by the hitting-time theorem.

    With j root children (probability r_j), the j one-stage trees below
    have k - 1 vertices in total with probability
    (j/(k-1)) [t^(k-1-j)] G_Z(t)^(k-1) (Dwass 1969), G_Z the generating
    function of the offspring law. So rho_1 = r_0 and, for k >= 2,

        rho_k = (1/(k-1)) sum_{j=1}^{k-1} j r_j [t^(k-1-j)] G_Z(t)^(k-1).

    No coefficient at or past t^(k_max) is read, so the powers of G_Z are
    kept to k_max terms, one convolution per k.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mean(dist) <= 0.0:
        raise ZeroMean("offspring law needs E(D) > 0")
    series = offspring(dist).dense()[:k_max]
    weighted = np.arange(k_max) * dist.dense(k_max)  # j r_j, j = 0..k_max-1
    power = np.zeros(k_max)
    power[0] = 1.0
    rho_k = np.empty(k_max)
    rho_k[0] = dist.pmf(0)
    for k in range(2, k_max + 1):
        power = np.convolve(power, series)[:k_max]  # G_Z^(k-1), truncated
        rho_k[k - 1] = float(np.dot(weighted[1:k], power[k - 2 :: -1])) / (k - 1)
    tail = 1.0 - float(rho_k.sum())
    return ProgenyTable(k_max, rho_k, tail)


def critical_percolation(dist: Distribution) -> float:
    """Edge-retention threshold E(D) / E(D(D-1)) for a giant component."""
    s = dist.support.astype(np.float64)
    second_factorial = float(np.dot(s * (s - 1.0), dist.probs))
    if second_factorial <= 0.0:
        raise NoThreshold("E(D(D-1)) = 0: no percolation threshold")
    return mean(dist) / second_factorial


def sample_tree_sizes(
    dist: Distribution,
    n_samples: int,
    rng: np.random.Generator,
    cap: int = DEFAULT_CAP,
) -> np.ndarray:
    """Sizes of independent two-stage trees, grown breadth-first in bulk.

    Entries <= cap are exact tree sizes. A sample whose vertex count passes
    ``cap`` stops growing; its entry is the partial count, always > cap, so
    ``sizes > cap`` is the exceeded-cap mask.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    z = offspring(dist)
    gen = sample(dist, rng, size=n_samples).astype(np.int64)
    sizes = 1 + gen.copy()
    active = np.flatnonzero((gen > 0) & (sizes <= cap))
    while active.size:
        counts = gen[active]
        # Bound scratch memory: expand very wide generations in slices.
        split_at = np.searchsorted(np.cumsum(counts), _DRAW_CHUNK)
        if split_at < active.size:
            split_at = max(split_at, 1)
            chunk, active = active[:split_at], active[split_at:]
        else:
            chunk, active = active, active[:0]
        counts = gen[chunk]
        draws = sample(z, rng, size=int(counts.sum()))
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        nxt = np.add.reduceat(draws, starts)
        sizes[chunk] += nxt
        gen[chunk] = nxt
        still = chunk[(nxt > 0) & (sizes[chunk] <= cap)]
        active = np.concatenate([active, still])
    return sizes


def sample_tree_forest(
    dist: Distribution, n_trees: int, rng: np.random.Generator, depth: int
) -> MultiGraph:
    """Independent two-stage trees cut at ``depth``, as one disjoint forest.

    Roots are vertices 0..n_trees-1; the vertices of each later level
    follow those of the level before it. The root offspring counts come
    from one draw of ``dist``, each later level's from one draw of the
    offspring law over the whole level. Vertices at ``depth`` keep the edge
    to their parent but get no children, so their degree understates the
    full tree; every vertex closer to its root has its full degree.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if n_trees < 0:
        raise ValueError("n_trees must be >= 0")
    frontier = np.arange(n_trees, dtype=np.int64)
    parents = [np.empty(0, dtype=np.int64)]
    law = dist
    for level in range(depth):
        if not frontier.size:
            break
        if level == 1:
            # Only reached when some root has a child, so E(D) > 0 and the
            # offspring law exists; a zero-mean law never asks for it.
            law = offspring(dist)
        children = np.repeat(frontier, sample(law, rng, size=frontier.size))
        parents.append(children)
        first = frontier[-1] + 1  # ids run level by level
        frontier = np.arange(first, first + children.size, dtype=np.int64)
    parent = np.concatenate(parents)
    child = np.arange(n_trees, n_trees + parent.size, dtype=np.int64)
    return MultiGraph(n_trees + parent.size, np.column_stack((parent, child)))


def _roots_per_forest(dist: Distribution, depth: int) -> int:
    """Trees per forest so that a forest has about _DRAW_CHUNK vertices.

    A tree cut at ``depth`` has 1 + E(D) (1 + E(Z) + ... + E(Z)^(depth-1))
    vertices on average. At least one tree goes in every forest.
    """
    size = 1.0
    mean_d = mean(dist)
    if depth and mean_d > 0.0:
        growth = mean(offspring(dist))
        if growth == 1.0:
            size += mean_d * depth
        else:
            # The geometric sum in closed form; capping the exponent keeps
            # expm1 finite, and past e^690 one tree per forest is the answer.
            log_power = depth * math.log(growth) if growth > 0.0 else -math.inf
            size += mean_d * math.expm1(min(log_power, 690.0)) / (growth - 1.0)
    return max(1, int(_DRAW_CHUNK // size))


def tree_property_probability(
    dist: Distribution,
    prop: LocalProperty,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the probability that the limit tree has prop.

    Returns (estimate, 95% normal-approximation half-width). The trees are
    drawn as forests cut at the property's own radius, which by locality
    decides it at every root, and ``property_mask`` reads it off the roots.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    radius = prop.radius  # raises UnboundedRadius for radius-free properties
    per_forest = _roots_per_forest(dist, radius)
    hits = 0
    for start in range(0, samples, per_forest):
        roots = min(per_forest, samples - start)
        forest = sample_tree_forest(dist, roots, rng, radius)
        hits += int(np.count_nonzero(property_mask(forest, prop)[:roots]))
    estimate = hits / samples
    half_width = 1.96 * float(np.sqrt(estimate * (1.0 - estimate) / samples))
    return estimate, half_width


def giant_degree_fraction(dist: Distribution, d: int) -> float:
    """Limiting fraction of vertices that have degree d and sit in the giant.

    r_d (1 - (1 - x_plus)^d), taken as -r_d expm1(d log(1 - x_plus)): the
    very term that solve_x_plus sums over the support into rho. Exactly 0.0
    for d = 0 and for d outside the support.
    """
    x = solve_x_plus(dist).x_plus
    r_d = dist.pmf(d)
    if d == 0 or r_d == 0.0:
        return 0.0
    return 0.0 - r_d * float(np.expm1(d * _log1m(x)))
