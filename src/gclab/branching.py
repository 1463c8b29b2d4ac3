"""Branching-process quantities behind the giant-component limit.

The two-stage tree has root offspring drawn from the degree law D and every
later offspring count drawn from the size-biased-minus-one law Z. Its
survival probability is the limiting giant-component fraction; its finite
size probabilities are the limiting small-component fractions, and the
probability that it has a local property is the limit of that property's
count. Everything here is an exact finite computation: a fixed point,
truncated power series or a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .census import (
    ComponentSizeAtLeast,
    ComponentSizeExactly,
    Conjunction,
    LocalProperty,
    MaxDegreeBall,
    RootDegree,
)
from .distributions import Distribution, mean, offspring
from .errors import DegenerateDistribution, NoThreshold, SpecParseError

# Newton on the concave survival function k (see solve_x_plus) rises
# monotonically to a simple root after its first step, quadratically near
# it. Measured: at most 9 steps on 9000 random and thinned laws with degrees
# up to 40, at most 13 on {1: 1-q, N: q} with N up to 10^5. A solve still
# running after 64 steps is moving in float noise.
_NEWTON_STEP_BOUND = 64
# A Newton step shorter than this ends the solve.
_STEP_TOL = 1e-12

# Largest component size and largest max_degree_ball radius that
# limit_probability takes. Its series keep one term per component size,
# each capped depth they reach costs about the cube of their length, and
# every capped depth costs one scalar pass over the atoms. The worst spec
# admitted, max_degree_ball:9998,1000&component_at_least:201 on the uniform
# law over 1..MAX_SUPPORT, took 1.1-1.2 s on a 2-core Xeon host (0.3 s of
# series, 0.8 ms per scalar depth).
MAX_COMPONENT_SIZE = 200
MAX_BALL_RADIUS = 1000


@dataclass(frozen=True)
class SurvivalSolution:
    """Solved survival fixed point.

    ``x_plus`` is the largest root in [0,1] of the one-stage survival
    equation; ``rho`` the two-stage survival probability derived from it.
    ``giant_shares`` maps each degree d of the support to its share of rho,
    the limiting fraction of vertices of degree d in the giant.
    ``iterations`` counts Newton steps (0 when the subcritical short-circuit
    answered). ``residual`` is |E[y^Z] - y| at the returned extinction
    probability y = 1 - x_plus, 0 for E(D) = 0. ``converged`` is true when a step below the
    tolerance or the short-circuit ended the solve; it is false only when
    the step bound ran out first.
    """

    x_plus: float
    rho: float
    giant_shares: dict[int, float]
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

    One law has no answer: D on {0, 2}, where Z = 1 surely. Every component
    is then a cycle or a lone vertex and the largest cycle holds a random,
    non-vanishing share of the vertices, so DegenerateDistribution is
    raised. Every other law on {0, 1, 2} has r_1 > 0, hence E[Z] < 1, or
    E(D) = 0 and no edges; both get x_plus = rho = 0 with no Newton step.
    """
    shares = dict.fromkeys(dist.support.tolist(), 0.0)
    if mean(dist) <= 0.0:
        return SurvivalSolution(0.0, 0.0, shares, 0, 0.0, True)
    z = offspring(dist)
    if z.support.tolist() == [1]:
        raise DegenerateDistribution("offspring law Z = 1 (degrees in {0, 2}): L1/n has no limit")
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
    # accurate when x is tiny. Degree 0 is left out, where x = 1 gives 0^0.
    atoms = dist.support > 0
    lost = np.expm1(dist.support[atoms] * _log1m(x))
    rho_val = 0.0 - float(np.dot(dist.probs[atoms], lost))
    shares.update(zip(dist.support[atoms].tolist(), (0.0 - dist.probs[atoms] * lost).tolist()))
    y = 1.0 - x
    residual = abs(float(np.dot(z.probs, y ** z.support.astype(np.float64))) - y)
    return SurvivalSolution(x, rho_val, shares, iterations, residual, converged)


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
    """Exact small-tree probabilities: limit_probability's series with no caps.

    rho_k = [s^k] R(s), R(s) = s sum_j r_j T(s)^j and T the one-stage total
    progeny series by the hitting-time theorem. Every law is answered: T is
    needed only when some degree above 0 is left, so E(D) = 0 gives rho_1 = 1
    and 0 beyond. D on {0, 2} gets rho_1 = r_0 and 0 beyond: its cycles are
    long, though it has no survival limit.
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    rho_k = _size_series(dist, dist.support >= 0, [], k_max + 1)[1:]
    tail = 1.0 - float(rho_k.sum())
    return ProgenyTable(k_max, rho_k, tail)


def limit_probability(dist: Distribution, prop: LocalProperty) -> float:
    """Exact probability that the two-stage limit tree has ``prop``.

    A conjunction of clauses comes down to a set of allowed root degrees, a
    degree cap c(l) at each depth l = 0..L (the least delta of the
    max_degree_ball clauses that reach depth l) and a window [a, b] for the
    component size (b infinite without a component_exactly clause). With
    q the offspring law and

        F_l(s) = s sum_{z <= c(l)-1} q_z F_{l+1}(s)^z,  0 < l <= L,

    F_{L+1} the one-stage total progeny series, the size series of the
    trees that keep the caps is R(s) = s sum_d r_d F_1(s)^d over the allowed
    d <= c(0). For finite b the answer is sum_{k=a..b} [s^k] R. For infinite
    b it is Pr(caps hold) - sum_{k<a} [s^k] R, Pr(caps hold) being the same
    recursion in scalars at s = 1 with F_{L+1} = 1. So only K + 1 terms of
    each series are kept, K = b or a - 1; a spec with K past
    MAX_COMPONENT_SIZE or L past MAX_BALL_RADIUS is refused.
    """
    root, caps, low, high = _reduce(dist, prop)
    order = high if high < math.inf else low - 1
    if order > MAX_COMPONENT_SIZE:
        raise SpecParseError(f"component size {order} exceeds MAX_COMPONENT_SIZE = {MAX_COMPONENT_SIZE}")
    if high < low:
        return 0.0
    series = _size_series(dist, root, caps, order + 1)
    if high < math.inf:
        return float(series[low:].sum())
    below = 1.0  # Pr(caps hold in the subtree of a vertex at depth l), l = L+1..1
    if len(caps) > 1 and mean(dist) > 0.0:
        q = offspring(dist)
        for cap in reversed(caps[1:]):
            below = _expected_power(q, q.support < cap, below)
    return max(0.0, _expected_power(dist, root, below) - float(series.sum()))


def _reduce(dist: Distribution, prop: LocalProperty) -> tuple[np.ndarray, list[int], int, float]:
    """(mask of the allowed root degrees in the support, c(0..L), a, b)."""
    root, balls, low, high = dist.support >= 0, [], 1, math.inf
    parts = [prop]
    while parts:
        part = parts.pop()
        if isinstance(part, Conjunction):
            parts.extend(part.parts)
        elif isinstance(part, RootDegree):
            root &= dist.support == part.d
        elif isinstance(part, ComponentSizeExactly):
            low, high = max(low, part.k), min(high, part.k)
        elif isinstance(part, ComponentSizeAtLeast):
            low = max(low, part.k)
        elif isinstance(part, MaxDegreeBall):
            balls.append((part.t, part.delta))
        else:
            raise TypeError(f"unknown property kind {type(part).__name__}")
    depth = max((t for t, _ in balls), default=-1)
    if depth > MAX_BALL_RADIUS:
        raise SpecParseError(f"ball radius {depth} exceeds MAX_BALL_RADIUS = {MAX_BALL_RADIUS}")
    caps = [min(delta for t, delta in balls if t >= level) for level in range(depth + 1)]
    if caps:
        root &= dist.support <= caps[0]
    return root, caps, low, high


def _weights(law: Distribution, kept: np.ndarray, length: int) -> np.ndarray:
    """Dense masses of the kept atoms below ``length``, at least the z = 0 one."""
    kept = kept & (law.support < length)
    out = np.zeros(int(law.support[kept].max(initial=0)) + 1)
    out[law.support[kept]] = law.probs[kept]
    return out


def _size_series(dist: Distribution, root: np.ndarray, caps: list[int], length: int) -> np.ndarray:
    """[s^0..s^(length-1)] of limit_probability's R(s).

    F_l is needed to length - l terms, so no cap past depth length - 2 is
    read, and nothing below a root without children.
    """
    weights = _weights(dist, root, length - 1)
    below = None
    if weights.size > 1:
        q = offspring(dist)
        below = _total_progeny(q, length)
        for level in range(min(len(caps), length - 1) - 1, 0, -1):
            below = _compose(_weights(q, q.support < caps[level], length - 1 - level), below, length - level)
    return _compose(weights, below, length)


def _total_progeny(q: Distribution, length: int) -> np.ndarray:
    """T(s) to ``length`` terms, T the total progeny series of offspring law q.

    By the hitting-time theorem (Dwass 1969) [s^n] T = (1/n) [t^(n-1)] G(t)^n,
    G the generating function of q; each power of G is kept to ``length`` terms.
    """
    series = q.dense()[:length]
    out = np.zeros(length)
    power = np.zeros(length)
    power[:1] = 1.0
    for n in range(1, length):
        power = np.convolve(power, series)[:length]  # G^n, truncated
        out[n] = power[n - 1] / n
    return out


def _compose(weights: np.ndarray, inner: np.ndarray | None, length: int) -> np.ndarray:
    """s sum_z w_z inner^z to ``length`` terms; ``inner`` has no constant term."""
    out = np.zeros(length)
    power = np.zeros(length - 1)
    power[:1] = 1.0
    for z, w in enumerate(weights):
        if z:
            power = np.convolve(power, inner)[: length - 1]
        out[1:] += w * power
    return out


def _expected_power(law: Distribution, kept: np.ndarray, x: float) -> float:
    """E[x^V; V kept] for V ~ law: exactly 1.0 when nothing is cut off."""
    if x == 1.0 and kept.all():
        return 1.0
    return float(np.dot(law.probs[kept], x ** law.support[kept].astype(np.float64)))


def critical_percolation(dist: Distribution) -> float:
    """Edge-retention threshold E(D) / E(D(D-1)) for a giant component."""
    s = dist.support.astype(np.float64)
    second_factorial = float(np.dot(s * (s - 1.0), dist.probs))
    if second_factorial <= 0.0:
        raise NoThreshold("E(D(D-1)) = 0: no percolation threshold")
    return mean(dist) / second_factorial


def giant_degree_fractions(dist: Distribution) -> dict[int, float]:
    """Limiting fraction of vertices that have degree d and sit in the giant.

    One entry per degree d of the support: r_d (1 - (1 - x_plus)^d), taken
    as -r_d expm1(d log(1 - x_plus)), the very terms that solve_x_plus sums
    into rho. Exactly 0.0 for d = 0.
    """
    return solve_x_plus(dist).giant_shares
