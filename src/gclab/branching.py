"""Branching-process quantities behind the giant-component limit.

The two-stage tree has root offspring drawn from the degree law D and every
later offspring count drawn from the size-biased-minus-one law Z. Its
survival probability is the limiting giant-component fraction; its finite
size probabilities are the limiting small-component fractions. Everything
here is either an exact finite computation (fixed point, convolution table,
closed forms) or a seeded Monte Carlo sampler of the tree itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .census import LocalProperty, RootedNeighborhood
from .census import evaluate_property as _evaluate_property
from .distributions import Distribution, mean, offspring, sample
from .errors import DegenerateDistribution, NoThreshold, ZeroMean

DEFAULT_TOL = 1e-12
DEFAULT_CAP = 10**4

# Newton on the extinction PGF at least halves the distance to the root on
# every step (ratio 1/2 at a double root, quadratic at a simple one). From
# distance at most 1, 64 halvings pass 2^-53, the spacing of floats just
# below 1, so a solve still running after 64 steps is moving in float noise.
_NEWTON_STEP_BOUND = 64

# Keeps the per-round scratch arrays of the batched tree sampler bounded.
_DRAW_CHUNK = 8_000_000


class ExceedsCapType:
    """Singleton marker: the sampled tree grew past the vertex cap."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ExceedsCap"


EXCEEDS_CAP = ExceedsCapType()


@dataclass(frozen=True)
class SurvivalSolution:
    """Solved survival fixed point.

    ``x_plus`` is the largest root in [0,1] of the one-stage survival
    equation; ``rho`` the two-stage survival probability derived from it.
    ``iterations`` counts Newton steps (0 when the subcritical short-circuit
    answered). ``residual`` is |E[y^Z] - y| at the returned extinction
    probability y = 1 - x_plus. ``converged`` is true when a step below the
    tolerance or the short-circuit ended the solve; it is false only when
    float noise at a double root (a law within about 1e-8 of criticality)
    stopped Newton first.
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


def solve_x_plus(dist: Distribution, tol: float = DEFAULT_TOL) -> SurvivalSolution:
    """Largest root in [0, 1] of the one-stage survival equation.

    Its complement is the extinction probability q, the smallest root in
    [0, 1] of g(y) = E[y^Z] - y. When E[Z] <= 1 extinction is certain (the
    law has mass on degrees >= 3, so Z is not identically 1) and the solver
    returns y = 1 exactly, so x_plus = rho = 0. Otherwise it runs Newton on
    g from y = 0: g is convex and decreasing up to q, so the iterates rise
    monotonically to q without overshooting, quadratically off criticality.
    It stops when a step falls below ``tol``. Within about 1e-8 of
    criticality, float cancellation in g limits rho to an error of about
    1e-8 (the root is nearly double, so its error is the square root of the
    rounding in g).
    """
    if mean(dist) <= 0.0:
        raise ZeroMean("survival fixed point needs E(D) > 0")
    if _prob_at_least(dist, 3) <= 0.0:
        raise DegenerateDistribution(
            "no mass on degrees >= 3; survival is degenerate for laws "
            "supported inside {0, 1, 2}"
        )
    z = offspring(dist)
    zvals = z.support.astype(np.float64)
    zprobs = z.probs
    # g'(y) = E[Z y^(Z-1)] - 1, summed over Z >= 1 so that y = 0 is defined.
    moving = zvals > 0.0
    slope_coeffs = zprobs[moving] * zvals[moving]
    slope_powers = zvals[moving] - 1.0
    y, iterations, converged = 0.0, 0, False
    if mean(z) <= 1.0:
        y, converged = 1.0, True
    while not converged and iterations < _NEWTON_STEP_BOUND:
        slope = float(np.dot(slope_coeffs, y**slope_powers)) - 1.0
        if slope >= 0.0:
            break  # only float noise at a double root gets here
        step = (y - float(np.dot(zprobs, y**zvals))) / slope
        # Near a double root, noise in g over a tiny slope can throw a step
        # past q; the extinction probability still cannot exceed 1.
        y = min(y + step, 1.0)
        iterations += 1
        converged = abs(step) < tol
    x_plus = 1.0 - y
    # Summing r_i (1 - y^i) keeps rho >= 0 and exactly 0 at y = 1.
    rho_val = float(np.dot(dist.probs, 1.0 - y ** dist.support.astype(np.float64)))
    residual = abs(float(np.dot(zprobs, y**zvals)) - y)
    return SurvivalSolution(x_plus, rho_val, iterations, residual, converged)


def rho(dist: Distribution, tol: float = DEFAULT_TOL) -> float:
    """Two-stage survival probability: 1 - sum_i r_i (1 - x_plus)^i."""
    return solve_x_plus(dist, tol).rho


def rho_k_table(dist: Distribution, k_max: int) -> ProgenyTable:
    """Exact small-tree probabilities by truncated convolution.

    Let f[s] be the probability a one-stage tree has exactly s vertices and
    w[j][s] the probability that j independent one-stage trees have s
    vertices in total. Both fill in increasing s (a forest of total size s
    only involves trees of size < s once j >= 1 vertices are set aside), and
    the two-stage answer conditions on the root's offspring count:
    rho_k = sum_j r_j * w[j][k-1]. Cost O(k_max^2 * max_degree).
    """
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    if mean(dist) <= 0.0:
        raise ZeroMean("offspring law needs E(D) > 0")
    z = offspring(dist)
    d_max = dist.max_support
    zdense = z.dense(d_max)  # Pr(Z = i), i = 0..d_max-1
    f = np.zeros(k_max + 1)
    w = np.zeros((d_max + 1, k_max + 1))
    w[0, 0] = 1.0
    for s in range(1, k_max + 1):
        f[s] = float(np.dot(zdense, w[: len(zdense), s - 1]))
        w[1, s] = f[s]
        for j in range(2, d_max + 1):
            top = s - j + 1
            if top < 1:
                continue
            w[j, s] = float(np.dot(f[1 : top + 1], w[j - 1, s - 1 : j - 2 : -1]))
    rdense = dist.dense(d_max + 1)
    rho_k = rdense @ w[:, 0:k_max]
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


def sample_tree_size(dist: Distribution, rng: np.random.Generator, cap: int = DEFAULT_CAP):
    """Size of one two-stage tree, or EXCEEDS_CAP once it outgrows ``cap``."""
    size = int(sample_tree_sizes(dist, 1, rng, cap)[0])
    return size if size <= cap else EXCEEDS_CAP


def sample_truncated_tree(
    dist: Distribution, rng: np.random.Generator, t: int
) -> RootedNeighborhood:
    """The two-stage tree cut at depth t, as a rooted neighborhood.

    Vertices at depth t are kept but their children are not instantiated, so
    their recorded degree understates the full tree; properties that look at
    degrees up to distance t-1 remain faithful.
    """
    if t < 0:
        raise ValueError("depth must be >= 0")
    if t == 0:
        return RootedNeighborhood(
            root=0,
            depth=0,
            vertices=np.array([0], dtype=np.int64),
            distances=np.array([0], dtype=np.int64),
            edges=np.empty((0, 2), dtype=np.int64),
            is_tree=True,
        )
    # A zero-mean law pins the root's count at 0; the offspring law is then
    # never consulted, so only derive it when it exists.
    z = offspring(dist) if mean(dist) > 0.0 else None
    parents = [-1]
    depths = [0]
    frontier = [0]
    for depth in range(1, t + 1):
        if not frontier:
            break
        if depth == 1:
            counts = [sample(dist, rng)]
        else:
            counts = sample(z, rng, size=len(frontier)).tolist()
        nxt = []
        for parent, c in zip(frontier, counts):
            for _ in range(int(c)):
                node = len(parents)
                parents.append(parent)
                depths.append(depth)
                nxt.append(node)
        frontier = nxt
    vertices = np.arange(len(parents), dtype=np.int64)
    distances = np.array(depths, dtype=np.int64)
    edges = np.array(
        [(parents[v], v) for v in range(1, len(parents))], dtype=np.int64
    ).reshape(-1, 2)
    return RootedNeighborhood(0, int(t), vertices, distances, edges, True)


def tree_property_probability(
    dist: Distribution,
    prop: LocalProperty,
    samples: int,
    rng: np.random.Generator,
) -> tuple[float, float]:
    """Monte Carlo estimate of the probability that the limit tree has prop.

    Returns (estimate, 95% normal-approximation half-width). The tree is
    drawn truncated at the property's own radius, which by locality is
    enough to decide it.
    """
    if samples < 1:
        raise ValueError("need samples >= 1")
    radius = prop.radius  # raises UnboundedRadius for radius-free properties
    hits = 0
    for _ in range(samples):
        tree = sample_truncated_tree(dist, rng, radius)
        if _evaluate_property(tree, prop):
            hits += 1
    estimate = hits / samples
    half_width = 1.96 * float(np.sqrt(estimate * (1.0 - estimate) / samples))
    return estimate, half_width


def giant_degree_fraction(dist: Distribution, d: int, tol: float = DEFAULT_TOL) -> float:
    """Limiting fraction of vertices that have degree d and sit in the giant.

    Closed form r_d * (1 - (1 - x_plus)^d): the root has degree d and at
    least one of its d branches survives.
    """
    solution = solve_x_plus(dist, tol)
    r_d = dist.pmf(d)
    return r_d * (1.0 - (1.0 - solution.x_plus) ** d)
