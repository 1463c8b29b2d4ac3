"""Independent oracles and corpus generators shared by the test modules.

The oracles here deliberately avoid the production code paths: tree-size
probabilities come from explicit enumeration of preorder offspring sequences
and from a forest convolution recursion, limit-tree property probabilities
from a seeded Monte Carlo over sampled trees, survival probabilities from
polynomial root finding, matching laws from recursive enumeration of perfect
matchings, and local properties from one BFS ball per vertex decided by
looking at the ball alone. ``radius`` gives the depth of ball that decides
each property; the tree Monte Carlo cuts its trees there, and the ball
oracle refuses a shallower ball with ``InsufficientRadius``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import numpy as np

from gclab.census import (
    ComponentSizeAtLeast,
    ComponentSizeExactly,
    Conjunction,
    LocalProperty,
    MaxDegreeBall,
    RootDegree,
    degree_and_ball_mask,
    property_counts,
    property_mask,
)
from gclab.configuration import DegreeSequence, MultiGraph
from gclab.distributions import Distribution, mean, offspring, sample, supercriticality

DEFAULT_CAP = 10**4

# Keeps the scratch arrays of the batched tree samplers bounded: draws per
# round in sample_tree_sizes, expected vertices per forest in
# tree_property_probability.
_DRAW_CHUNK = 8_000_000


# ---------------------------------------------------------------------------
# branching-process oracles


def enumerate_tree_size_probs(dist: Distribution, k_max: int) -> np.ndarray:
    """Pr(tree has exactly k vertices) for k=1..k_max by explicit enumeration.

    A rooted ordered tree with k vertices corresponds to exactly one preorder
    offspring sequence (c_1, ..., c_k) with sum k-1 whose prefixes satisfy
    c_1 + ... + c_j >= j for j < k. The root count follows the degree law,
    every later count the offspring law; the sequence probability is the
    product of the atom probabilities.
    """
    z = offspring(dist)
    root_pmf = {int(v): float(p) for v, p in zip(dist.support, dist.probs)}
    z_pmf = {int(v): float(p) for v, p in zip(z.support, z.probs)}
    z_values = sorted(z_pmf)
    out = np.zeros(k_max)
    for k in range(1, k_max + 1):
        total = 0.0
        root_choices = [v for v in root_pmf if v <= k - 1]
        if k == 1:
            out[0] = root_pmf.get(0, 0.0)
            continue
        for c_root in root_choices:
            for rest in product(z_values, repeat=k - 1):
                if c_root + sum(rest) != k - 1:
                    continue
                running = c_root
                ok = True
                for j, c in enumerate(rest, start=2):
                    if running < j - 1:
                        ok = False
                        break
                    running += c
                if ok and running >= k - 1:
                    prob = root_pmf[c_root]
                    for c in rest:
                        prob *= z_pmf[c]
                    total += prob
        out[k - 1] = total
    return out


def survival_oracle(dist: Distribution) -> tuple[float, float]:
    """(x_plus, rho) via numpy root finding on the extinction polynomial.

    The extinction probability is the smallest root in [0, 1] of
    y = sum_i Pr(Z=i) y^i; this solver never iterates, so it is an
    independent check of the fixed-point path.
    """
    z = offspring(dist)
    coeffs = np.zeros(max(int(z.support[-1]), 1) + 1)
    coeffs[z.support] = z.probs
    coeffs[1] -= 1.0
    roots = np.roots(coeffs[::-1])
    real = [r.real for r in roots if abs(r.imag) < 1e-7 and -1e-9 <= r.real <= 1 + 1e-9]
    y = min(min(real), 1.0) if real else 1.0
    y = max(y, 0.0)
    x_plus = 1.0 - y
    rho = 1.0 - float(np.dot(dist.probs, y ** dist.support.astype(float)))
    return x_plus, rho


def survival_oracle_exact(dist: Distribution) -> tuple[float, float]:
    """(x_plus, rho) of the law exactly as stored in floats.

    Bisects over floats on the sign of k(x) = 1 - sum_{i>=1} z_i sum_{j<i}
    (1-x)^j (the survival equation with its trivial root x = 0 divided
    out), evaluated in exact rationals, so the answer is the float next to
    the true root of the stored law however close it is to criticality.
    Cost grows fast with the largest degree; keep degrees small.
    """
    z = offspring(dist)
    atoms = [(int(i), Fraction(float(p))) for i, p in zip(z.support, z.probs)]
    total = sum(p for _, p in atoms)

    def k(x: float) -> Fraction:
        s = 1 - Fraction(x)
        return total - sum(p * sum(s**j for j in range(i)) for i, p in atoms if i >= 1)

    if k(0.0) >= 0:
        return 0.0, 0.0
    lo, hi = 0.0, 1.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if k(mid) < 0:
            lo = mid
        else:
            hi = mid
    r = [(int(i), Fraction(float(p))) for i, p in zip(dist.support, dist.probs)]
    s = 1 - Fraction(hi)
    rho = sum(p * (1 - s**i) for i, p in r) / sum(p for _, p in r)
    return hi, float(rho)


def rho_k_recursion_oracle(dist: Distribution, k_max: int) -> np.ndarray:
    """rho_1..rho_k_max by the forest convolution recursion.

    f[s] is the probability that a one-stage tree has exactly s vertices
    and w[j][s] that j independent one-stage trees have s vertices in
    total. Both fill in increasing s (a forest of total size s only
    involves trees of size < s once j >= 1 vertices are set aside), and the
    two-stage answer conditions on the root's offspring count:
    rho_k = sum_j r_j * w[j][k-1].
    """
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
    return dist.dense(d_max + 1) @ w[:, 0:k_max]


def joint_thinning_oracle(dist: Distribution, p: float) -> np.ndarray:
    """Entry (i, j) = r_j * C(j,i) * p^i * (1-p)^(j-i), term by term with
    exact integer binomial coefficients."""
    size = int(dist.support[-1]) + 1
    out = np.zeros((size, size))
    for j, r_j in zip(dist.support.tolist(), dist.probs.tolist()):
        for i in range(j + 1):
            out[i, j] = r_j * comb(j, i) * p**i * (1.0 - p) ** (j - i)
    return out


# ---------------------------------------------------------------------------
# limit-tree Monte Carlo oracle


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
    depth = radius(prop)
    per_forest = _roots_per_forest(dist, depth)
    hits = 0
    for start in range(0, samples, per_forest):
        roots = min(per_forest, samples - start)
        forest = sample_tree_forest(dist, roots, rng, depth)
        hits += int(np.count_nonzero(property_mask(forest, prop)[:roots]))
    estimate = hits / samples
    half_width = 1.96 * float(np.sqrt(estimate * (1.0 - estimate) / samples))
    return estimate, half_width


# ---------------------------------------------------------------------------
# per-vertex local property oracle


class InsufficientRadius(Exception):
    """The neighborhood is too shallow to decide the property."""


def radius(prop: LocalProperty) -> int:
    """Depth of ball around the root that decides prop (see evaluate_property)."""
    if isinstance(prop, Conjunction):
        return max((radius(p) for p in prop.parts), default=0)
    if isinstance(prop, ComponentSizeExactly):
        return prop.k
    if isinstance(prop, ComponentSizeAtLeast):
        return max(prop.k - 1, 0)
    if isinstance(prop, RootDegree):
        return 1
    if isinstance(prop, MaxDegreeBall):
        return prop.t + 1
    raise TypeError(f"unknown property kind {type(prop).__name__}")


@dataclass(eq=False)
class RootedNeighborhood:
    """Induced subgraph within distance ``depth`` of ``root``, with distances.

    ``vertices`` lists original ids in BFS order (root first); ``distances``
    is parallel to it. ``edges`` holds every edge of the host graph between
    included vertices, loops included, each once.
    """

    root: int
    depth: int
    vertices: np.ndarray
    distances: np.ndarray
    edges: np.ndarray
    is_tree: bool

    @property
    def size(self) -> int:
        return int(self.vertices.size)

    def degree_of(self, vertex: int) -> int:
        """Edge ends at ``vertex`` inside the ball; a loop counts twice."""
        return int(np.count_nonzero(self.edges == vertex))


def neighborhood(graph: MultiGraph, root: int, t: int) -> RootedNeighborhood:
    """BFS ball of radius t around root, as an induced rooted subgraph."""
    if not (0 <= root < graph.n):
        raise ValueError("root outside vertex range")
    if t < 0:
        raise ValueError("radius must be >= 0")
    adj = graph.adjacency_csr()
    indptr, nbrs = adj.indptr, adj.indices
    dist = {int(root): 0}
    order = [int(root)]
    frontier = [int(root)]
    for d in range(1, t + 1):
        nxt = []
        for u in frontier:
            for w in nbrs[indptr[u] : indptr[u + 1]]:
                w = int(w)
                if w not in dist:
                    dist[w] = d
                    order.append(w)
                    nxt.append(w)
        if not nxt:
            break
        frontier = nxt
    inc = graph.incidence_csr()
    inc_ptr, inc_eid = inc.indptr, inc.indices
    eids = set()
    for u in order:
        for eid in inc_eid[inc_ptr[u] : inc_ptr[u + 1]]:
            eids.add(int(eid))
    kept = []
    for eid in eids:
        u, v = graph.edges[eid]
        if int(u) in dist and int(v) in dist:
            kept.append((int(u), int(v)))
    kept.sort()
    edges = np.array(kept, dtype=np.int64).reshape(-1, 2)
    vertices = np.array(order, dtype=np.int64)
    distances = np.array([dist[u] for u in order], dtype=np.int64)
    is_tree = edges.shape[0] == vertices.size - 1 and not any(u == v for u, v in kept)
    return RootedNeighborhood(int(root), int(t), vertices, distances, edges, bool(is_tree))


def evaluate_property(nbhd: RootedNeighborhood, prop: LocalProperty) -> bool:
    """Decide ``prop`` for the root of ``nbhd`` from the ball alone.

    The ball must be at least as deep as the property's radius. With radius
    >= k (resp. k-1) a ball with every vertex strictly inside is the whole
    component, and with radius >= t+1 every vertex within distance t has
    all its edges in the ball.
    """
    if isinstance(prop, Conjunction):
        return all(evaluate_property(nbhd, part) for part in prop.parts)
    if nbhd.depth < radius(prop):
        raise InsufficientRadius(
            f"property needs radius {radius(prop)}, neighborhood has depth {nbhd.depth}"
        )
    if isinstance(prop, ComponentSizeExactly):
        return nbhd.size == prop.k
    if isinstance(prop, ComponentSizeAtLeast):
        return nbhd.size >= prop.k
    if isinstance(prop, RootDegree):
        return nbhd.degree_of(nbhd.root) == prop.d
    if isinstance(prop, MaxDegreeBall):
        return all(
            nbhd.degree_of(v) <= prop.delta
            for v, d in zip(nbhd.vertices.tolist(), nbhd.distances.tolist())
            if d <= prop.t
        )
    raise TypeError(f"unknown property kind {type(prop).__name__}")


# ---------------------------------------------------------------------------
# matching / multigraph law oracles


def all_matchings(items: list[int]):
    """Yield every perfect matching of the given even-sized list."""
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for i, partner in enumerate(rest):
        head = (first, partner)
        for tail in all_matchings(rest[:i] + rest[i + 1 :]):
            yield (head,) + tail


def matching_key(pairs) -> tuple:
    """Canonical form of a matching: pairs sorted inside and between."""
    return tuple(sorted(tuple(sorted(map(int, p))) for p in pairs))


def multigraph_key(graph: MultiGraph) -> tuple:
    """Canonical form of a multigraph-on-labeled-vertices: sorted edge rows."""
    return tuple(sorted(tuple(sorted(map(int, row))) for row in graph.edges))


def stub_owner(ds: DegreeSequence) -> np.ndarray:
    return np.repeat(np.arange(len(ds), dtype=np.int64), ds.degrees)


def exact_multigraph_law(ds: DegreeSequence) -> dict[tuple, float]:
    """Distribution of the contracted multigraph under the uniform matching."""
    owner = stub_owner(ds)
    stubs = list(range(2 * ds.size))
    law: dict[tuple, float] = {}
    matchings = list(all_matchings(stubs))
    weight = 1.0 / len(matchings)
    for matching in matchings:
        edges = [(int(owner[a]), int(owner[b])) for a, b in matching]
        key = tuple(sorted(tuple(sorted(e)) for e in edges))
        law[key] = law.get(key, 0.0) + weight
    return law


# ---------------------------------------------------------------------------
# randomized corpora


def random_distribution(
    rng: np.random.Generator,
    max_value: int = 8,
    max_atoms: int = 5,
    require_degree3: bool = False,
    criticality_margin: float | None = None,
) -> Distribution:
    """A random finite-support law; optional supercriticality-margin filter."""
    while True:
        n_atoms = int(rng.integers(2, max_atoms + 1))
        values = rng.choice(max_value + 1, size=n_atoms, replace=False)
        if require_degree3 and not (values >= 3).any():
            continue
        probs = rng.dirichlet(np.ones(n_atoms))
        if probs.min() < 1e-6:
            continue
        dist = Distribution(list(zip(values.tolist(), probs.tolist())))
        if mean(dist) <= 0.0:
            continue
        if criticality_margin is not None:
            if abs(supercriticality(dist)) <= criticality_margin:
                continue
        return dist


def random_multigraph(rng: np.random.Generator, n: int, m: int) -> MultiGraph:
    """Arbitrary multigraph: m endpoints pairs drawn uniformly (loops allowed)."""
    edges = rng.integers(0, n, size=(m, 2))
    return MultiGraph(n, edges)


def count_property(graph: MultiGraph, prop: LocalProperty) -> tuple[int, int]:
    """``property_counts`` with the mask it counts, decided as local-census does."""
    return property_counts(graph, prop, degree_and_ball_mask(graph, prop))


def component_order(census) -> tuple[np.ndarray, np.ndarray]:
    """The census's sizes and roots in component order: sizes descending,
    equal sizes by root. One sort of the keys (n - size)*n + root, which
    stay below n^2, within int64 by MAX_VERTICES."""
    n = census.parent.size
    keys = np.sort((n - census.sizes) * n + census.roots)
    sizes, roots = np.divmod(keys, n)
    return n - sizes, roots


def component_id(census) -> np.ndarray:
    """Entry v is the number of v's component in the component order."""
    roots = component_order(census)[1]
    rank = np.empty(census.parent.size, dtype=np.int64)
    rank[roots] = np.arange(roots.size)
    return rank.take(census.parent)


def degree_counts(ds: DegreeSequence) -> dict[int, int]:
    """Map degree -> number of vertices with that degree."""
    values, counts = np.unique(ds.degrees, return_counts=True)
    return {int(v): int(c) for v, c in zip(values, counts)}


def tail_mass(ds: DegreeSequence, cutoff: int) -> float:
    """Per-vertex stub mass sitting on degrees >= cutoff: sum_{i>=C} i*n_i / n."""
    degs = ds.degrees
    return float(degs[degs >= cutoff].sum()) / len(ds)


def vertices_in_components_of_size_at_least(census, k: int) -> int:
    """N_{>=k}: number of vertices in components with at least k vertices."""
    return int(census.sizes[census.sizes >= k].sum())


def numbering_oracle(parent: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Component sizes and ids from each vertex's root, its component's
    smallest vertex: a stable argsort of the roots, in vertex order, by
    size descending, then a rank per root gathered by each vertex's root."""
    n = parent.size
    roots = np.flatnonzero(parent == np.arange(n))
    sizes = np.bincount(parent, minlength=n)[roots]
    order = np.argsort(-sizes, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[roots[order]] = np.arange(roots.size)
    return sizes[order], rank[parent]


def partitions(total: int, largest: int | None = None):
    """Non-increasing positive integer partitions of ``total``."""
    if largest is None:
        largest = total
    if total == 0:
        yield ()
        return
    for head in range(min(total, largest), 0, -1):
        for rest in partitions(total - head, head):
            yield (head,) + rest
