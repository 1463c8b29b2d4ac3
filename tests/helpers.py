"""Independent oracles and corpus generators shared by the test modules.

The oracles here deliberately avoid the production code paths: tree-size
probabilities come from explicit enumeration of preorder offspring sequences
and from a forest convolution recursion, survival probabilities from
polynomial root finding, matching laws from recursive enumeration of perfect
matchings, and local properties from one BFS ball per vertex decided by
looking at the ball alone.
"""

from __future__ import annotations

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
)
from gclab.configuration import DegreeSequence, MultiGraph
from gclab.distributions import Distribution, mean, offspring, supercriticality
from gclab.errors import InsufficientRadius


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
# per-vertex local property oracle


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
    if nbhd.depth < prop.radius:
        raise InsufficientRadius(
            f"property needs radius {prop.radius}, neighborhood has depth {nbhd.depth}"
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
