"""Component statistics and local property counts.

A "local property" is a predicate of a rooted graph that only looks at the
ball of some finite radius around the root; the built-in kinds below cover
component-size predicates, the root-degree predicate, and the bounded-degree
ball predicate used by the concentration machinery. ``clauses`` is the one
reading of a spec; ``property_mask`` and ``branching.limit_probability``
both consume it. ``property_mask`` decides a property at every vertex in one
vectorized pass (census or whole-array BFS steps over the edge rows), never
one BFS per vertex; it is the one evaluator of properties on graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import MultiGraph


class ComponentCensus:
    """Component decomposition: sizes sorted descending plus a vertex labeling.

    Ties between equal-sized components are broken by the smallest vertex
    index they contain, so component 0 is always *the* largest component.
    """

    __slots__ = ("sizes", "component_id")

    def __init__(self, sizes: np.ndarray, component_id: np.ndarray):
        self.sizes = sizes
        self.component_id = component_id

    @property
    def largest(self) -> int:
        """L1: number of vertices in the largest component."""
        return int(self.sizes[0])

    @property
    def second_largest(self) -> int:
        """L2, or 0 when there is a single component."""
        return int(self.sizes[1]) if self.sizes.size > 1 else 0

    def vertices_in_components_of_size(self, k: int) -> int:
        """N_k: number of vertices lying in components with exactly k vertices."""
        return int(k * np.count_nonzero(self.sizes == k))

    def vertices_in_components_of_size_at_least(self, k: int) -> int:
        """N_{>=k}: number of vertices in components with at least k vertices."""
        return int(self.sizes[self.sizes >= k].sum())

    def giant_mask(self) -> np.ndarray:
        return self.component_id == 0


def components(graph: MultiGraph) -> ComponentCensus:
    """Exact component decomposition; loops are ignored for connectivity.

    Min-label hooking with pointer jumping (Shiloach and Vishkin 1982) over
    the edge rows. Each round hooks every root to the smallest root it
    shares an edge with, jumps pointers, re-reads each edge's ends as their
    roots and drops the edges whose ends now share a root. Parents only ever
    point down, so every root ends as its component's smallest vertex. A
    root that survives two rounds has absorbed all of its neighbours, so
    every two rounds at least halve the roots of each component: at most
    ~2 log2(n) rounds (4-5 on configuration graphs at n = 10^5-10^6, 12-13
    on randomly labelled paths of 10^6 vertices).

    The first round hooks along every edge and flattens the whole array.
    Later rounds touch only the live roots, the ends of the edges that are
    left. Only live roots are hooked, and only onto live roots, so every
    pointer chain that starts at a live root stays among the live roots,
    and jumping over those alone makes each of them point at its root.
    Other vertices may then point at a root that has since been hooked, so
    one whole-array flatten after the last round finishes the job. The
    components are numbered by their roots: a stable sort of the roots, in
    vertex order, by size.
    """
    n = graph.n
    # The first round reads the edge columns as they are: rows are
    # (min, max), and a loop hooks its vertex to itself, which changes nothing.
    lo, hi = graph.edges[:, 0], graph.edges[:, 1]
    parent = np.arange(n)
    np.minimum.at(parent, hi, lo)
    parent = _flatten(parent)
    # [] on the strided columns: take would first copy each to a contiguous one.
    lo = parent[lo]
    hi = parent[hi]
    while True:
        apart = lo != hi
        lo = lo.compress(apart)
        hi = hi.compress(apart)
        del apart
        if not lo.size:
            break
        smaller = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo = smaller
        live = np.zeros(n, dtype=bool)
        live[lo] = True
        live[hi] = True
        live = np.flatnonzero(live)
        np.minimum.at(parent, hi, lo)
        up = parent.take(live)
        while True:
            upup = parent.take(up)
            if np.array_equal(upup, up):
                break
            parent[live] = upup
            up = upup
        del live, up, upup
        lo = parent.take(lo)
        hi = parent.take(hi)
    parent = _flatten(parent)
    # Roots are the smallest vertices of their components, and a stable sort
    # of the roots (in vertex order) by size breaks ties by that vertex.
    roots = np.flatnonzero(parent == np.arange(n))
    sizes = np.bincount(parent, minlength=n).take(roots)
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes.take(order)
    roots = roots.take(order)
    del order
    rank = np.empty(n, dtype=np.int64)
    rank[roots] = np.arange(roots.size)
    del roots
    return ComponentCensus(sizes, rank.take(parent))


def _flatten(parent: np.ndarray) -> np.ndarray:
    """Jump pointers over the whole array until each vertex points at a root."""
    while True:
        jumped = parent.take(parent)
        if np.array_equal(jumped, parent):
            return jumped
        parent = jumped


class LocalProperty:
    """Rooted-graph predicate decided by a finite-radius ball around the root."""


@dataclass(frozen=True)
class ComponentSizeExactly(LocalProperty):
    k: int


@dataclass(frozen=True)
class ComponentSizeAtLeast(LocalProperty):
    k: int


@dataclass(frozen=True)
class RootDegree(LocalProperty):
    d: int


@dataclass(frozen=True)
class MaxDegreeBall(LocalProperty):
    """No vertex within distance t of the root has degree above delta; t >= 0."""

    delta: int
    t: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"ball radius must be >= 0, got {self.t}")


@dataclass(frozen=True)
class Conjunction(LocalProperty):
    parts: tuple[LocalProperty, ...]


def clauses(prop: LocalProperty) -> tuple[list[int], list[tuple[int, int]], int, float]:
    """The clauses of prop: (root degrees, (delta, t) ball clauses, a, b).

    prop holds where every clause does, its size clauses as one window
    [a, b], b infinite without component_exactly. Nested conjunctions
    flatten in spec order; an unknown kind raises TypeError.
    """
    degrees, balls, low, high = [], [], 1, math.inf
    parts = [prop]
    while parts:
        part = parts.pop()
        if isinstance(part, Conjunction):
            parts.extend(reversed(part.parts))
        elif isinstance(part, RootDegree):
            degrees.append(part.d)
        elif isinstance(part, ComponentSizeExactly):
            low, high = max(low, part.k), min(high, part.k)
        elif isinstance(part, ComponentSizeAtLeast):
            low = max(low, part.k)
        elif isinstance(part, MaxDegreeBall):
            balls.append((part.delta, part.t))
        else:
            raise TypeError(f"unknown property kind {type(part).__name__}")
    return degrees, balls, low, high


def property_mask(
    graph: MultiGraph,
    prop: LocalProperty,
    census: ComponentCensus | None = None,
) -> np.ndarray:
    """Boolean vector: entry v says whether the graph rooted at v has prop."""
    root_degrees, balls, low, high = clauses(prop)
    if (low, high) == (1, math.inf):
        mask = np.ones(graph.n, dtype=bool)
    else:
        census = census if census is not None else components(graph)
        # Decide per component, then gather bools, not int64 sizes.
        holds = census.sizes >= low
        if high < math.inf:
            holds &= census.sizes <= high
        mask = holds.take(census.component_id)
        del holds
    if root_degrees or balls:
        degrees = graph.degrees()
        for d in root_degrees:
            mask &= degrees == d
        # Only the bools outlive the degrees into the BFS.
        heavy = [degrees > delta for delta, _ in balls]
        del degrees
        for (_, t), sources in zip(balls, heavy):
            mask &= ~_within_distance(graph, sources, t)
    return mask


def property_counts(graph: MultiGraph, prop: LocalProperty) -> tuple[int, int]:
    """Vertices whose rooted view satisfies prop: in the whole graph, and in
    its largest component."""
    census = components(graph)
    mask = property_mask(graph, prop, census)
    return int(mask.sum()), int((mask & census.giant_mask()).sum())


def _within_distance(graph: MultiGraph, sources: np.ndarray, t: int) -> np.ndarray:
    """Vertices within graph distance <= t of any source (multi-source BFS).

    Each step marks both ends of every edge row with a reached end (a loop
    marks its own, already reached, vertex); a step that reaches nothing new
    ends it.
    """
    # [] on the strided columns: take would first copy each to a contiguous one.
    u, v = graph.edges[:, 0], graph.edges[:, 1]
    reached = sources.copy()
    for _ in range(t):
        grown = reached.copy()
        grown[u[reached[v]]] = True
        grown[v[reached[u]]] = True
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached
