"""Component statistics and local property counts.

A "local property" is a predicate of a rooted graph that only looks at the
ball of some finite radius around the root; the built-in kinds below cover
component-size predicates, the root-degree predicate, and the bounded-degree
ball predicate used by the concentration machinery. ``property_mask``
decides a property at every vertex in one vectorized pass (census or
whole-array BFS steps over the edge rows), never one BFS per vertex; it is
the one evaluator of properties on graphs.
"""

from __future__ import annotations

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
    while True:
        lo = parent[lo]
        hi = parent[hi]
        apart = lo != hi
        lo = lo[apart]
        hi = hi[apart]
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
        up = parent[live]
        while True:
            upup = parent[up]
            if np.array_equal(upup, up):
                break
            parent[live] = upup
            up = upup
        del live, up, upup
    parent = _flatten(parent)
    # Roots are the smallest vertices of their components, and a stable sort
    # of the roots (in vertex order) by size breaks ties by that vertex.
    roots = np.flatnonzero(parent == np.arange(n))
    sizes = np.bincount(parent, minlength=n)[roots]
    order = np.argsort(-sizes, kind="stable")
    sizes = sizes[order]
    roots = roots[order]
    del order
    rank = np.empty(n, dtype=np.int64)
    rank[roots] = np.arange(roots.size)
    del roots
    return ComponentCensus(sizes, rank[parent])


def _flatten(parent: np.ndarray) -> np.ndarray:
    """Jump pointers over the whole array until each vertex points at a root."""
    while True:
        jumped = parent[parent]
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


def property_mask(
    graph: MultiGraph,
    prop: LocalProperty,
    census: ComponentCensus | None = None,
) -> np.ndarray:
    """Boolean vector: entry v says whether the graph rooted at v has prop."""
    if isinstance(prop, Conjunction):
        mask = np.ones(graph.n, dtype=bool)
        for part in prop.parts:
            mask &= property_mask(graph, part, census)
        return mask
    if isinstance(prop, (ComponentSizeExactly, ComponentSizeAtLeast)):
        census = census if census is not None else components(graph)
        # Decide per component, then gather bools, not int64 sizes.
        if isinstance(prop, ComponentSizeExactly):
            holds = census.sizes == prop.k
        else:
            holds = census.sizes >= prop.k
        return holds[census.component_id]
    if isinstance(prop, RootDegree):
        return graph.degrees() == prop.d
    if isinstance(prop, MaxDegreeBall):
        heavy = graph.degrees() > prop.delta
        return ~_within_distance(graph, heavy, prop.t)
    raise TypeError(f"unknown property kind {type(prop).__name__}")


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
