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
    """Component decomposition: sizes sorted descending, the components'
    roots in that order, and each vertex's root (``parent``).

    A root is its component's smallest vertex. Equal sizes are ordered by
    it, so component 0 is always *the* largest component.
    """

    __slots__ = ("sizes", "roots", "parent", "_component_id")

    def __init__(self, sizes: np.ndarray, roots: np.ndarray, parent: np.ndarray):
        self.sizes = sizes
        self.roots = roots
        self.parent = parent
        self._component_id = None

    @property
    def largest(self) -> int:
        """L1: number of vertices in the largest component, 0 without vertices."""
        return int(self.sizes[0]) if self.sizes.size else 0

    @property
    def second_largest(self) -> int:
        """L2, or 0 when there is a single component."""
        return int(self.sizes[1]) if self.sizes.size > 1 else 0

    @property
    def component_id(self) -> np.ndarray:
        """Entry v is the number of v's component; built on first read."""
        if self._component_id is None:
            rank = np.empty(self.parent.size, dtype=np.int64)
            rank[self.roots] = np.arange(self.roots.size)
            self._component_id = rank.take(self.parent)
        return self._component_id

    def vertices_in_components_of_size(self, k: int) -> int:
        """N_k: number of vertices lying in components with exactly k vertices."""
        return int(k * np.count_nonzero(self.sizes == k))

    def giant_mask(self) -> np.ndarray:
        # roots[:1] is empty on the vertexless graph, and so is the mask.
        return self.parent == self.roots[:1]


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

    The first round hooks along every edge, jumps the whole array once,
    then jumps only the vertices that moved (6-19% on configuration graphs);
    the others already point at a root. Later rounds touch only the live
    roots, the ends of the edges that are left. Only live roots are hooked,
    and only onto live roots, so every pointer chain that starts at a live
    root stays among the live roots, and jumping over those alone makes
    each of them point at its root. Other vertices may then point at a root
    that has since been hooked, so one whole-array flatten after the last
    round finishes the job.

    The components are numbered by one sort of the keys (n - size)*n + root:
    size descending, ties to the smaller root. The keys stay below n^2,
    within int64 by MAX_VERTICES.
    """
    n = graph.n
    # The first round reads the edge columns as they are: rows are
    # (min, max), and a loop hooks its vertex to itself, which changes nothing.
    lo, hi = graph.edges[:, 0], graph.edges[:, 1]
    parent = np.arange(n)
    np.minimum.at(parent, hi, lo)
    jumped = parent.take(parent)
    moved = np.flatnonzero(jumped != parent)
    parent = jumped
    del jumped  # else the name would keep this array alive past _flatten
    _jump(parent, moved)
    del moved
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
        _jump(parent, live)
        del live
        lo = parent.take(lo)
        hi = parent.take(hi)
    parent = _flatten(parent)
    roots = np.flatnonzero(parent == np.arange(n))
    key = np.bincount(parent, minlength=n).take(roots)
    np.subtract(n, key, out=key)
    key *= n
    key += roots
    key.sort()
    # Decoded in place, into the keys and the roots' own buffer: the census
    # gets no freshly allocated array here.
    sizes, roots = np.divmod(key, n, out=(key, roots))
    np.subtract(n, sizes, out=sizes)
    return ComponentCensus(sizes, roots, parent)


def _flatten(parent: np.ndarray) -> np.ndarray:
    """Jump pointers over the whole array until each vertex points at a root."""
    while True:
        jumped = parent.take(parent)
        if np.array_equal(jumped, parent):
            return jumped
        parent = jumped


def _jump(parent: np.ndarray, movers: np.ndarray) -> None:
    """Jump the movers' pointers in place until each points at a root; every
    chain from a mover must run through movers and vertices at a root."""
    up = parent.take(movers)
    while True:
        upup = parent.take(up)
        if np.array_equal(upup, up):
            return
        parent[movers] = upup
        up = upup


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
        # Decide per component, put each answer at its root, then gather
        # bools by each vertex's root, not int64 sizes by component ids.
        holds = census.sizes >= low
        if high < math.inf:
            holds &= census.sizes <= high
        at_root = np.zeros(graph.n, dtype=bool)
        at_root[census.roots] = holds
        del holds
        mask = at_root.take(census.parent)
        del at_root
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
