"""Component statistics and local property counts.

A "local property" is a predicate of a rooted graph that only looks at the
ball of some finite radius around the root; the built-in kinds below cover
component-size predicates, the root-degree predicate, and the bounded-degree
ball predicate used by the concentration machinery. ``clauses`` is the one
reading of a spec; ``property_mask``, ``property_counts`` and
``branching.limit_probability`` consume it. A property is decided at every
vertex in one vectorized pass (census or whole-array BFS steps over the edge
rows), never one BFS per vertex, and its degree and ball clauses by one
evaluator, ``degree_and_ball_mask``, which ``property_mask`` and
``property_counts`` share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .configuration import BLOCK, MultiGraph


@dataclass(eq=False)
class ComponentCensus:
    """Component decomposition: each vertex's root (``parent``), and each
    component's root and size, in the vertex order of the roots.

    A root is its component's smallest vertex. The readers below ignore the
    order of the components; argmax over the sizes, which takes the first
    maximum in root order, finds the smallest root among the largest sizes,
    *the* largest component.
    """

    parent: np.ndarray
    roots: np.ndarray
    sizes: np.ndarray

    @property
    def largest(self) -> int:
        """L1: number of vertices in the largest component, 0 without vertices."""
        return int(self.sizes.max()) if self.sizes.size else 0

    @property
    def second_largest(self) -> int:
        """L2, or 0 when there is a single component."""
        if not self.sizes.size:
            return 0
        # The larger of the maxima on either side of the largest component.
        giant = int(self.sizes.argmax())
        rest = (self.sizes[:giant], self.sizes[giant + 1 :])
        return max((int(part.max()) for part in rest if part.size), default=0)

    def vertices_in_components_of_size(self, k: int) -> int:
        """N_k: number of vertices lying in components with exactly k vertices."""
        return int(k * np.count_nonzero(self.sizes == k))

    def giant_mask(self) -> np.ndarray:
        """The vertices of the largest component; empty on the vertexless graph."""
        if not self.sizes.size:
            return np.zeros(0, dtype=bool)
        return self.parent == self.roots[self.sizes.argmax()]

    def size_window_mask(self, low: int, high: float) -> np.ndarray:
        """The vertices whose component has between low and high vertices."""
        # Decide per root, put each answer at its root, then gather bools by
        # each vertex's root.
        holds = self.sizes >= low
        if high < math.inf:
            holds &= self.sizes <= high
        at_root = np.zeros(self.parent.size, dtype=bool)
        at_root[self.roots] = holds
        del holds
        return at_root.take(self.parent)


def components(graph: MultiGraph, start: np.ndarray | None = None) -> ComponentCensus:
    """Exact component decomposition; loops are ignored for connectivity.

    With ``start``, the ``parent`` array of another graph's census on the
    same n vertices, it is the census of both graphs' rows together:
    ``start``'s roots stand in for the first round, only this graph's rows
    are hooked, and ``start`` is grown in place into the new census's
    ``parent``.

    Min-label hooking with pointer jumping (Shiloach and Vishkin 1982) over
    the edge rows. Each round hooks every root to the smallest root it
    shares an edge with, points every hooked vertex at a root, re-reads each
    edge's ends as their roots and drops the edges whose ends now share a
    root. Parents only ever point down, inside a component, so every root
    ends as its component's smallest vertex. A root that survives two
    rounds has absorbed all of its neighbours, so every two rounds at least
    halve the roots of each component: at most ~2 log2(n) rounds (1-3 on
    the mixture and reg3 at n = 10^5-10^6, 10-11 on randomly labelled paths
    of 10^5-10^6 vertices).

    The first round hooks along every edge at once, from ``arange``; a
    ``start`` array, which points every vertex at a root already, stands in
    for it. With at least 0.9 n rows (a mixture graph's n, reg3's 1.5 n), a
    hook pass follows, with or without ``start``: it hooks along every row,
    a block of rows at a time, with each block reading the hooks of the
    blocks before it (``_hook_rows``). Then the parents are flattened in
    place, a block of vertices at a time (``_jump`` on each block), so
    every vertex points at a root. The pass costs one more read of the
    rows and leaves few to re-read: on the mixture {1: 1/2, 3: 1/2} at
    n = 10^6, about 0.4% of the rows survive it, against 37.5% after the
    first round alone, and on reg3 none. Below 0.9 n rows (a sweep's first
    level holds 0.45 n) it costs more than it saves. Hooking every edge at
    once before the pass keeps the pass from depending on the row order:
    where the rows of a block share vertices (rows sorted by their larger
    end, or running along a path), blocks of the pass alone hook no more
    than that round does.

    Below 0.9 n rows nothing is flattened: a census from scratch goes from
    the first round straight to the re-read, so round 2's ends are the
    first round's parents, not all of them roots. Round 2 still leaves its
    hooked ends at roots. If the first round points v at p and p at q < p,
    it pointed v at p through a row (p, v), whose re-read is (q, p): p is
    a larger end of round 2, hooked and jumped, and its link to q survives
    as that row. So every round-2 end and every parent is a root, such a
    p, or a root that round 2 hooks, and every chain from a hooked end of
    round 2 runs through hooked ends to a root, as in a later round.

    In a later round every edge end is a root, and only the larger ends
    (``hi``) are hooked, onto ends of the same round, so every pointer chain
    that starts at a hooked end runs through hooked ends to a root, and
    jumping the hooked ends alone makes each of them point at a root. The
    round keeps its hooked ends. Each re-read goes a block of rows at a time
    and keeps only the rows whose ends differ (``_roots_apart``), so both
    ends of every row are never held at once.

    The other vertices may still point at a root that a later round hooked.
    The relabel goes through the kept ends latest round first: an end of
    round k points at a root of round k's end, which is final or an end of
    a later round, already relabelled, so one two-step gather per round
    makes every kept end point at its final root. A vertex that no round
    hooked still points where the first round, the flatten or ``start``
    left it: at a root then, or at a p as above, a kept end of round 2.
    Each such root is final or a kept, relabelled end, so every vertex
    points at a vertex that points at its final root. The last gather
    reads ``parent[parent[v]]`` in place, a block of vertices at a time: a
    read of a vertex already gathered still names that vertex's final
    root, so the blocks may run in any order, and no second n-sized array
    is made.

    The census holds the roots in vertex order and their sizes. With at
    least 0.9 n rows they come from the roots' ranks (``_ranked_census``):
    the last gather flags the roots, and the sizes are a count of length
    c, the number of components. Its peak is then in the rounds before
    (the parents, a flag per row and a block's temporaries): 0.75 edge
    arrays on the mixture at n = 10^5, against 1.10 for a count of length
    n. Below 0.9 n rows (each level of a reg3 sweep over p = 0.3, 0.45,
    0.5, 0.55, 0.7 holds 0.075-0.45 n) the sizes are one bincount over the
    n vertex ids, whose nonzero entries name the roots: there the ranked
    tail's two more passes over the parents cost more time than the count.
    """
    n = graph.n
    lo, hi = graph.edges[:, 0], graph.edges[:, 1]
    dense = 10 * lo.size >= 9 * n
    if start is None:
        # The first round reads the edge columns as they are: rows are (min,
        # max), and a loop hooks its vertex to itself, which changes nothing.
        parent = np.arange(n)
        np.minimum.at(parent, hi, lo)
    elif start.size != n:
        raise ValueError(f"start parent array has {start.size} vertices, the graph {n}")
    else:
        parent = start
    if dense:
        _hook_rows(parent, graph.edges)
        for first in range(0, n, BLOCK):
            _jump(parent, slice(first, first + BLOCK))
    lo, hi = _roots_apart(parent, lo, hi)
    hooked = []
    while lo.size:
        smaller = np.minimum(lo, hi)
        np.maximum(lo, hi, out=hi)
        lo = smaller
        np.minimum.at(parent, hi, lo)
        _jump(parent, hi)
        hooked.append(hi)
        lo, hi = _roots_apart(parent, lo, hi)
    while hooked:
        ends = hooked.pop()
        parent[ends] = parent.take(parent.take(ends))
        del ends  # else the name would keep round 2's ends past the final gather
    if dense:
        return _ranked_census(parent)
    for first in range(0, n, BLOCK):
        block = parent[first : first + BLOCK]
        block[...] = parent.take(block)
    # Only a root has a vertex pointing at it: itself, at the least. The
    # compare first: numpy's nonzero is about 4x faster on bools than on int64.
    counts = np.bincount(parent, minlength=n)
    roots = np.flatnonzero(counts != 0)
    return ComponentCensus(parent, roots, counts.take(roots))


def _ranked_census(parent: np.ndarray) -> ComponentCensus:
    """The census from parents that each point at a vertex that points at
    the final root, counted by the roots' ranks, without an n-sized count.

    The last gather flags the roots as it goes. For a moment each root's
    slot holds its rank in vertex order, and every other vertex reads its
    root's rank in place, a block at a time: only roots are read and only
    other vertices are written, so the blocks may run in any order. The
    sizes are a count of length c, the number of components, and the ranks
    then go back to roots in place.
    """
    n = parent.size
    is_root = np.empty(n, dtype=bool)
    for first in range(0, n, BLOCK):
        block = parent[first : first + BLOCK]
        block[...] = parent.take(block)
        np.equal(block, np.arange(first, first + block.size), out=is_root[first : first + BLOCK])
    roots = np.flatnonzero(is_root)
    parent[roots] = np.arange(roots.size)
    for first in range(0, n, BLOCK):
        block = parent[first : first + BLOCK]
        np.copyto(block, parent.take(block), where=~is_root[first : first + BLOCK])
    del is_root
    sizes = np.bincount(parent, minlength=roots.size)
    for first in range(0, n, BLOCK):
        block = parent[first : first + BLOCK]
        block[...] = roots.take(block)
    return ComponentCensus(parent, roots, sizes)


def _roots_apart(parent: np.ndarray, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ends u[i], v[i] read as parent[u[i]], parent[v[i]], for the i
    whose two reads differ, in order.

    Two passes, a block at a time: the first flags the i whose reads
    differ, the second reads just those into arrays of the exact length, so
    the flags and the survivors are all that is held at full length.
    Joining block-sized pieces of the survivors instead holds them twice,
    and where most pairs survive the freed pieces stay in the C heap: 17-39
    MB more resident memory for ``giant`` on {1: 1/2, 99: 1/2} at n = 120000.
    """
    apart = np.empty(u.size, dtype=bool)
    for first in range(0, u.size, BLOCK):
        # [] on the strided edge columns: take would first copy each to a
        # contiguous one.
        block = slice(first, first + BLOCK)
        np.not_equal(parent[u[block]], parent[v[block]], out=apart[block])
    size = np.count_nonzero(apart)
    lo, hi = np.empty(size, dtype=np.int64), np.empty(size, dtype=np.int64)
    filled = 0
    for first in range(0, u.size, BLOCK):
        kept = np.flatnonzero(apart[first : first + BLOCK])
        kept += first
        stop = filled + kept.size
        lo[filled:stop] = parent[u[kept]]
        hi[filled:stop] = parent[v[kept]]
        filled = stop
    return lo, hi


def _hook_rows(parent: np.ndarray, edges: np.ndarray) -> None:
    """Hook along every row in place, a block of rows at a time, where every
    parent points down inside its component: read each end three parents
    up and hook the larger read onto the smaller.

    A block reads the hooks of the blocks before it, so a component can
    merge along many rows in one pass, as in union-find. A read that the
    first round or an earlier block hooked is not a root, and hooking it
    again keeps the smaller of its two parents and drops the other link.
    Every pointer still goes down inside its component, and the re-read
    after the pass reads every row again, so no link is lost for good.
    Reads three parents up: on the mixture at n = 10^6 the re-read keeps
    140k rows after reads one parent up, 111k two up, 4.1k three up and
    0.9k four up, and three took the least time.
    """
    for first in range(0, edges.shape[0], BLOCK):
        ends = parent.take(parent.take(parent.take(edges[first : first + BLOCK])))
        lo, hi = ends[:, 0], ends[:, 1]
        np.minimum.at(parent, np.maximum(lo, hi), np.minimum(lo, hi))


def _jump(parent: np.ndarray, movers: np.ndarray | slice) -> None:
    """Jump the movers' pointers (an index array or a slice) in place until
    each points at a root; every chain from a mover must run through movers
    and vertices at a root, as a block's does once the blocks below it are
    flat, parents pointing down. A chain among movers takes O(log) steps."""
    up = parent[movers]
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
    """Boolean vector: entry v says whether the graph rooted at v has prop.

    The degree and ball clauses are decided first, so a census taken here
    runs beside their bools alone."""
    mask = degree_and_ball_mask(graph, prop)
    _, _, low, high = clauses(prop)
    if (low, high) != (1, math.inf):
        census = census if census is not None else components(graph)
        mask &= census.size_window_mask(low, high)
    return mask


def property_counts(graph: MultiGraph, prop: LocalProperty, mask: np.ndarray) -> tuple[int, int]:
    """Vertices whose rooted view satisfies prop: in the whole graph, and in
    its largest component. ``mask`` is ``degree_and_ball_mask(graph, prop)``,
    which this then owns: as in ``property_mask``, the degree and ball
    clauses are decided before the census, so the degrees are freed before
    it."""
    _, _, low, high = clauses(prop)
    census = components(graph)
    if (low, high) != (1, math.inf):
        mask &= census.size_window_mask(low, high)
    return int(np.count_nonzero(mask)), int(np.count_nonzero(mask & census.giant_mask()))


def degree_and_ball_mask(
    graph: MultiGraph, prop: LocalProperty, degrees: np.ndarray | None = None
) -> np.ndarray:
    """The vertices where every root-degree and every ball clause of prop
    holds. ``degrees`` are the graph's degrees where the caller drew them;
    else they are counted from the rows."""
    root_degrees, balls, _, _ = clauses(prop)
    mask = np.ones(graph.n, dtype=bool)
    if root_degrees or balls:
        if degrees is None:
            degrees = graph.degrees()
        for d in root_degrees:
            mask &= degrees == d
        # Counted here, only the bools outlive the degrees into the BFS.
        heavy = [degrees > delta for delta, _ in balls]
        del degrees
        for (_, t), sources in zip(balls, heavy):
            mask &= ~_within_distance(graph, sources, t)
    return mask


def _within_distance(graph: MultiGraph, sources: np.ndarray, t: int) -> np.ndarray:
    """Vertices within graph distance <= t of any source (multi-source BFS).

    Each step marks both ends of every edge row with a reached end (a loop
    marks its own, already reached, vertex); a step that reaches nothing new
    ends it. Without a source there is no step to take.
    """
    if not sources.any():
        return sources
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
