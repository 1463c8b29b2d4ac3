"""Component statistics and local property counts.

A "local property" is a predicate of a rooted graph that only looks at the
ball of some finite radius around the root; the built-in kinds below cover
component-size predicates, the root-degree predicate, and the bounded-degree
ball predicate used by the concentration machinery. ``property_mask``
decides a property at every vertex in one vectorized pass (census or
boolean sparse matrix-vector products), never one BFS per vertex; it is
the one evaluator of properties on graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .configuration import MultiGraph
from .errors import UnboundedRadius


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
    def n(self) -> int:
        return int(self.component_id.size)

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

    def size_counts(self) -> dict[int, int]:
        values, counts = np.unique(self.sizes, return_counts=True)
        return {int(v): int(v * c) for v, c in zip(values, counts)}

    def to_json_dict(self) -> dict:
        return {
            "sizes": self.sizes.tolist(),
            "N_k": {str(k): v for k, v in sorted(self.size_counts().items())},
            "L1": self.largest,
            "L2": self.second_largest,
        }


def components(graph: MultiGraph) -> ComponentCensus:
    """Exact component decomposition; loops are ignored for connectivity."""
    n = graph.n
    e = graph.edges[graph.edges[:, 0] != graph.edges[:, 1]]
    if e.shape[0]:
        data = np.ones(e.shape[0], dtype=np.int8)
        adj = coo_matrix((data, (e[:, 0], e[:, 1])), shape=(n, n))
        _, labels = connected_components(adj, directed=False)
    else:
        labels = np.arange(n)
    label_sizes = np.bincount(labels)
    # scipy numbers components in order of their smallest vertex, so a
    # stable sort by size breaks ties by the smallest vertex.
    order = np.argsort(-label_sizes, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return ComponentCensus(label_sizes[order], rank[labels])


class LocalProperty:
    """Rooted-graph predicate decided by a finite-radius ball around the root."""

    @property
    def radius(self) -> int:
        raise UnboundedRadius(f"{type(self).__name__} declares no finite radius")


@dataclass(frozen=True)
class ComponentSizeExactly(LocalProperty):
    k: int

    @property
    def radius(self) -> int:
        return self.k


@dataclass(frozen=True)
class ComponentSizeAtLeast(LocalProperty):
    k: int

    @property
    def radius(self) -> int:
        return max(self.k - 1, 0)


@dataclass(frozen=True)
class RootDegree(LocalProperty):
    d: int

    @property
    def radius(self) -> int:
        return 1


@dataclass(frozen=True)
class MaxDegreeBall(LocalProperty):
    """No vertex within distance t of the root has degree above delta."""

    delta: int
    t: int

    @property
    def radius(self) -> int:
        return self.t + 1


@dataclass(frozen=True)
class Conjunction(LocalProperty):
    parts: tuple[LocalProperty, ...]

    @property
    def radius(self) -> int:
        return max((p.radius for p in self.parts), default=0)


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
        sizes = census.sizes[census.component_id]
        if isinstance(prop, ComponentSizeExactly):
            return sizes == prop.k
        return sizes >= prop.k
    if isinstance(prop, RootDegree):
        return graph.degrees() == prop.d
    if isinstance(prop, MaxDegreeBall):
        heavy = graph.degrees() > prop.delta
        return ~_within_distance(graph, heavy, prop.t)
    raise TypeError(f"unknown property kind {type(prop).__name__}")


def count_property(graph: MultiGraph, prop: LocalProperty) -> int:
    """Number of vertices whose rooted view satisfies prop."""
    return int(property_mask(graph, prop).sum())


def count_property_in_giant(graph: MultiGraph, prop: LocalProperty) -> int:
    """Number of vertices of the largest component satisfying prop."""
    census = components(graph)
    mask = property_mask(graph, prop, census)
    return int((mask & census.giant_mask()).sum())


def _within_distance(graph: MultiGraph, sources: np.ndarray, t: int) -> np.ndarray:
    """Vertices within graph distance <= t of any source (multi-source BFS).

    Each step is one product with the boolean adjacency matrix, in which
    products are ANDs and sums ORs; a step that reaches nothing new ends it.
    """
    adj = graph.adjacency_csr()
    reached = sources.copy()
    for _ in range(t):
        grown = reached | (adj @ reached)
        if np.array_equal(grown, reached):
            break
        reached = grown
    return reached
