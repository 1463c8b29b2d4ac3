"""Edge percolation on multigraphs via independent red/blue edge coloring.

Coloring each edge red with probability p and keeping the red subgraph is
the same as deleting each edge independently; the blue subgraph is what was
deleted. Conditioned on the red degree sequence, the two subgraphs are
independent configuration-model draws, which is what makes the thinned
degree law the right predictor for the percolated graph. One uniform mark
per edge couples every retention probability at once: the graph at p keeps
the rows marked below p, so a grid of p is a nested sequence of graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configuration import DegreeSequence, MultiGraph
from .distributions import check_probability


@dataclass(frozen=True)
class ColoredGraph:
    """A multigraph plus one red/blue flag per edge row."""

    base: MultiGraph
    red: np.ndarray

    def __post_init__(self):
        if self.red.shape != (self.base.num_edges,):
            raise ValueError("need exactly one color flag per edge")
        self.red.setflags(write=False)


def color_edges(graph: MultiGraph, p: float, rng: np.random.Generator) -> ColoredGraph:
    """Color each edge red with probability p, independently."""
    check_probability(p)
    red = rng.random(graph.num_edges) < p
    return ColoredGraph(graph, red)


def split(colored: ColoredGraph):
    """Red and blue subgraphs on the shared vertex set, with their degrees.

    Returns (red_graph, blue_graph, red_degrees, blue_degrees); the degree
    sequences add up vertexwise to the degrees of the base graph.
    """
    base = colored.base
    red_graph = _subgraph(base, colored.red)
    blue_graph = _subgraph(base, ~colored.red)
    return (
        red_graph,
        blue_graph,
        DegreeSequence(red_graph.degrees()),
        DegreeSequence(blue_graph.degrees()),
    )


def retention_levels(graph: MultiGraph, ps: list[float], rng: np.random.Generator) -> list[MultiGraph]:
    """The graph percolated at each of ps, ascending and distinct, as nested
    levels: one uniform mark per edge row from one ``rng.random`` draw, and
    level k holds the rows with ps[k-1] <= mark < ps[k] (mark < ps[0] for
    level 0).

    Levels 0..k together keep each edge independently with probability
    ps[k], and they are the same rows for every grid that holds ps[k]
    (Newman and Ziff 2001). The levels are cut one band at a time, so the
    peak does not depend on the grid's length: the marks, one band's mask
    and the kept rows.
    """
    for p in ps:
        check_probability(p)
    if any(a >= b for a, b in zip(ps, ps[1:])):
        raise ValueError(f"retention probabilities must be ascending and distinct, got {ps}")
    marks = rng.random(graph.num_edges)
    return [_subgraph(graph, (lo <= marks) & (marks < hi)) for lo, hi in zip([0.0, *ps], ps)]


def percolate(graph: MultiGraph, p: float, rng: np.random.Generator) -> MultiGraph:
    """Keep each edge independently with probability p: the red half of
    ``color_edges``."""
    return _subgraph(graph, color_edges(graph, p, rng).red)


def _subgraph(graph: MultiGraph, keep: np.ndarray) -> MultiGraph:
    """The graph on the rows that keep flags. They are already (min, max)
    pairs below n, so they skip MultiGraph's check and copy."""
    return MultiGraph.__new__(MultiGraph)._adopt(graph.n, graph.edges.compress(keep, axis=0))
