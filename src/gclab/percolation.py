"""Edge percolation on multigraphs via independent red/blue edge coloring.

Coloring each edge red with probability p and keeping the red subgraph is
the same as deleting each edge independently; the blue subgraph is what was
deleted. Conditioned on the red degree sequence, the two subgraphs are
independent configuration-model draws, which is what makes the thinned
degree law the right predictor for the percolated graph.
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
    red_graph = MultiGraph(base.n, base.edges.compress(colored.red, axis=0))
    blue_graph = MultiGraph(base.n, base.edges.compress(~colored.red, axis=0))
    return (
        red_graph,
        blue_graph,
        DegreeSequence(red_graph.degrees()),
        DegreeSequence(blue_graph.degrees()),
    )


def percolate(graph: MultiGraph, p: float, rng: np.random.Generator) -> MultiGraph:
    """Keep each edge independently with probability p (the red subgraph)."""
    colored = color_edges(graph, p, rng)
    return MultiGraph(graph.n, graph.edges.compress(colored.red, axis=0))
