"""Exception types shared across the package."""


class GCLabError(Exception):
    """Base class for every error raised by this package."""


class ZeroMean(GCLabError):
    """The operation needs a strictly positive mean degree."""


class BadProbability(GCLabError):
    """A probability parameter fell outside [0, 1]."""


class DegenerateDistribution(GCLabError):
    """The offspring law is Z = 1 surely: L1/n has no limit.

    That is exactly the degree laws on {0, 2} with mass on 2. Every
    component is a cycle or a lone vertex, and the largest cycle holds a
    random, non-vanishing share of the vertices, so the survival solver
    refuses them. Every other law has a limit, 0 where extinction is sure.
    """


class NoThreshold(GCLabError):
    """E(D(D-1)) = 0: edge retention has no finite percolation threshold."""


class SamePair(GCLabError):
    """A switching needs two distinct pair indices."""


class Exhausted(GCLabError):
    """Rejection sampling hit its attempt cap without finding a simple graph."""

    def __init__(self, attempts: int):
        super().__init__(f"no simple graph after {attempts} attempts")
        self.attempts = attempts


class UnboundedRadius(GCLabError):
    """A property spec asks about infinite components, which no finite ball
    decides; only the property spec parser raises it."""


class SpecParseError(GCLabError):
    """A distribution or property spec could not be parsed or passes a cap."""
