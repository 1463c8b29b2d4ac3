"""Exception types shared across the package."""


class GCLabError(Exception):
    """Base class for every error raised by this package."""


class ZeroMean(GCLabError):
    """The operation needs a strictly positive mean degree."""


class BadProbability(GCLabError):
    """A probability parameter fell outside [0, 1]."""


class DegenerateDistribution(GCLabError):
    """No mass on degrees >= 3: the survival fixed point is degenerate.

    Distributions supported inside {0, 1, 2} never grow a giant component
    (isolated vertices, matchings and cycles only), so the survival solver
    refuses them rather than returning a meaningless root.
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
    """The property declares no finite radius, so it cannot be evaluated."""


class InsufficientRadius(GCLabError):
    """The neighborhood is too shallow to decide the property."""


class SpecParseError(GCLabError):
    """A distribution or property spec could not be parsed or passes a cap."""
