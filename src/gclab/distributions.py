"""Finitely supported probability distributions on the non-negative integers.

A ``Distribution`` stores an exact finite list of (value, probability) atoms.
Restricting to finite support turns every quantity used elsewhere in the
package (means, size-biased laws, offspring laws, thinnings, criticality
functionals) into an exact finite sum; callers who want Poisson-like laws
truncate first and let the constructor renormalize.
"""

from __future__ import annotations

import json
import numbers

import numpy as np

from .errors import BadProbability, SpecParseError, ZeroMean

# Raw masses must land in [1 - SUM_SLACK, 1 + SUM_SLACK] before renormalization.
SUM_SLACK = 1e-9

# Draws, vertices or edge rows per block where a stage streams over an
# n- or edge-sized array (the degree draw, the stub owners, the rows' (min,
# max) order, the census's flattens, re-reads of the ends and last gather),
# so its temporaries are a few hundred KB, not edge-sized.
BLOCK = 8192

# Largest support value a spec document may name. Dense vectors, and so the
# memory of ``thin``, grow with max_support, and the time of ``thin`` with its
# square: one call on {1: 1/2, 10^4: 1/2} takes ~0.17 s, on {1: 1/2, 10^5: 1/2}
# ~36 s (2-core x86 host, numpy 2.4), and a value of 10^9 asks for a 7.45 GiB
# dense vector.
MAX_SUPPORT = 10**4


class Distribution:
    """Probability mass function with finite support on {0, 1, 2, ...}.

    ``support`` and ``probs`` are parallel arrays with support strictly
    increasing and all probabilities positive (zero atoms are dropped).
    Values must be integers that fit in int64 and probabilities real
    numbers, bool neither; nothing is rounded or parsed, and a bad atom
    raises ValueError. Construction renormalizes the masses to sum to 1,
    unless they do up to rounding (so a law rebuilt from its own masses
    equals it), and records the mass missing from the raw input in
    ``truncated_mass``. Only ``from_json_doc`` enforces ``MAX_SUPPORT``: the
    solver tests build {1: 1/2, 10^5: 1/2} here.

    Instances are immutable after construction and safe to share across
    threads; random draws go through a caller-owned ``numpy`` generator.
    """

    __slots__ = ("support", "probs", "truncated_mass")

    def __init__(self, masses):
        masses = list(masses)
        for v, p in masses:
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"support value {v!r} is not an integer")
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"probability {p!r} is not a number")
        pairs = sorted((int(v), float(p)) for v, p in masses)
        values = [v for v, _ in pairs]
        if len(values) != len(set(values)):
            raise ValueError("duplicate support values")
        if any(not 0 <= v <= np.iinfo(np.int64).max for v in values):
            raise ValueError("support values must be non-negative int64 integers")
        if any(p < 0.0 for _, p in pairs):
            raise ValueError("probabilities must be non-negative")
        total = sum(p for _, p in pairs)
        if not (1.0 - SUM_SLACK <= total <= 1.0 + SUM_SLACK):
            raise ValueError(f"masses sum to {total!r}, outside the allowed window")
        kept = [(v, p) for v, p in pairs if p > 0.0]
        if not kept:
            raise ValueError("distribution needs at least one positive atom")
        self.support = np.array([v for v, _ in kept], dtype=np.int64)
        self.probs = np.array([p for _, p in kept], dtype=np.float64)
        # The masses of a normalized law sum to 1 within a rounding per atom.
        if abs(total - 1.0) > len(pairs) * np.finfo(np.float64).eps:
            self.probs /= total
        self.truncated_mass = max(0.0, 1.0 - total)
        self.support.setflags(write=False)
        self.probs.setflags(write=False)

    @classmethod
    def _from_arrays(cls, support, probs) -> "Distribution":
        """Internal constructor for derived laws; renormalizes exactly."""
        out = cls.__new__(cls)
        probs = np.asarray(probs, dtype=np.float64)
        support = np.asarray(support, dtype=np.int64)
        keep = probs > 0.0
        support, probs = support[keep], probs[keep]
        order = np.argsort(support)
        out.support = support[order]
        out.probs = probs[order] / probs.sum()
        out.truncated_mass = 0.0
        out.support.setflags(write=False)
        out.probs.setflags(write=False)
        return out

    @property
    def masses(self) -> list[tuple[int, float]]:
        return [(int(v), float(p)) for v, p in zip(self.support, self.probs)]

    @property
    def max_support(self) -> int:
        return int(self.support[-1])

    def dense(self, length: int | None = None) -> np.ndarray:
        """Probability vector indexed by value, length max_support+1 by default."""
        if length is None:
            length = self.max_support + 1
        out = np.zeros(length, dtype=np.float64)
        inside = self.support < length
        out[self.support[inside]] = self.probs[inside]
        return out

    def __repr__(self):
        atoms = ", ".join(f"{v}: {p:.6g}" for v, p in self.masses)
        return f"Distribution({{{atoms}}})"

    def __eq__(self, other):
        if not isinstance(other, Distribution):
            return NotImplemented
        return (
            self.support.shape == other.support.shape
            and bool(np.all(self.support == other.support))
            and bool(np.all(self.probs == other.probs))
        )

    def __hash__(self):
        return hash((self.support.tobytes(), self.probs.tobytes()))


def mean(dist: Distribution) -> float:
    """E(D) as an exact finite sum."""
    return float(np.dot(dist.support, dist.probs))


def size_biased(dist: Distribution) -> Distribution:
    """The law of the degree seen at a random edge endpoint: Pr = i*r_i / E(D)."""
    mu = mean(dist)
    if mu <= 0.0:
        raise ZeroMean("size-biasing needs E(D) > 0")
    return Distribution._from_arrays(dist.support, dist.support * dist.probs / mu)


def offspring(dist: Distribution) -> Distribution:
    """Size-biased law minus one: onward edges after following an edge in."""
    biased = size_biased(dist)
    return Distribution._from_arrays(biased.support - 1, biased.probs)


def thin(dist: Distribution, p: float) -> Distribution:
    """Binomial(D, p) mixture: each of D items kept independently with prob p.

    One pass of the recurrence Bin(j+1) = (1-p) Bin(j) + p Bin(j) shifted by
    one, a convex combination that cannot overflow and is exact at p = 0 and
    1, adds r_j Bin(j, p) into the result at each atom j.
    """
    check_probability(p)
    size = dist.max_support + 1
    atoms = dict(zip(dist.support.tolist(), dist.probs.tolist()))
    dense = np.zeros(size, dtype=np.float64)
    # row holds Bin(j, p), which is zero past j; one spare entry lets the
    # last step run unchanged.
    row = np.zeros(size + 1, dtype=np.float64)
    row[0] = 1.0
    for j in range(size):
        if j in atoms:
            dense[: j + 1] += atoms[j] * row[: j + 1]
        row[1 : j + 2] = (1.0 - p) * row[1 : j + 2] + p * row[: j + 1]
        row[0] *= 1.0 - p
    return Distribution._from_arrays(np.arange(size), dense)


def supercriticality(dist: Distribution) -> float:
    """E(D(D-2)); a giant component exists in the limit iff this is positive."""
    s = dist.support.astype(np.float64)
    return float(np.dot(s * (s - 2.0), dist.probs))


def sample(dist: Distribution, rng: np.random.Generator, size) -> np.ndarray:
    """Draw ``size`` values as an int64 array; deterministic given the
    generator state. ``size`` is required: there is no scalar draw.

    Inversion with a guide table (Chen and Asau 1974): u in [j/w, (j+1)/w)
    reads guide[j], the index of j/w, and the u at or past the cdf there
    get one exact search, so every index is ``searchsorted(cdf, u,
    side="right")`` and a block costs the same on every law (a walk up from
    the guide takes a pass per atom in the most crowded cell: 3.3 s per 10^6
    draws on r_k ~ k^-2.2, k <= 10^4). w is 4 times the least power of two
    at or above the number of atoms, so u*w is exact and below w, and few u
    need the search (one cell per atom sends 40% of {1: .3, 2: .2, 4: .3,
    6: .2} there). The values go a block at a time into the uniforms' buffer.
    """
    cdf = np.cumsum(dist.probs)
    cdf[-1] = 1.0
    width = 4 << (cdf.size - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(width) / width, side="right")
    draws = rng.random(size)
    values = draws.view(np.int64)
    for first in range(0, draws.size, BLOCK):
        u = draws[first : first + BLOCK]
        idx = guide.take((u * width).astype(np.int64))
        late = cdf.take(idx) <= u
        idx[late] = np.searchsorted(cdf, u[late], side="right")
        values[first : first + BLOCK] = dist.support.take(idx)
    return values


def from_json_doc(doc) -> Distribution:
    """Build a Distribution from the spec document {"masses": [[v, p], ...]}."""
    if not isinstance(doc, dict) or "masses" not in doc:
        raise SpecParseError('expected an object with a "masses" key')
    masses = doc["masses"]
    if not isinstance(masses, list) or not masses:
        raise SpecParseError('"masses" must be a non-empty list of [value, probability]')
    for entry in masses:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise SpecParseError(f"bad mass entry {entry!r}; want [value, probability]")
        value = entry[0]
        # Distribution refuses non-integer values; a large one must not reach
        # its dense vectors (see MAX_SUPPORT).
        if isinstance(value, int) and value > MAX_SUPPORT:
            raise SpecParseError(f"support value {value} exceeds MAX_SUPPORT = {MAX_SUPPORT}")
    try:
        return Distribution(masses)
    except (ValueError, TypeError) as exc:
        raise SpecParseError(str(exc)) from exc


def load_spec(path) -> Distribution:
    """Read a JSON distribution spec from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecParseError(f"invalid JSON in {path}: {exc}") from exc
    return from_json_doc(doc)


def to_json_doc(dist: Distribution) -> dict:
    return {"masses": [[v, p] for v, p in dist.masses]}


def check_probability(p: float) -> None:
    if not (0.0 <= p <= 1.0):
        raise BadProbability(f"probability {p!r} outside [0, 1]")
