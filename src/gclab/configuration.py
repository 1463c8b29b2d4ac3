"""Degree sequences, uniform stub pairings, and the induced multigraph.

The sampling pipeline is: degree sequence -> uniform perfect matching on
stubs -> multigraph (loops and parallel edges allowed). Conditioning on the
multigraph being simple recovers the uniform simple graph with the same
degrees, which is what ``sample_simple`` implements by rejection.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .distributions import BLOCK, Distribution, mean, sample
from .errors import Exhausted, SamePair, SpecParseError

# Largest n + n*E(D), vertices plus expected stubs, that
# sample_degree_sequence draws for. Peak resident memory of one giant,
# sweep or local-census run grows by at most about 23 bytes per vertex or
# stub: from n = 40000 to 120000 on {1: 1/2, 99: 1/2} (4.08e6 more
# elements) giant took 8 bytes each, local-census 12 and a three-value
# sweep 19, or 23 with p = 0 and 1 in its grid; from n = 10^6 to 3*10^6 on
# {1: 1/2, 3: 1/2} giant took 9, local-census 10 and a three-value sweep
# 17, or 22 with p = 0 and 1 in its grid (ru_maxrss of one CLI run, least
# of three, 2-core x86 host, numpy 2.4). The cap holds a run near 1.2 GB,
# and keeps the pair keys u*n + v below 2.5e15, far from int64 overflow.
MAX_GRAPH_ELEMENTS = 5 * 10**7

# Largest vertex count of a MultiGraph: the pair keys u*n + v of is_simple
# and adjacency_csr reach n^2 - 1, which must not wrap int64.
MAX_VERTICES = math.isqrt(np.iinfo(np.int64).max)


def _int64_array(values, what: str) -> np.ndarray:
    """``values`` as int64; refuses float or bool input, which would truncate."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got dtype {arr.dtype}")
    return np.asarray(arr, dtype=np.int64)


class DegreeSequence:
    """Finite list of vertex degrees with even sum, n * max degree within int64."""

    __slots__ = ("degrees", "size")

    def __init__(self, degrees):
        arr = _int64_array(degrees, "degrees")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("degree sequence must be a non-empty 1-d sequence")
        if (arr < 0).any():
            raise ValueError("degrees must be non-negative")
        if int(arr.max()) > np.iinfo(np.int64).max // arr.size:
            raise ValueError("degree sum may overflow int64")
        total = int(arr.sum())
        if total % 2 != 0:
            raise ValueError("degree sum must be even")
        arr.setflags(write=False)
        self.degrees = arr
        # Number of edges m = (sum of degrees) / 2.
        self.size = total // 2

    def __len__(self):
        return int(self.degrees.size)

    def __eq__(self, other):
        if not isinstance(other, DegreeSequence):
            return NotImplemented
        return self.degrees.shape == other.degrees.shape and bool(
            np.all(self.degrees == other.degrees)
        )

    def __hash__(self):
        return hash(self.degrees.tobytes())

    def __repr__(self):
        shown = self.degrees.tolist() if len(self) <= 12 else "..."
        return f"DegreeSequence(n={len(self)}, m={self.size}, degrees={shown})"


class Pairing:
    """Perfect matching on the stub set {0, ..., 2m-1}.

    Stub blocks are consecutive: vertex i owns the d_i stubs following the
    stubs of vertices 0..i-1, so ``owner`` is a direct lookup table. Pairs
    keep their construction order (each row is an ordered (a, b)); switchings
    rely on that stored orientation.
    """

    __slots__ = ("stub_count", "pairs", "owner", "n_vertices")

    def __init__(self, stub_count: int, pairs: np.ndarray, owner: np.ndarray, n_vertices: int):
        self.stub_count = int(stub_count)
        self.pairs = pairs
        self.owner = owner
        self.n_vertices = int(n_vertices)
        self.pairs.setflags(write=False)

    def __repr__(self):
        return f"Pairing(2m={self.stub_count}, n={self.n_vertices})"


class MultiGraph:
    """Multigraph as a vertex count plus an edge multiset.

    Rows of ``edges`` are unordered vertex pairs stored as (min, max); loops
    appear as (v, v) and count twice toward the degree of v. The edge array
    is never mutated; derived adjacency structures are cached lazily.
    """

    __slots__ = ("n", "edges", "_adj", "_inc")

    def __init__(self, n: int, edges):
        n = int(n)
        rows = _int64_array(edges, "edge endpoints").reshape(-1, 2).copy()
        if n > MAX_VERTICES:
            raise ValueError(
                f"n = {n} exceeds MAX_VERTICES = {MAX_VERTICES}: "
                "the pair keys u*n + v would wrap int64"
            )
        if rows.size and (rows.min() < 0 or rows.max() >= n):
            raise ValueError("edge endpoint outside vertex range")
        self._adopt(n, _order_rows(rows))

    def _adopt(self, n: int, rows: np.ndarray) -> MultiGraph:
        """Freeze and keep rows, already int64 (min, max) pairs below n, as
        the edges, with no check or copy; returns self. Callers holding
        such rows build a graph by ``MultiGraph.__new__(MultiGraph)._adopt``."""
        rows.setflags(write=False)
        self.n = n
        self.edges = rows
        self._adj = None
        self._inc = None
        return self

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    def degrees(self) -> np.ndarray:
        """Vertex degrees; each loop contributes 2 to its endpoint."""
        # Not np.bincount: numpy 2.4 copies a read-only input first, and the
        # edge array is frozen, so it would allocate a second edge array.
        counts = np.zeros(self.n, dtype=np.int64)
        np.add.at(counts, self.edges.ravel(), 1)
        return counts

    def degree_sequence(self) -> DegreeSequence:
        return DegreeSequence(self.degrees())

    def adjacency_csr(self):
        """Boolean n x n CSR matrix: row v's ``indices`` are v's distinct
        neighbours (parallel edges merge; loops are invisible to distance).

        Its upper triangle is built from the sorted pair keys u*n + v of the
        non-loop rows, so it needs no COO conversion and no duplicate merge.
        No CLI command reads it: it serves the tests and perfbench's tracer,
        and needs scipy from the ``test`` extra, imported here.
        """
        if self._adj is None:
            from scipy.sparse import csr_matrix

            n = self.n
            u, v = self.edges[:, 0], self.edges[:, 1]
            keys = (u * n + v)[u != v]
            # An in-place sort and a neighbour mask: np.unique takes ~60x
            # longer on 10^6 keys (numpy 2.4).
            keys.sort()
            if keys.size:
                keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
            indptr = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
            data = np.ones(keys.size, dtype=bool)
            upper = csr_matrix((data, keys % n, indptr), shape=(n, n))
            self._adj = upper + upper.T
        return self._adj

    def incidence_csr(self):
        """Boolean n x m CSR matrix: row v's ``indices`` are v's edge ids, a
        loop's once. Like ``adjacency_csr``, it serves the tests and
        perfbench's tracer and needs scipy from the ``test`` extra."""
        if self._inc is None:
            from scipy.sparse import csr_matrix

            m = self.num_edges
            ends = (self.edges.ravel(), np.repeat(np.arange(m), 2))
            self._inc = csr_matrix((np.ones(2 * m, dtype=bool), ends), shape=(self.n, m))
        return self._inc

    def __repr__(self):
        return f"MultiGraph(n={self.n}, m={self.num_edges})"


def _order_rows(rows: np.ndarray) -> np.ndarray:
    """Put each row of rows, a writable int64 (m, 2) array, in (min, max)
    order in place, a block at a time, and return it; the blocks' min
    columns are all this allocates."""
    for first in range(0, rows.shape[0], BLOCK):
        u, v = rows[first : first + BLOCK].T
        smaller = np.minimum(u, v)
        np.maximum(u, v, out=v)
        u[...] = smaller
    return rows


def conf_distance(degrees: np.ndarray, dist: Distribution) -> float:
    """Edge-weighted l1 distance between the empirical degree law and dist.

    ``degrees`` is a non-empty 1-d int64 array of non-negative degrees (a
    DegreeSequence's ``degrees``, say), read as it is, unchecked. Computed
    as max( sum_i |i*n_i/n - i*r_i| , 1/n ); the 1/n floor makes the
    distance vanish only along growing sequences.
    """
    n = degrees.size
    width = max(int(degrees.max()), dist.max_support) + 1
    # Not np.bincount: a DegreeSequence's degrees are frozen, and numpy 2.4
    # copies a read-only input first (see MultiGraph.degrees).
    counts = np.zeros(width, dtype=np.int64)
    np.add.at(counts, degrees, 1)
    empirical = counts / n
    target = dist.dense(width)
    i = np.arange(width, dtype=np.float64)
    d0 = float(np.abs(i * empirical - i * target).sum())
    return max(d0, 1.0 / n)


def sample_degree_sequence(dist: Distribution, n: int, rng: np.random.Generator) -> DegreeSequence:
    """n i.i.d. draws; an odd sum is fixed by bumping the last entry by one.

    A draw whose n + n*E(D) passes MAX_GRAPH_ELEMENTS is refused with
    SpecParseError before anything is allocated.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    mu = mean(dist)
    elements = n + n * mu
    if elements > MAX_GRAPH_ELEMENTS:
        raise SpecParseError(
            f"n = {n} at E(D) = {mu:.6g} needs ~{elements:.3g} vertices and stubs, "
            f"past MAX_GRAPH_ELEMENTS = {MAX_GRAPH_ELEMENTS:.0e}"
        )
    draws = sample(dist, rng, size=n)
    if int(draws.sum()) % 2 != 0:
        draws[-1] += 1
    return DegreeSequence(draws)


def sample_pairing(ds: DegreeSequence, rng: np.random.Generator) -> Pairing:
    """Uniform perfect matching on the stubs of ds.

    A uniform shuffle of the 2m stubs paired off consecutively hits every
    matching with equal probability (each matching corresponds to exactly
    m! * 2^m shuffle outcomes).
    """
    two_m = 2 * ds.size
    stubs = rng.permutation(two_m)
    return Pairing(two_m, stubs.reshape(-1, 2), _stub_owners(ds), len(ds))


def _stub_owners(ds: DegreeSequence) -> np.ndarray:
    """Vertex i repeated d_i times, for i = 0..n-1: the owner of each stub.

    Filled a block of vertices at a time, so the repeat's temporaries are a
    block's, not a second stub-sized array and an n-sized vertex range."""
    degrees = ds.degrees
    owner = np.empty(2 * ds.size, dtype=np.int64)
    filled = 0
    for first in range(0, degrees.size, BLOCK):
        counts = degrees[first : first + BLOCK]
        stop = filled + int(counts.sum())
        owner[filled:stop] = np.repeat(np.arange(first, first + counts.size), counts)
        filled = stop
    return owner


def to_multigraph(pairing: Pairing) -> MultiGraph:
    """Contract each stub pair to an edge between the owning vertices."""
    return MultiGraph(pairing.n_vertices, pairing.owner[pairing.pairs])


def sample_multigraph(ds: DegreeSequence, rng: np.random.Generator) -> MultiGraph:
    """The multigraph of a uniform pairing of ds's stubs, in one shuffle.

    Shuffling the stub owners makes the same swaps as the ``permutation``
    in ``sample_pairing``, so this returns the edges of
    ``to_multigraph(sample_pairing(ds, rng))`` and leaves ``rng`` in the
    same state, without the stub permutation and its two gathers. Use
    ``sample_pairing`` where stub identities matter (switchings).

    The shuffled owners become the edge rows in place, so the peak is the
    one stub-sized array plus a block's temporaries. They are vertex ids
    below n by construction, so the graph adopts them unchecked.
    """
    owner = _stub_owners(ds)
    rng.shuffle(owner)
    return MultiGraph.__new__(MultiGraph)._adopt(len(ds), _order_rows(owner.reshape(-1, 2)))


def apply_switching(pairing: Pairing, pair1_index: int, pair2_index: int) -> Pairing:
    """Replace pairs (a,b),(c,d) by (a,c),(b,d); returns a new Pairing.

    The stored pair orientation fixes which endpoints play a/b and c/d, so
    the operation is deterministic.
    """
    if pair1_index == pair2_index:
        raise SamePair("switching needs two distinct pair indices")
    m = pairing.pairs.shape[0]
    if not (0 <= pair1_index < m and 0 <= pair2_index < m):
        raise IndexError("pair index out of range")
    pairs = pairing.pairs.copy()
    a, b = pairs[pair1_index]
    c, d = pairs[pair2_index]
    pairs[pair1_index] = (a, c)
    pairs[pair2_index] = (b, d)
    return Pairing(pairing.stub_count, pairs, pairing.owner, pairing.n_vertices)


def is_simple(graph: MultiGraph) -> bool:
    """True iff the multigraph has no loops and no repeated vertex pair."""
    e = graph.edges
    if e.shape[0] == 0:
        return True
    if (e[:, 0] == e[:, 1]).any():
        return False
    # Rows are (min, max), so equal keys are exactly repeated vertex pairs.
    keys = e[:, 0] * graph.n + e[:, 1]
    keys.sort()
    return not bool((keys[1:] == keys[:-1]).any())


def sample_simple(ds: DegreeSequence, rng: np.random.Generator, max_attempts: int) -> MultiGraph:
    """Rejection-sample a uniform simple graph with the given degrees.

    Conditioning the pairing construction on simplicity yields exactly the
    uniform law over simple graphs, so resampling until simple is exact.
    Raises Exhausted (carrying the attempt count) when the cap is hit, which
    signals either a low simplicity probability or a non-graphical sequence.
    """
    if max_attempts < 1:
        raise ValueError("need max_attempts >= 1")
    for _ in range(max_attempts):
        graph = sample_multigraph(ds, rng)
        if is_simple(graph):
            return graph
        # Else the rejected graph would live on beside the next draw.
        del graph
    raise Exhausted(max_attempts)


def load_degree_sequence(path) -> DegreeSequence:
    """Read a degree sequence: JSON array, or one integer per line.

    An unreadable file, invalid JSON, a non-integer entry and an invalid
    sequence (negative entry, odd sum, int64 overflow) raise SpecParseError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.lstrip().startswith("["):
            values = json.loads(text)
            # JSON true and 1.5 must not load as degrees 1.
            if any(isinstance(v, bool) or not isinstance(v, int) for v in values):
                raise SpecParseError(f"{path}: degrees must be integers")
        else:
            values = [int(line) for line in text.split()]
        return DegreeSequence(values)
    except (OSError, ValueError) as exc:
        raise SpecParseError(f"cannot read a degree sequence from {path}: {exc}") from exc

