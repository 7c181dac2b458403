"""Finite metric spaces and l_p distances.

Everything downstream runs on a :class:`FiniteMetricSpace`: a finite point
list with an exact pairwise distance matrix.  Distances are word-metric
distances, so the matrix holds integers and every compare is exact; a
matrix of any other dtype is refused.
"""

from __future__ import annotations

import math
import random

import numpy as np

from .errors import PreconditionFailed

INF = math.inf

# Every triple is scanned up to this size; above it, _SAMPLED_TRIPLES
# triples from the seeded stdlib generator, one block at a time.
_FULL_TRIANGLE_LIMIT = 500
_SAMPLED_TRIPLES = 100_000

# The one block budget of every blocked pass (window fill, membership,
# gathers, audits, pair scans, the partition Lipschitz scan): no single
# temporary of one block takes more than these bytes, so a pass holds its
# matrix plus one small block whatever the space size, and the block's
# buffers are reused, not faulted in anew.  `blocks` cuts every fixed-step
# pass by it.
_BLOCK_BYTES = 1 << 17


def block_rows(row_bytes):
    """How many rows of ``row_bytes`` bytes one block holds within
    ``_BLOCK_BYTES``; at least one."""
    return max(1, _BLOCK_BYTES // max(1, row_bytes))


def blocks(count, row_bytes):
    """Slices cutting range(count) into consecutive blocks of
    ``block_rows(row_bytes)`` rows; the last may be shorter."""
    step = block_rows(row_bytes)
    for start in range(0, count, step):
        yield slice(start, min(count, start + step))


def _sum_dtype(d):
    """The type the triangle check adds two entries of d in, and the one
    complement distances are kept in: d's own when it is signed and holds
    twice the largest entry, else the narrowest signed integer type that
    does."""
    largest = int(d.max(initial=0))
    for dtype in (d.dtype, np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)):
        if dtype.kind == "i" and 2 * largest <= np.iinfo(dtype).max:
            return dtype
    raise PreconditionFailed("distances too large for an exact triangle check", largest=largest)


def sampled_triples(n, count):
    """``count`` index triples in [0, n), as uint32 arrays of one block of
    rows each: little-endian 32-bit words of ``random.Random(0).randbytes``,
    mod n.  Whole words concatenate, so the blocks read one byte stream
    whatever their size; the stdlib generator keeps numpy.random
    unimported."""
    rng = random.Random(0)
    for part in blocks(count, 12):  # three 32-bit words a triple
        m = part.stop - part.start
        yield np.frombuffer(rng.randbytes(12 * m), dtype="<u4").reshape(m, 3) % n


def _is_symmetric(d) -> bool:
    """Each square tile against its mirror tile, so no pass strides through
    the whole transpose.  A tile's boolean compare fits one block."""
    n = len(d)
    side = math.isqrt(block_rows(1))
    for s in range(0, n, side):
        for t in range(s, n, side):
            if not np.array_equal(d[s : s + side, t : t + side], d[t : t + side, s : s + side].T):
                return False
    return True


class FiniteMetricSpace:
    """Points with an explicit symmetric integer distance matrix.

    ``center``/``window_radius`` are optional window metadata: spaces cut
    out of an infinite group record where their boundary is, so audits can
    restrict themselves to points with enough margin.
    """

    def __init__(self, points, dist, *, validate=True, center=None, window_radius=None):
        self.points = list(points)
        self._index = {p: i for i, p in enumerate(self.points)}
        if len(self._index) != len(self.points):
            raise PreconditionFailed("duplicate points in metric space")
        d = np.asarray(dist)
        if d.shape != (len(self.points), len(self.points)):
            raise PreconditionFailed("distance matrix shape mismatch")
        if d.dtype.kind not in "iu":
            raise PreconditionFailed("distances must be integers", dtype=str(d.dtype))
        self.d = d
        self.center = center
        self.window_radius = window_radius
        if validate:
            self._validate()

    # -- construction ------------------------------------------------------

    def subspace(self, points):
        """Restriction to a subset; the metric is inherited, so no re-check."""
        idx = self.indices(points)
        center = self.center if self.center in set(points) else None
        radius = self.window_radius if center is not None else None
        return FiniteMetricSpace(
            [self.points[i] for i in idx],
            self.d[idx][:, idx],
            validate=False,
            center=center,
            window_radius=radius,
        )

    # -- basics ------------------------------------------------------------

    def __len__(self):
        return len(self.points)

    def index(self, point) -> int:
        return self._index[point]

    def indices(self, points):
        return np.array([self._index[p] for p in points], dtype=np.intp)

    def diameter(self):
        return self.d.max().item() if len(self.points) else 0

    def boundary_margin(self):
        """The least distance budget to the window edge over all points; inf
        when no window is recorded."""
        if self.center is None or self.window_radius is None:
            return INF
        return float(self.margins().min())

    def margins(self):
        if self.center is None or self.window_radius is None:
            return np.full(len(self.points), INF)
        return self.window_radius - self.d[:, self.index(self.center)].astype(float)

    # -- validation --------------------------------------------------------

    def _validate(self):
        d = self.d
        if len(self.points) == 0:
            return
        if not _is_symmetric(d):
            raise PreconditionFailed("distance matrix not symmetric")
        if np.any(np.diagonal(d) != 0):
            raise PreconditionFailed("nonzero diagonal")
        if d.min() < 0:
            raise PreconditionFailed("negative distance")
        # the n diagonal zeros are the only zeros allowed
        if d.size - np.count_nonzero(d) > len(self.points):
            raise PreconditionFailed("distinct points at distance 0")
        n = len(self.points)
        work = _sum_dtype(d)
        if n <= _FULL_TRIANGLE_LIMIT:
            # d[i, k] + d[k, j] - d[i, j] in one reused buffer, in a type
            # that holds the sum; a negative entry is a violation
            w = d if work == d.dtype else d.astype(work)
            slack = np.empty(d.shape, dtype=work)
            for k in range(n):
                np.add(w[:, k : k + 1], w[k : k + 1, :], out=slack)
                slack -= w
                if slack.min() < 0:
                    i, j = divmod(int(np.argmax(slack < 0)), n)
                    raise PreconditionFailed(
                        "triangle inequality fails",
                        witness=[str(self.points[i]), str(self.points[k]), str(self.points[j])],
                    )
        else:
            for ijk in sampled_triples(n, _SAMPLED_TRIPLES):
                i, j, k = ijk.T
                bad = d[i, k] > np.add(d[i, j], d[j, k], dtype=work)
                if bad.any():
                    raise PreconditionFailed(
                        "triangle inequality fails",
                        witness=[str(self.points[x]) for x in ijk[np.argmax(bad)]],
                    )

    # -- serialization -----------------------------------------------------

    def to_json(self):
        """Point labels and the distance matrix, which stays an array for
        ``canonical_json`` to render."""
        return {
            "points": [point_label(p) for p in self.points],
            "dist": self.d,
        }


def point_label(point) -> str:
    """Stable string id for a point; tuples render without spaces."""
    if isinstance(point, tuple):
        return "(" + ",".join(point_label(c) for c in point) + ")"
    return str(point)


# -- blocked gathers --------------------------------------------------------


def row_blocks(d, rows, cols=None):
    """d[rows][:, cols] one block of rows at a time, each a fresh array:
    whole rows first, then the columns, which is faster than one np.ix_
    gather; with no ``cols``, the whole rows.  Every block and its whole
    rows fit ``_BLOCK_BYTES``.  Reductions over a block's rows run best on
    whole rows: a column gather leaves its result in column order."""
    width = d.shape[1] if cols is None else max(d.shape[1], len(cols))
    for part in blocks(len(rows), width * d.itemsize):
        block = d[rows[part]]
        yield block if cols is None else block[:, cols]


# -- l_p distances -----------------------------------------------------------


def _norm_p(p):
    p = float(p)  # float reads "inf" too
    if not (p >= 1):
        raise PreconditionFailed("l_p norms need p >= 1", p=p)
    return p


def lp_distance(u, v, p):
    """||u - v||_p over the last axis: a number for two vectors, one
    distance per row for two stacks of rows.  Pass v = 0 for the norm."""
    p = _norm_p(p)
    diff = np.subtract(u, v, dtype=float)
    np.abs(diff, out=diff)
    if p == INF:
        return diff.max(axis=-1, initial=0.0)
    diff **= p
    return diff.sum(axis=-1) ** (1.0 / p)
