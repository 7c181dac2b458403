"""Finitely generated groups in canonical form, with word-metric machinery.

A group is a :class:`GroupSpec`: unit, multiplication, inversion and a
symmetric generating tuple, all on hashable canonical element
representations.  Balls and norms come from breadth-first search over
the Cayley graph, and every spec declares its word metric in closed
form, batched over a window's points.  Structure that constructions use
(lattice rank, wreath factors, a central extension, a tree Cayley graph)
is declared in typed fields by the constructors here; the name is only
a label.
Built-ins: Z^n, finite cyclic groups, free groups, the discrete
Heisenberg group in Hall coordinates, and restricted wreath products
(lamp configurations over a base whose Cayley graph is a tree).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import AuditFailed, BallTooLarge, PreconditionFailed
from .metric import FiniteMetricSpace, block_rows, blocks, point_label, sampled_triples

DEFAULT_BALL_CAP = 5_000_000

# Bytes per cell that a declared metric's temporaries take at most: every
# kernel below works on (rows, cols) arrays of int64 or narrower, plus the
# intp positions of the Heisenberg kernel's far cells and lookups and of
# the wreath kernel's gathers.  The Heisenberg length table is built within
# the same bytes per element.
_KERNEL_CELL_BYTES = 8


@dataclass(frozen=True)
class GroupSpec:
    name: str                       # a label for payloads; nothing dispatches on it
    unit: object
    multiply: callable
    inverse: callable
    generators: tuple
    distances: callable             # (points, cells read, None for n^2) -> rows(block, cols) -> d[block, cols]
    tree: bool = False              # the Cayley graph is a tree, and sorted elements list it depth-first
    lattice_rank: int = None        # L when the group is Z^L
    factors: tuple = None           # (base, lamp) of a wreath product
    extension: tuple = None         # (quotient spec, projection, kernel generators)
    asdim: int = None               # declared value: envelope columns; 0 marks finite wreath lamps

    def __repr__(self):
        return f"GroupSpec({self.name})"


def validate_group_axioms(spec: GroupSpec, radius=3, sample=1500):
    """Unit/inverse laws and associativity, checked on the radius-3 ball:
    associativity on every triple, or on ``sample`` triples from
    ``sampled_triples`` when there are more."""
    for s in spec.generators:
        if spec.inverse(s) not in spec.generators:
            raise PreconditionFailed("generating set is not symmetric", group=spec.name)
    elems = sorted(word_norm_table(spec, radius, cap=200_000))
    for e in elems[: min(len(elems), 200)]:
        if spec.multiply(e, spec.unit) != e or spec.multiply(spec.unit, e) != e:
            raise PreconditionFailed("unit law fails", group=spec.name)
        if spec.multiply(e, spec.inverse(e)) != spec.unit:
            raise PreconditionFailed("inverse law fails", group=spec.name)
    triples = (
        itertools.product(elems, repeat=3)
        if len(elems) ** 3 <= sample
        else (
            (elems[i], elems[j], elems[k])
            for block in sampled_triples(len(elems), sample)
            for i, j, k in block.tolist()
        )
    )
    for a, b, c in triples:
        if spec.multiply(spec.multiply(a, b), c) != spec.multiply(a, spec.multiply(b, c)):
            raise PreconditionFailed("associativity fails", group=spec.name)


# -- Z^n, cyclic, free -------------------------------------------------------


def zn_spec(n: int) -> GroupSpec:
    unit = (0,) * n
    gens = []
    for i in range(n):
        for s in (1, -1):
            e = [0] * n
            e[i] = s
            gens.append(tuple(e))

    def distances(points, cells=None):
        x = np.array(points)

        def rows(block, cols):
            # one coordinate at a time, so no temporary has a third axis
            d = np.abs(x[cols, 0] - x[block, 0, None])
            for k in range(1, n):
                step = x[cols, k] - x[block, k, None]
                d += np.abs(step, out=step)
            return d

        return rows

    return GroupSpec(
        name=f"zn:{n}",
        unit=unit,
        multiply=lambda a, b: tuple(x + y for x, y in zip(a, b)),
        inverse=lambda a: tuple(-x for x in a),
        generators=tuple(gens),
        distances=distances,
        tree=n == 1,
        lattice_rank=n,
        extension=(zn_spec(n - 1), lambda a: a[: n - 1], tuple(gens[-2:])) if n >= 2 else None,
        asdim=n,
    )


def cyclic_spec(m: int) -> GroupSpec:
    if m < 2:
        raise PreconditionFailed("cyclic order must be >= 2", m=m)
    gens = (1, m - 1) if m > 2 else (1,)

    def distances(points, cells=None):
        x = np.array(points)
        # the shorter of the two ways round the cycle
        return lambda block, cols: np.minimum((x[cols] - x[block, None]) % m, (x[block, None] - x[cols]) % m)

    return GroupSpec(
        name=f"cyclic:{m}",
        unit=0,
        multiply=lambda a, b: (a + b) % m,
        inverse=lambda a: (-a) % m,
        generators=gens,
        distances=distances,
        tree=m == 2,
        asdim=0,
    )


def _free_distances(points, cells=None):
    """d(u, v) = |u| + |v| - 2 lcp(u, v) on reduced words, compared as rows
    padded with the non-letter 0."""
    lengths = np.array([len(w) for w in points])
    words = np.zeros((len(points), lengths.max()), dtype=np.int64)
    for row, w in zip(words, points):
        row[: len(w)] = w

    def rows(block, cols):
        shorter = np.minimum.outer(lengths[block], lengths[cols])
        # one letter position at a time, so no temporary has a third axis
        same = np.ones(shorter.shape, dtype=bool)
        lcp = np.zeros(shorter.shape, dtype=np.int64)
        for k in range(words.shape[1]):
            same &= words[block, k, None] == words[cols, k]
            lcp += same
        # padding matches padding, so a common prefix stops at the shorter word
        lcp = np.minimum(lcp, shorter)
        return lengths[block, None] + lengths[cols] - 2 * lcp

    return rows


def free_spec(k: int) -> GroupSpec:
    letters = tuple(range(1, k + 1)) + tuple(range(-k, 0))

    def mul(a, b):
        a = list(a)
        i = 0
        while a and i < len(b) and a[-1] == -b[i]:
            a.pop()
            i += 1
        return tuple(a) + b[i:]

    return GroupSpec(
        name=f"free:{k}",
        unit=(),
        multiply=mul,
        inverse=lambda a: tuple(-x for x in reversed(a)),
        generators=tuple((s,) for s in letters),
        distances=_free_distances,
        tree=True,
        asdim=1,
    )


# -- discrete Heisenberg in Hall coordinates ---------------------------------
#
# (a, b, c) stands for x^a y^b [x,y]^c; the product collects one cross term.
# The group is a central extension of Z^2 by Z: forgetting c is a
# homomorphism onto Z^2 whose kernel is the center, generated by [x,y].


def _heisenberg_length(a, b, c):
    """Blachère's exact word length (Colloq. Math. 95, 2003) of (a, b, c),
    elementwise over arrays of one shape and one signed type, which it
    overwrites."""
    # flipping the sign of a or of b negates c, and (a, b, c) has the
    # length of (a, b, ab - c)
    np.negative(c, out=c, where=(a < 0) != (b < 0))
    np.abs(a, out=a)
    np.abs(b, out=b)
    c = np.maximum(c, a * b - c)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    d = lo + hi
    # the length exceeds lo + hi only where c > lo hi; there it is
    # 2 ceil(c / hi) + hi - lo up to c = hi^2, and 2 ceil(sqrt(4c)) - lo - hi
    # above (a double root is exact for c < 10^14)
    far = np.flatnonzero(c > lo * hi)
    c, lo, hi = c.ravel()[far], lo.ravel()[far], hi.ravel()[far]
    top = np.flatnonzero(c > hi * hi)
    far_d = 2 * -(-c // np.maximum(hi, 1)) + hi - lo
    far_d[top] = 2 * np.ceil(np.sqrt(4.0 * c[top])).astype(c.dtype) - lo[top] - hi[top]
    d.ravel()[far] = far_d
    return d


def _heisenberg_distances(points, cells=None):
    """The word length of x_i^{-1} x_j, from ``_heisenberg_length``.

    With |a|, |b| <= A and |c| <= C over the points, every x_i^{-1} x_j
    lies in the box |a|, |b| <= 2A, |c| <= 2C + 2A^2, and no value the
    closed form forms on it exceeds 4 (6 A^2 + 2 C) = 8 (3 A^2 + C).  The
    lengths have the narrowest signed type that holds that bound: int16
    while it is below 2^15 (every ball window up to r = 35), else int32;
    beyond int32 the points are refused.

    When the box has at most a quarter as many elements as the ``cells``
    the caller will read (n^2 if None: every ball window from r = 7 on),
    the length of each box element is computed once, and a cell is one
    lookup at a flat index of the box: P_j - a_i b_j + Q_i in int32.
    Fewer cells, as in the membership tests of ``within``, or sparser
    point lists get the closed form cell by cell."""
    x = np.array(points, dtype=np.int64)
    A, C = int(np.abs(x[:, :2]).max()), int(np.abs(x[:, 2]).max())
    bound = 8 * (3 * A * A + C)
    if bound >= 2**31:
        raise PreconditionFailed("Heisenberg window too wide for the int32 word length", a_b=A, c=C)
    x = x.astype(np.int16 if bound < 2**15 else np.int32)
    side, depth = 2 * A, 2 * (C + A * A)
    box = (2 * side + 1) ** 2 * (2 * depth + 1)
    if 4 * box <= (len(x) ** 2 if cells is None else cells) and box < 2**31:
        table, index = _heisenberg_table(x, side, depth)
        return lambda block, cols: table.take(index(block, cols))

    def rows(block, cols):
        # x_i^{-1} x_j = (a_j - a_i, b_j - b_i, c_j - c_i - a_i (b_j - b_i))
        ai, bi, ci = (x[block, None, k] for k in range(3))
        a, b = x[cols, 0] - ai, x[cols, 1] - bi
        return _heisenberg_length(a, b, x[cols, 2] - ci - ai * b)

    return rows


def _heisenberg_table(x, side, depth):
    """``(table, index)``: the word length of every element of the box
    |a|, |b| <= side, |c| <= depth, in x's type, and ``index(block, cols)``,
    the int32 flat positions in it of x_i^{-1} x_j.  The table is built a
    block of a-planes at a time; the box must hold every x_i^{-1} x_j and
    have fewer than 2^31 elements."""
    table = np.empty((2 * side + 1, 2 * side + 1, 2 * depth + 1), dtype=x.dtype)
    ab, c = np.arange(-side, side + 1, dtype=x.dtype), np.arange(-depth, depth + 1, dtype=x.dtype)
    for part in blocks(len(table), _KERNEL_CELL_BYTES * table[0].size):
        planes = table[part]
        axes = (ab[part, None, None], ab[:, None], c)
        planes[...] = _heisenberg_length(*(np.broadcast_to(axis, planes.shape).copy() for axis in axes))
    # x_i^{-1} x_j sits at (a_j - a_i + side, b_j - b_i + side, c_j - c_i - a_i (b_j - b_i) + depth),
    # whose flat position is P_j - a_i b_j + Q_i; no partial sum leaves (-table.size, table.size)
    a, b, c = np.ascontiguousarray(x.T, dtype=np.int32)
    row, plane = table.shape[2], table.shape[1] * table.shape[2]
    P = a * plane + b * row + c
    Q = (side - a) * plane + (side - b) * row - c + a * b + depth

    def index(block, cols):
        at = a[block, None] * b[cols]
        np.subtract(P[cols], at, out=at)
        at += Q[block, None]
        return at

    return table, index


def heisenberg_spec() -> GroupSpec:
    return GroupSpec(
        name="heisenberg",
        unit=(0, 0, 0),
        multiply=lambda u, v: (u[0] + v[0], u[1] + v[1], u[2] + v[2] + u[0] * v[1]),
        inverse=lambda u: (-u[0], -u[1], u[0] * u[1] - u[2]),
        generators=((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)),
        distances=_heisenberg_distances,
        extension=(zn_spec(2), lambda e: (e[0], e[1]), ((0, 0, 1), (0, 0, -1))),
    )


def extension_kernel(spec: GroupSpec):
    """Membership predicate and generators of the declared kernel."""
    quotient, pi, generators = spec.extension
    return (lambda e: pi(e) == quotient.unit, generators)


def heisenberg_center():
    """Predicate and generators for the central copy of Z."""
    return extension_kernel(heisenberg_spec())


# -- wreath products ----------------------------------------------------------


@dataclass(frozen=True, order=True)
class WreathElement:
    """(lamp configuration, head).  config maps base positions to non-unit
    lamp values, stored as a sorted tuple of pairs so elements hash."""

    config: tuple
    head: object

    def __str__(self):
        """Lamps by position, then the head: ``{(-3):1,(0):1}@(-3)``."""
        lamps = ",".join(f"{point_label(k)}:{point_label(v)}" for k, v in self.config)
        return "{" + lamps + "}@" + point_label(self.head)


def _wreath_distances(base: GroupSpec, lamp: GroupSpec):
    """The word metric of a wreath product over a tree base (Parry, Trans.
    AMS 331, 1992; Cleary-Taback, Q. J. Math. 56, 2005).

    For x = (f, a) and y = (g, b), a shortest word for x^{-1} y walks the
    base from a to b through Q = {p : f(p) != g(p)} | {a, b} and sets each
    lamp on the way, so with T the subtree spanning Q,
    |x^{-1} y| = 2 |T| - d_N(a, b) + sum_p d_L(f(p), g(p)).  Sorting lists
    the tree depth-first, so 2 |T| is the cyclic sum of d_N over Q in
    sorted order.  The kernel walks the window's sorted positions once,
    keeping each cell's first and last position of Q and its running sum,
    in the narrowest signed type that holds the positions, the lamp values
    and |Q| times the largest base plus lamp distance."""

    def distances(points, cells=None):
        positions = sorted({w.head for w in points}.union(p for w in points for p, _ in w.config))
        values = list(dict.fromkeys([lamp.unit] + [v for w in points for _, v in w.config]))
        P = len(positions)
        dn = base.distances(positions)(slice(None), slice(None))
        dl = lamp.distances(values)(slice(None), slice(None))
        bound = max((P + 1) * (int(dn.max()) + int(dl.max())), P + 1, len(values))
        dtype = np.int16 if bound < 2**15 else np.int32 if bound < 2**31 else np.int64
        # index P is "no position yet", at distance 0 from everything
        dn_none = np.zeros((P + 1, P + 1), dtype=dtype)
        dn_none[:P, :P] = dn
        dl = dl.astype(dtype)
        at = {p: k for k, p in enumerate(positions)}
        value_at = {v: k for k, v in enumerate(values)}
        heads = np.array([at[w.head] for w in points], dtype=dtype)
        lamps = np.zeros((len(points), P), dtype=dtype)
        for row, w in zip(lamps, points):
            for p, v in w.config:
                row[at[p]] = value_at[v]
        lit = lamps.any(axis=0)

        def rows(block, cols):
            fb, fc, hb, hc = lamps[block], lamps[cols], heads[block], heads[cols]
            d = np.zeros((len(hb), len(hc)), dtype=dtype)
            first = np.full(d.shape, P, dtype=dtype)
            last = np.full(d.shape, P, dtype=dtype)
            for k in range(P):
                if lit[k]:
                    # where the lamps differ at k: pay their distance, walk to k
                    lamp_d = dl[fb[:, k]][:, fc[:, k]]
                    d += lamp_d
                    moved = lamp_d != 0
                    np.add(d, dn_none[k].take(last), out=d, where=moved)
                    np.copyto(first, k, where=moved & (last == P))
                    np.copyto(last, k, where=moved)
                # the rows and columns whose head is at k walk there; a
                # second visit at k adds 0
                for cells in (np.flatnonzero(hb == k), (slice(None), np.flatnonzero(hc == k))):
                    was = last[cells]
                    d[cells] += dn_none[k].take(was)
                    first[cells] = np.where(was == P, k, first[cells])
                    last[cells] = k
            d += dn_none[last, first]
            d -= dn_none[hb[:, None], hc]
            return d

        return rows

    return distances


def wreath_spec(base: GroupSpec, lamp: GroupSpec) -> GroupSpec:
    if not base.tree:
        raise PreconditionFailed("wreath products need a base whose Cayley graph is a tree", base=base.name)
    unit = WreathElement((), base.unit)

    def mul(a: WreathElement, b: WreathElement):
        # (f, s)(g, t) = (f * s(g), s t) with s(g)(x) = g(s^{-1} x),
        # so the support of g translates by s on the left.
        cfg = dict(a.config)
        for k, g in b.config:
            kk = base.multiply(a.head, k)
            merged = lamp.multiply(cfg.get(kk, lamp.unit), g)
            if merged == lamp.unit:
                cfg.pop(kk, None)
            else:
                cfg[kk] = merged
        return WreathElement(tuple(sorted(cfg.items())), base.multiply(a.head, b.head))

    def inv(a: WreathElement):
        hinv = base.inverse(a.head)
        cfg = {base.multiply(hinv, k): lamp.inverse(g) for k, g in a.config}
        return WreathElement(tuple(sorted(cfg.items())), hinv)

    gens = [WreathElement(((base.unit, s),), base.unit) for s in lamp.generators]
    gens += [WreathElement((), t) for t in base.generators]
    return GroupSpec(
        name=f"wreath:{base.name}:{lamp.name}",
        unit=unit,
        multiply=mul,
        inverse=inv,
        generators=tuple(gens),
        distances=_wreath_distances(base, lamp),
        factors=(base, lamp),
    )


def lamplighter_spec() -> GroupSpec:
    return wreath_spec(zn_spec(1), cyclic_spec(2))


# -- BFS norms and ball spaces ------------------------------------------------


def word_norm_table(spec: GroupSpec, radius: int, cap=None):
    """Word norms of every element in the closed ball, by layered BFS."""
    cap = DEFAULT_BALL_CAP if cap is None else cap
    norms = {spec.unit: 0}
    frontier = [spec.unit]
    for r in range(1, radius + 1):
        nxt = []
        for g in frontier:
            for s in spec.generators:
                h = spec.multiply(g, s)
                if h not in norms:
                    norms[h] = r
                    nxt.append(h)
                    if len(norms) > cap:
                        raise BallTooLarge(
                            "ball enumeration exceeded cap",
                            group=spec.name,
                            cap=cap,
                            radius_reached=r - 1,
                        )
        frontier = nxt
    return norms


def _by_norm(table):
    """The table's elements, by (norm, element)."""
    return sorted(table, key=lambda e: (table[e], e))


def ball_elements(spec: GroupSpec, radius: int, cap=None):
    return _by_norm(word_norm_table(spec, radius, cap))


def ball_space(spec: GroupSpec, radius: int, cap=None) -> FiniteMetricSpace:
    """The closed ball around the unit with the restricted word metric.

    BFS lists the ball, so the cap counts the window itself.  Pairwise
    distances, norms of x^{-1} y, come from the spec's declared metric,
    one strip of the upper triangle at a time mirrored below the
    diagonal, and are checked on the unit row against the BFS norms.
    Window metadata is attached for margin audits.  The matrix has the
    narrowest signed integer type that holds a sum of two of its
    distances: int8 up to r = 31, int16 up to r = 8191.
    """
    # a distance in the radius-r ball is at most 2r, and validation adds two
    dtype = np.int8 if 4 * radius <= 127 else np.int16 if 4 * radius <= 32767 else np.int32
    table = word_norm_table(spec, radius, cap)
    points = _by_norm(table)
    rows = spec.distances(points)
    n = len(points)
    d = np.empty((n, n), dtype=dtype)
    start = 0
    while start < n:
        stop = min(n, start + block_rows(_KERNEL_CELL_BYTES * (n - start)))
        d[start:stop, start:] = rows(slice(start, stop), slice(start, None))
        d[start:, start:stop] = d[start:stop, start:].T
        start = stop
    # points[0] is the unit, so row 0 holds the norms BFS measured
    wrong = np.flatnonzero(d[0] != [table[p] for p in points])
    if wrong.size:
        point = point_label(points[wrong[0]])
        raise AuditFailed("window distance disagrees with the BFS norm", group=spec.name, point=point)
    return FiniteMetricSpace(points, d, center=spec.unit, window_radius=radius)


def within(spec: GroupSpec, radius: int):
    """``near(sources, targets)``: the mask of targets within ``radius`` of
    some source in the spec's declared metric.

    The answer comes from ``rows(sources, targets)``, exact because word
    metrics are left-invariant, so no ball is listed.
    """

    def near(sources, targets):
        m = len(sources)
        rows = spec.distances(list(sources) + list(targets), cells=m * len(targets))
        hit = np.zeros(len(targets), dtype=bool)
        for part in blocks(m, _KERNEL_CELL_BYTES * len(targets)):
            hit |= (rows(part, slice(m, None)) <= radius).any(axis=0)
        return hit

    return near


# -- distortion ---------------------------------------------------------------


def distortion_profile(spec, member, sub_generators, radius, cap=None):
    """(inner, ambient) norm pairs for subgroup elements met in the ball.

    Inner norms come from a second BFS that only multiplies by the given
    subgroup generators.  The inner search stops at depth max(8, 4 radius^2):
    a quadratically distorted subgroup needs roughly radius^2 inner steps.
    """
    table = word_norm_table(spec, radius, cap)
    targets = {e: n for e, n in table.items() if member(e)}
    limit = max(8, 4 * radius * radius)
    inner = {spec.unit: 0}
    frontier = [spec.unit]
    remaining = set(targets) - {spec.unit}
    depth = 0
    while remaining and frontier and depth < limit:
        depth += 1
        nxt = []
        for g in frontier:
            for s in sub_generators:
                h = spec.multiply(g, s)
                if h not in inner:
                    inner[h] = depth
                    nxt.append(h)
                    remaining.discard(h)
        frontier = nxt
    if remaining:
        raise PreconditionFailed(
            "subgroup BFS did not reach every member in the ball",
            missing=len(remaining),
            inner_cap=limit,
        )
    pairs = [(inner[e], targets[e]) for e in targets]
    pairs.sort(key=lambda t: (t[1], t[0]))
    return pairs


def log_log_slope(pairs):
    """Least-squares slope of log(ambient) against log(inner)."""
    data = [(i, a) for i, a in pairs if i >= 1 and a >= 1]
    if len(data) < 2:
        raise PreconditionFailed("need at least two nontrivial pairs for a fit")
    # centring one distinct inner norm leaves all zeros, and the fit 0 / 0
    if len({i for i, _ in data}) < 2:
        raise PreconditionFailed("need two distinct inner norms for a fit", inner=data[0][0])
    x = np.log([i for i, _ in data])
    y = np.log([a for _, a in data])
    x = x - x.mean()
    return float((x * (y - y.mean())).sum() / (x * x).sum())


# -- token grammar ------------------------------------------------------------


def _count(parts, i, least=None):
    """The integer argument at parts[i], at least ``least`` when given."""
    token = ":".join(parts)
    try:
        value = int(parts[i])
    except (IndexError, ValueError):
        raise PreconditionFailed("group token needs an integer argument", token=token) from None
    if least is not None and value < least:
        raise PreconditionFailed("group token argument too small", token=token, least=least)
    return value


def _parse_token(parts, i):
    if i == len(parts):
        raise PreconditionFailed("group token ends early", token=":".join(parts))
    head = parts[i]
    if head == "heisenberg":
        return heisenberg_spec(), i + 1
    if head == "lamplighter":
        return lamplighter_spec(), i + 1
    if head == "zn":
        return zn_spec(_count(parts, i + 1, least=1)), i + 2
    if head == "free":
        return free_spec(_count(parts, i + 1, least=0)), i + 2
    if head == "cyclic":
        return cyclic_spec(_count(parts, i + 1, least=2)), i + 2
    if head == "wreath":
        base, j = _parse_token(parts, i + 1)
        lamp, k = _parse_token(parts, j)
        return wreath_spec(base, lamp), k
    raise PreconditionFailed("unknown group token", token=":".join(parts))


def group_from_token(token: str) -> GroupSpec:
    parts = token.split(":")
    spec, end = _parse_token(parts, 0)
    if end != len(parts):
        raise PreconditionFailed("trailing junk in group token", token=token)
    return spec
