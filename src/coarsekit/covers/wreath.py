"""End-to-end cover pipeline for restricted wreath products.

Stages: cover the base group window by intervals or bricks and measure
its diameter R, then key every window point by its lamp class.  For
each base member U_i with anchor z_i (its deepest preimage), a point w
over U_i joins the member keyed by x = z_i^{-1} w: the lamps of x at base
positions outside B_{6R}(e), and, for integer lamps, the staggered brick
of x's lamp vector inside B_{6R}(e).  This is the kernel cover of the
Hurewicz-type composition taken on the infinite kernel: changing a lamp
outside B_{6R}(e) costs more than 12R steps, and |pi(x)| <= R, so x lies
within R of exactly one outside-lamp class and the key needs no distance.
No kernel window is cut and no ball is listed, and every window point
is covered.
"""

from __future__ import annotations

import numpy as np

from ..errors import PreconditionFailed
from ..groups import WreathElement, ball_elements, word_norm_table
from ..metric import point_label
from .base import Cover, _brick_keys, _drop_nested, _keyed_rows, assert_bounds
from .extension import ExtensionSplit, _anchors, _audit_conclusions


def eval_polynomial(coeffs, x):
    if any(c < 0 for c in coeffs):
        raise PreconditionFailed("polynomial has a negative coefficient", coeffs=list(coeffs))
    return sum(c * x**i for i, c in enumerate(coeffs))


def _finite_diameter(spec):
    """The largest word norm in a finite group: the last nonempty BFS layer."""
    r = 1
    while max(word_norm_table(spec, r).values()) == r:
        r += 1
    return r - 1


def wreath_cover(split: ExtensionSplit, lam):
    """Cover a split ball window of N wr G by lamp-class keys.

    The lamp group's declared fields pick the kernel recipe: ``asdim`` 0
    (finite lamps) keys by outside lamps alone; ``lattice_rank`` k adds
    the staggered bricks of side 2(L+1)6R over all L = k|B_{6R}(e)| inside
    lamp coordinates; any other lamp group has no recipe.  Audited on the
    returned cover: every window point is covered; multiplicity <= m(U)
    m(V), with m(V) = L+1 (1 for finite lamps); member diameter <= D + 2R
    with D = 2(|B_{6R}| - 1) + |B_{6R}| w, w the lamp spread (the lamp
    group's diameter, or k(side - 1) within a brick); Lebesgue >= lam at
    every point; and the (n+1)(m+1)|B_{6R}(e)| envelope, reported in the
    stats dict next to the measured triple.  Members nested in another
    member of the same class are dropped.
    """
    G, window = split.spec, split.window
    N, lamp = G.factors
    U, R = split.quotient_cover(lam)
    inside = ball_elements(N, 6 * R)
    slot = {p: s for s, p in enumerate(inside)}
    # lamp coordinates per position: none for finite lamps, k for Z^k
    k = 0 if lamp.asdim == 0 else lamp.lattice_rank
    if k is None:
        raise PreconditionFailed("no kernel cover recipe for this lamp group", lamp=lamp.name)
    width = k * len(inside)
    # at lambda 0, R = 0 and bricks of side 1 are the singletons
    side = max(1, 2 * (width + 1) * 6 * R)
    spread = k * (side - 1) if k else _finite_diameter(lamp)
    # a closed walk along a spanning tree of B_{6R} sets every inside lamp
    D = 2 * (len(inside) - 1) + len(inside) * spread

    n = len(window.points)
    rows, labels, keys, z_points = [], [], [], {}
    for i, strip, z in _anchors(split, U):
        z_points[U.labels[i]] = point_label(z)
        z_inv = G.inverse(z)
        xs = [G.multiply(z_inv, window.points[w]) for w in strip]
        # x's lamps outside B_{6R}(e), as a kernel element, name its class
        outside = [WreathElement(tuple(c for c in x.config if c[0] not in slot), N.unit) for x in xs]
        classes = sorted(set(outside))
        rank = {o: c for c, o in enumerate(classes)}
        cls = np.array([[rank[o]] for o in outside])
        lamps = np.zeros((len(xs), width), dtype=np.int64)
        for vec, x in zip(lamps, xs):
            for p, v in x.config:
                if p in slot:
                    vec[k * slot[p] : k * slot[p] + k] = v
        # members keyed (class, family, brick) and listed in that order; only
        # the coordinates a family's bricks cut in this strip can split a class
        strip_keys, cells = [], []
        for j in range(width + 1):
            bricks = _brick_keys(lamps, 6 * R, side, j)
            cut = np.flatnonzero((bricks != bricks[:1]).any(axis=0))
            key, cell = _keyed_rows(np.hstack([cls, bricks[:, cut]]))
            strip_keys.append(np.column_stack([key[:, 0], np.full(len(key), j), bricks[cell.argmax(axis=1)]]))
            cells.append(cell)
        strip_keys, cells = np.concatenate(strip_keys), np.concatenate(cells)
        order = np.lexsort(strip_keys.T[::-1])
        kept = order[_drop_nested(cells[order])]
        members = np.zeros((len(kept), n), dtype=bool)
        members[:, strip] = cells[kept]
        rows.append(members)
        for c, j, *bricks in strip_keys[kept].tolist():
            brick = f",brick{j}." + ",".join(map(str, bricks)) if width else ""
            labels.append(f"W({U.labels[i]},{point_label(classes[c])}{brick})")
            keys.append((U.labels[i], classes[c], j, tuple(bricks)))

    meta = {"method": "wreath", "keys": keys, "z_points": z_points, "safe_margin": 0}
    cover = Cover(window, np.concatenate(rows), labels, meta=meta)
    _audit_conclusions(cover, U.multiplicity() * (width + 1), D + 2 * R, lam, np.ones(n, dtype=bool))
    envelope = (N.asdim + 1) * (lamp.asdim + 1) * len(inside)
    assert_bounds(cover, multiplicity=envelope)
    stats = dict(cover.meta["conclusions"])
    stats.update(
        envelope=envelope,
        r=6 * R,
        R=R,
        quotient_sets=len(U),
        window_points=n,
    )
    return cover, stats
