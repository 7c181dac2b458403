"""End-to-end cover pipeline for restricted wreath products.

Stages: cover the base group window by intervals or bricks, measure its
diameter R, cover the lamps supported inside B_{6R}(e) (one whole set
when the lamp group is finite, lamp-coordinate bricks when it is Z),
spread that over the kernel window by outside-lamp pattern, and extend
along the head projection.
"""

from __future__ import annotations

from ..errors import AuditFailed, PreconditionFailed
from ..groups import GroupSpec, ball_elements, wreath_spec
from .base import Cover, _dedupe_nested
from .extension import extension_cover, extension_split, wreath_kernel_cover


def eval_polynomial(coeffs, x):
    if any(c < 0 for c in coeffs):
        raise PreconditionFailed("polynomial has a negative coefficient", coeffs=list(coeffs))
    return sum(c * x**i for i, c in enumerate(coeffs))


def wreath_lamp_bricks(inside_window, positions, lam) -> Cover:
    """Staggered bricks on the lamp-value vectors over a fixed position set.

    Works for integer lamps: every move changes one lamp by 1, so the
    window metric dominates the l1 metric of the value vectors and the
    brick depth guarantee carries over.  Sets nested inside another set
    are dropped; on small windows most shifted families coincide.
    """
    positions = sorted(positions)
    l = len(positions)
    side = 2 * (l + 1) * lam
    groups = {}
    for w in inside_window.points:
        lamps = {k: v for k, v in w.config}
        vec = tuple(lamps.get(k, (0,))[0] for k in positions)
        for j in range(l + 1):
            key = (j,) + tuple((x + 2 * j * lam) // side for x in vec)
            groups.setdefault(key, []).append(w)
    picked = _dedupe_nested(groups)
    sets = [sorted(m, key=lambda w: inside_window.index(w)) for _, m in picked]
    labels = [f"brick{k[0]}:{','.join(map(str, k[1:]))}" for k, _ in picked]
    cover = Cover(inside_window, sets, labels, meta={"method": "lamp_bricks", "lam": lam, "side": side})
    measured = cover.pointwise_lebesgue()
    if measured < lam:
        raise AuditFailed("lamp brick surrogate below target", measured=measured, lam=lam)
    return cover


def wreath_cover(N: GroupSpec, G: GroupSpec, ball_radius, lam, *, ball_cap=None):
    """Cover a ball window of N wr G with the quotient-kernel composition.

    Returns the cover and a stats dict holding the measured triple next
    to the theoretical multiplicity envelope (n+1)(m+1)|B_{6R}(e)|.
    """
    W = wreath_spec(N, G)
    split = extension_split(W, ball_radius, ball_cap=ball_cap)
    U, R = split.quotient_cover(lam)
    r = 6 * R

    inside_positions = ball_elements(N, r)
    inside_set = set(inside_positions)
    kernel_window = split.kernel
    inside_pts = [w for w in kernel_window.points if all(k in inside_set for k, _ in w.config)]
    inside_window = kernel_window.subspace(inside_pts)

    if G.asdim == 0:
        V = Cover(
            inside_window,
            [list(inside_window.points)],
            ["K"],
            meta={"method": "whole_window"},
        )
    else:
        V = wreath_lamp_bricks(inside_window, inside_positions, r)

    kernel_cover = wreath_kernel_cover(N, G, r, kernel_window, V)
    D = kernel_cover.max_diameter()

    cover = extension_cover(
        W,
        split.window,
        N,
        split.pi,
        U,
        kernel_cover,
        lam,
        R,
        D,
        ball_cap=ball_cap,
    )
    envelope = (N.asdim + 1) * (G.asdim + 1) * len(inside_positions)
    stats = dict(cover.meta["conclusions"])
    if stats["multiplicity"] > envelope:
        raise AuditFailed(
            "multiplicity exceeds the (n+1)(m+1)|B_r(e)| envelope",
            measured=stats["multiplicity"],
            envelope=envelope,
        )
    stats.update(
        envelope=envelope,
        r=r,
        R=R,
        quotient_sets=len(U),
        kernel_sets=len(kernel_cover),
        window_points=len(split.window),
    )
    return cover, stats
