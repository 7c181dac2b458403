"""Covers of group windows built from quotient and kernel covers.

The composition takes a cover of the quotient, a cover of the kernel in
the restricted metric, grows a shrunken copy of each kernel member back
by R, and translates it into each fiber by a deep preimage point.  A
window point w lies in z N_R(core) exactly when d(z s, w) <= R for some
core element s, as word metrics are left-invariant; that distance comes
from the spec's declared metric.  Its three promised statistics
(Lebesgue, diameter, multiplicity) are all asserted on the computed
window, with boundary effects quarantined to a reported safe margin
rather than silently absorbed.  Wreath products take the same split but
key points by lamp class in ``covers.wreath``.  ``split_along`` cuts a
window along an audited quotient map, and ``extension_split`` cuts a
ball window along a spec's declared one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import LebesgueTooSmall, PreconditionFailed, WindowTooSmall
from ..groups import GroupSpec, ball_space, within
from ..metric import FiniteMetricSpace, point_label, row_blocks
from .base import Cover, assert_bounds, brick_cover_zl, interval_cover_z


def _audit_projection(G: GroupSpec, window: FiniteMetricSpace, H: GroupSpec, pi, quotient: FiniteMetricSpace):
    """pi must restrict a homomorphism and shrink no distance."""
    images = []
    for w in window.points:
        q = pi(w)
        if q not in quotient._index:
            raise PreconditionFailed(
                "projection leaves the quotient window", point=point_label(w), image=point_label(q)
            )
        images.append(quotient.index(q))
    idx = np.asarray(images, dtype=np.intp)
    # one block of rows at a time, so the gathered quotient distances and
    # their mask are never held whole
    start = 0
    for qd in row_blocks(quotient.d, idx, idx):
        bad = qd > window.d[start : start + len(qd)]
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise PreconditionFailed(
                "projection is not 1-Lipschitz",
                pair=(point_label(window.points[start + i]), point_label(window.points[j])),
            )
        start += len(qd)
    window_set = window._index
    for w in window.points:
        for s in G.generators:
            ws = G.multiply(w, s)
            if ws in window_set:
                if pi(ws) != H.multiply(pi(w), pi(s)):
                    raise PreconditionFailed(
                        "projection is not a homomorphism restriction", point=point_label(w)
                    )
    return idx


@dataclass(frozen=True)
class ExtensionSplit:
    """A window of a group cut along an audited quotient map.

    ``pi_idx[i]`` is the quotient index of ``pi(window.points[i])``, and
    ``kernel`` is the subwindow that projects to the quotient unit; each
    caller brings its own kernel cover and takes U from ``quotient_cover``.
    """

    spec: GroupSpec
    quotient_spec: GroupSpec
    pi: callable
    window: FiniteMetricSpace
    quotient: FiniteMetricSpace
    kernel: FiniteMetricSpace
    pi_idx: np.ndarray

    def quotient_cover(self, lam):
        """U by the quotient's lattice rank (intervals at 1, bricks above);
        callers read R = diam U off it with ``max_diameter``, which caches."""
        rank = self.quotient_spec.lattice_rank
        if rank == 1:
            U = interval_cover_z(self.quotient, lam)
        elif rank is not None:
            U = brick_cover_zl(self.quotient, lam)
        else:
            raise PreconditionFailed(
                "no quotient cover recipe for this base group", base=self.quotient_spec.name
            )
        return U


def split_along(
    G: GroupSpec, window: FiniteMetricSpace, H: GroupSpec, quotient: FiniteMetricSpace, pi
) -> ExtensionSplit:
    """Cut a G-window along pi onto an H-window, auditing pi once."""
    pi_idx = _audit_projection(G, window, H, pi, quotient)
    unit = quotient._index.get(H.unit)
    kernel = window.subspace(np.flatnonzero(pi_idx == unit))
    return ExtensionSplit(G, H, pi, window, quotient, kernel, pi_idx)


def extension_split(spec: GroupSpec, radius, *, ball_cap=None) -> ExtensionSplit:
    """Windows for the quotient-kernel composition on B_radius(e).

    The quotient and projection come from ``spec.extension``, or from
    ``spec.factors`` for a wreath product (the base, read off the head).
    """
    if spec.extension is not None:
        quotient_spec, pi, _ = spec.extension
    else:
        quotient_spec, pi = spec.factors[0], lambda w: w.head
    window = ball_space(spec, radius, cap=ball_cap)
    quotient = ball_space(quotient_spec, radius, cap=ball_cap)
    return split_along(spec, window, quotient_spec, quotient, pi)


def _anchors(split: ExtensionSplit, U_cover: Cover):
    """(i, strip, z) for each quotient member U_i with a nonempty preimage:
    ``strip`` holds the window indices over U_i and z is the deepest of
    those points (greatest depth of its image in U_i, then least norm,
    then window order; the sort is stable, and a ball window lists each
    norm in element order)."""
    window, pi_idx = split.window, split.pi_idx
    comp_u = U_cover.complement_distances()
    unit = window._index.get(split.spec.unit)
    norms = window.d[:, unit] if unit is not None else np.zeros(len(window.points))
    for i in range(len(U_cover)):
        strip = np.flatnonzero(U_cover.masks[i, pi_idx])
        if strip.size:
            deepest = np.lexsort((norms[strip], -comp_u[i, pi_idx[strip]]))[0]
            yield i, strip, window.points[strip[deepest]]


def _audit_conclusions(cover: Cover, multiplicity_bound, diameter_bound, lam, safe):
    """Assert the composition's conclusions on the built cover and record
    them in ``cover.meta["conclusions"]``: multiplicity <= m(U) m(V) and
    member diameter <= D + 2R everywhere, Lebesgue >= lam on the safe
    points.  That dict is the only place a composite cover's statistics
    are returned; ``wreath_cover`` adds its envelope and scales to it."""
    measured = assert_bounds(
        cover, multiplicity=multiplicity_bound, diameter=diameter_bound, lebesgue=lam, points=safe
    )
    cover.meta["conclusions"] = {
        "multiplicity": measured["multiplicity"],
        "multiplicity_bound": multiplicity_bound,
        "diameter": measured["diameter"],
        "diameter_bound": diameter_bound,
        "lebesgue_safe": measured["lebesgue"],
        "lebesgue_target": lam,
        "safe_points": int(safe.sum()),
        "uncovered_boundary_points": int((~cover.covered_mask()).sum()),
    }


def extension_cover(
    split: ExtensionSplit, U_cover: Cover, V_cover: Cover, lam, R, *, safe_margin=None
) -> Cover:
    """Cover the split's window by sets z_U * N_R(2R-shrunk V) within each fiber.

    Preconditions (audited): U covers the split's quotient window with
    Lambda(U) >= lam and diam <= R; V covers its kernel window with
    Lambda(V) >= 6R in the restricted metric.  Membership is measured
    with ``groups.within``: the declared metric between the translated
    core z s and each strip point.
    Conclusions (asserted): multiplicity <= m(U) m(V) and member diameter
    <= diam V + 2R everywhere; Lambda >= lam on the safe region.  Points
    too close to the window edge may end up uncovered; if any point with
    margin >= safe_margin (default lam) is missed, the window was too
    small and we say so.
    """
    G, window, kernel = split.spec, split.window, split.kernel
    if U_cover.space is not split.quotient or V_cover.space is not kernel:
        raise PreconditionFailed("U must cover the split's quotient window and V its kernel window")

    lam_u = U_cover.pointwise_lebesgue()
    if lam_u < lam:
        raise LebesgueTooSmall("quotient cover surrogate below lam", measured=lam_u, needed=lam)
    diam_u = U_cover.max_diameter()
    if diam_u > R:
        raise PreconditionFailed("quotient cover wider than R", diam=diam_u, R=R)
    lam_v = V_cover.pointwise_lebesgue()
    if lam_v < 6 * R:
        raise LebesgueTooSmall("kernel cover surrogate below 6R", measured=lam_v, needed=6 * R)
    D = V_cover.max_diameter()

    # w joins the member of (U_i, V_j) when d(z_i s, w) <= R for some s in
    # the 2R-shrunk V_j (in the restricted metric of the kernel window)
    near = within(G, R)
    cores = [[kernel.points[k] for k in np.flatnonzero(core)] for core in V_cover.cores(2 * R)]

    n = len(window.points)
    rows, labels, z_points = [], [], {}
    for i, strip, z in _anchors(split, U_cover):
        z_points[U_cover.labels[i]] = point_label(z)
        targets = [window.points[wi] for wi in strip]
        for j, core in enumerate(cores):
            if not core:
                continue
            hit = near([G.multiply(z, s) for s in core], targets)
            if hit.any():
                row = np.zeros(n, dtype=bool)
                row[strip[hit]] = True
                rows.append(row)
                labels.append(f"W({U_cover.labels[i]},{V_cover.labels[j]})")

    guard = lam if safe_margin is None else safe_margin
    margins = window.margins()
    safe = margins >= guard
    cover = Cover(
        window,
        np.array(rows, dtype=bool).reshape(len(rows), n),
        labels,
        require_total=False,
        meta={
            "method": "extension",
            "z_points": z_points,
            "safe_margin": guard,
            "R": R,
            "D": D,
            "lam": lam,
        },
    )

    if not safe.any():
        raise WindowTooSmall("no point has the required boundary margin", margin=guard)
    uncovered_safe = safe & ~cover.covered_mask()
    if uncovered_safe.any():
        # report the deepest miss: callers can retry with margin above it
        wi = int(np.flatnonzero(uncovered_safe)[np.argmax(margins[uncovered_safe])])
        raise WindowTooSmall(
            "safe point left uncovered by the translated kernel sets",
            witness=point_label(window.points[wi]),
            margin=float(margins[wi]),
            requested_margin=float(guard),
        )

    _audit_conclusions(cover, U_cover.multiplicity() * V_cover.multiplicity(), D + 2 * R, lam, safe)
    return cover
