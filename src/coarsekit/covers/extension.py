"""Covers of group windows built from quotient and kernel covers.

The composition takes a cover of the quotient, a cover of the kernel in
the restricted metric, grows a shrunken copy of each kernel member back
by R, and translates it into each fiber by a deep preimage point.  Its
three promised statistics (Lebesgue, diameter, multiplicity) are all
asserted on the computed window, with boundary effects quarantined to a
reported safe margin rather than silently absorbed.  ``split_along``
cuts a window along an audited quotient map, and ``extension_split``
cuts a ball window along a spec's declared one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    AuditFailed,
    BallTooLarge,
    LebesgueTooSmall,
    PreconditionFailed,
    WindowTooSmall,
)
from ..groups import (
    GroupSpec,
    ball_elements,
    ball_space,
    wreath_outside,
    wreath_restrict,
    word_norm_table,
)
from ..metric import FiniteMetricSpace, point_label, row_blocks, _tolerance
from .base import Cover, brick_cover_zl, interval_cover_z


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
    ``ball_cap`` is the cap the windows were listed under.
    """

    spec: GroupSpec
    quotient_spec: GroupSpec
    pi: callable
    window: FiniteMetricSpace
    quotient: FiniteMetricSpace
    kernel: FiniteMetricSpace
    pi_idx: np.ndarray
    ball_cap: int

    def quotient_cover(self, lam):
        """U by the quotient's lattice rank (intervals at 1, bricks above),
        with R = diam U."""
        rank = self.quotient_spec.lattice_rank
        if rank == 1:
            U = interval_cover_z(self.quotient, lam)
        elif rank is not None:
            U = brick_cover_zl(self.quotient, lam)
        else:
            raise PreconditionFailed(
                "no quotient cover recipe for this base group", base=self.quotient_spec.name
            )
        return U, U.max_diameter()


def split_along(
    G: GroupSpec, window: FiniteMetricSpace, H: GroupSpec, quotient: FiniteMetricSpace, pi, ball_cap=None
) -> ExtensionSplit:
    """Cut a G-window along pi onto an H-window, auditing pi once."""
    pi_idx = _audit_projection(G, window, H, pi, quotient)
    unit = quotient._index.get(H.unit)
    kernel = window.subspace([w for w, q in zip(window.points, pi_idx) if q == unit])
    return ExtensionSplit(G, H, pi, window, quotient, kernel, pi_idx, ball_cap)


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
    return split_along(spec, window, quotient_spec, quotient, pi, ball_cap)


def extension_cover(
    split: ExtensionSplit, U_cover: Cover, V_cover: Cover, lam, R, *, safe_margin=None
) -> Cover:
    """Cover the split's window by sets z_U * N_R(2R-shrunk V) within each fiber.

    Preconditions (audited): U covers the split's quotient window with
    Lambda(U) >= lam and diam <= R; V covers its kernel window with
    Lambda(V) >= 6R in the restricted metric.  Conclusions (asserted):
    multiplicity <= m(U) m(V) and member diameter <= diam V + 2R
    everywhere; Lambda >= lam on the safe region.  Points too close to
    the window edge may end up uncovered; if any point with margin >=
    safe_margin (default lam) is missed, the window was too small and we
    say so.
    """
    G, window, kernel, pi_idx = split.spec, split.window, split.kernel, split.pi_idx
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

    try:
        small_ball = frozenset(word_norm_table(G, R, cap=split.ball_cap)) if R > 0 else frozenset({G.unit})
    except BallTooLarge as err:
        # the window fit; the ball of the quotient cover's diameter did not
        raise BallTooLarge("R-ball enumeration exceeded cap", **err.context, R=R) from None

    # 2R-shrunk kernel members, in the restricted metric of the kernel window
    comp_v = V_cover.complement_distances()
    tol = _tolerance(kernel.d)
    core_inverses = []
    for j in range(len(V_cover)):
        keep = V_cover.masks[j] & (comp_v[j] > 2 * R + tol)
        core_inverses.append([G.inverse(kernel.points[i]) for i in np.flatnonzero(keep)])

    # deepest preimage point per quotient member, canonical ties
    comp_u = U_cover.complement_distances()
    n = len(window.points)
    norms = window.d[:, window.index(G.unit)] if G.unit in window._index else np.zeros(n)
    key_rank = np.empty(n, dtype=np.intp)
    key_rank[sorted(range(n), key=window.points.__getitem__)] = np.arange(n)

    sets, labels, owners, z_points = [], [], [], {}
    for i in range(len(U_cover)):
        strip = np.flatnonzero(U_cover.masks[i, pi_idx])
        if strip.size == 0:
            continue
        deepest = np.lexsort((key_rank[strip], norms[strip], -comp_u[i, pi_idx[strip]]))[0]
        z = window.points[strip[deepest]]
        z_points[U_cover.labels[i]] = point_label(z)
        z_inv = G.inverse(z)
        shifted = [(window.points[wi], G.multiply(z_inv, window.points[wi])) for wi in strip]
        for j, core_inv in enumerate(core_inverses):
            if not core_inv:
                continue
            members = [
                w for w, x in shifted
                if any(G.multiply(s_inv, x) in small_ball for s_inv in core_inv)
            ]
            if members:
                sets.append(members)
                labels.append(f"W({U_cover.labels[i]},{V_cover.labels[j]})")
                owners.append((U_cover.labels[i], V_cover.labels[j]))

    guard = lam if safe_margin is None else safe_margin
    margins = window.margins()
    safe = margins >= guard
    cover = Cover(
        window,
        sets,
        labels,
        require_total=False,
        meta={
            "method": "extension",
            "pairs": owners,
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

    mult = cover.multiplicity()
    bound = U_cover.multiplicity() * V_cover.multiplicity()
    if mult > bound:
        raise AuditFailed("multiplicity exceeds m(U)m(V)", measured=mult, bound=bound)
    worst_diam = cover.max_diameter()
    if worst_diam > D + 2 * R:
        raise AuditFailed("member diameter exceeds D+2R", measured=worst_diam, bound=D + 2 * R)
    lam_w = cover.pointwise_lebesgue(point_mask=safe)
    if lam_w < lam:
        raise AuditFailed("Lebesgue surrogate below lam on the safe region", measured=lam_w, lam=lam)

    cover.meta["conclusions"] = {
        "multiplicity": mult,
        "multiplicity_bound": bound,
        "diameter": worst_diam,
        "diameter_bound": D + 2 * R,
        "lebesgue_safe": lam_w,
        "lebesgue_target": lam,
        "safe_points": int(safe.sum()),
        "uncovered_boundary_points": int((~cover.covered_mask()).sum()),
    }
    return cover


def wreath_kernel_cover(N: GroupSpec, G: GroupSpec, r, kernel_window: FiniteMetricSpace, V_cover: Cover) -> Cover:
    """Extend a cover of the lamps inside B_r(e) to the whole kernel window.

    Elements sharing an outside-lamp pattern form a class isometric to the
    inside-lamp block, so each V member translates across classes.  Changing
    any lamp beyond radius r costs more than r steps, which is what keeps
    distinct classes far apart; the resulting Lebesgue number is measured,
    not assumed.
    """
    lam_v = V_cover.pointwise_lebesgue()
    if lam_v < r:
        raise LebesgueTooSmall("inside cover surrogate below r", measured=lam_v, needed=r)
    inside_positions = ball_elements(N, r)
    inside_space = V_cover.space

    classes = {}
    for w in kernel_window.points:
        classes.setdefault(wreath_outside(w, inside_positions), []).append(w)

    inside_index = inside_space._index
    for w in kernel_window.points:
        if wreath_restrict(w, inside_positions) not in inside_index:
            raise PreconditionFailed(
                "restriction of a kernel point is missing from the inside window",
                point=point_label(w),
            )

    v_count_at = V_cover.counts()
    sets, labels = [], []
    expected_mult = 0
    for ci, (pattern, members) in enumerate(sorted(classes.items())):
        inner = [wreath_restrict(w, inside_positions) for w in members]
        inner_idx = [inside_space.index(x) for x in inner]
        expected_mult = max(expected_mult, max(int(v_count_at[i]) for i in inner_idx))
        for j in range(len(V_cover)):
            chosen = [w for w, ii in zip(members, inner_idx) if V_cover.masks[j, ii]]
            if chosen:
                sets.append(chosen)
                labels.append(f"{V_cover.labels[j]}xz{ci}")
    cover = Cover(
        kernel_window,
        sets,
        labels,
        meta={"method": "wreath_kernel", "r": r, "classes": len(classes)},
    )
    mult = cover.multiplicity()
    if mult != expected_mult:
        raise AuditFailed(
            "kernel cover multiplicity disagrees with the inside cover",
            measured=mult,
            expected=expected_mult,
        )
    measured = cover.pointwise_lebesgue()
    if measured < r:
        raise AuditFailed("kernel cover surrogate below r", measured=measured, r=r)
    return cover
