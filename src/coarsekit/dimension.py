"""Minimal cover multiplicity and achieved diameters, as measured profiles.

Two independent answers to "how many sets does radius lam force": an
exhaustive oracle on at most nine points, and a greedy catalog of
constructions (interval chains, straight and rotated bricks, ball
covers) whose candidates are only accepted after an exact containment
check.  Profiles over a lambda schedule are emitted as CSV with the
theoretical envelope next to each measured value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._jsonutil import csv_text
from .covers.base import Cover, _bricks, _drop_nested, _keyed_rows, _lattice_coords, assert_bounds
from .covers.base import ball_cover, brick_cover_zl
from .covers.extension import extension_cover, extension_split
from .covers.wreath import eval_polynomial, wreath_cover
from .errors import AuditFailed, Infeasible, PreconditionFailed, TooLarge, WindowTooSmall
from .groups import ball_space, group_from_token
from .metric import INF, block_rows, point_label

ORACLE_MAX_POINTS = 9
ORACLE_NODE_CAP = 10_000_000

CSV_HEADER = (
    "group",
    "lambda",
    "diam_budget",
    "multiplicity",
    "method",
    "theoretical_envelope",
    "boundary_margin",
)


# -- exhaustive oracle --------------------------------------------------------


def _mask_diam(d, mask, n):
    idx = [i for i in range(n) if mask >> i & 1]
    return max((d[i, j] for i in idx for j in idx), default=0)


def oracle_min_multiplicity(space, lam, D):
    """Exact minimum multiplicity over covers by diameter-<=D sets.

    Feasibility means every subset of diameter <= lam sits inside one
    member, checked through the maximal such subsets.  Search is
    iterative deepening on the multiplicity bound; within a bound, a
    requirement-driven DFS picks the most constrained requirement and
    tries its candidate supersets, largest first.
    """
    n = len(space.points)
    if n > ORACLE_MAX_POINTS:
        raise TooLarge("oracle is exponential; refuse beyond 9 points", points=n)
    if n == 0:
        raise PreconditionFailed("empty space")
    d = space.d
    diam = {m: _mask_diam(d, m, n) for m in range(1, 1 << n)}

    candidates = [m for m in range(1, 1 << n) if diam[m] <= D]
    if not candidates:
        raise Infeasible("no subset fits the diameter budget", D=D)
    cand_set = set(candidates)
    maximal = {
        m for m in candidates if not any(s in cand_set for s in _strict_supers(m, n))
    }
    candidates.sort(key=lambda m: (m not in maximal, -bin(m).count("1"), m))

    small = [m for m in range(1, 1 << n) if diam[m] <= lam]
    small_set = set(small)
    requirements = [
        m for m in small if not any(s in small_set for s in _strict_supers(m, n))
    ]
    supers = {}
    for req in requirements:
        fits = [c for c in candidates if c & req == req]
        if not fits:
            raise Infeasible(
                "a diameter-lam subset has no container within budget",
                subset=[point_label(space.points[i]) for i in range(n) if req >> i & 1],
                D=D,
            )
        supers[req] = fits
    requirements.sort(key=lambda r: (len(supers[r]), r))

    # the requirements themselves always form a feasible cover
    ub_counts = np.zeros(n, dtype=int)
    for req in requirements:
        for i in range(n):
            ub_counts[i] += req >> i & 1
    upper = int(ub_counts.max())

    nodes = 0

    def dfs(chosen, counts, bound):
        nonlocal nodes
        nodes += 1
        if nodes > ORACLE_NODE_CAP:
            raise TooLarge("oracle search exceeded its node cap", cap=ORACLE_NODE_CAP)
        pending = [r for r in requirements if not any(r & c == r for c in chosen)]
        if not pending:
            return chosen
        req = pending[0]
        for c in supers[req]:
            if c in chosen:
                continue
            if all(counts[i] + (c >> i & 1) <= bound for i in range(n)):
                found = dfs(
                    chosen + [c], [counts[i] + (c >> i & 1) for i in range(n)], bound
                )
                if found is not None:
                    return found
        return None

    for bound in range(1, upper + 1):
        solution = dfs([], [0] * n, bound)
        if solution is not None:
            sets = (np.array(solution)[:, None] >> np.arange(n) & 1).astype(bool)
            witness = Cover(space, sets, meta={"method": "oracle", "lam": lam, "D": D})
            if not witness.exact_lebesgue_at_least(lam):
                raise AuditFailed("oracle witness failed its own containment check")
            return assert_bounds(witness, multiplicity=bound)["multiplicity"], witness
    raise Infeasible("deepening exhausted without a cover", upper=upper)


def _strict_supers(mask, n):
    for i in range(n):
        if not mask >> i & 1:
            yield mask | 1 << i


# -- greedy constructions -----------------------------------------------------


def _lattice_dim(space):
    try:
        return _lattice_coords(space).shape[1]
    except PreconditionFailed:
        return None


def _cover_is_valid(cover, lam, D):
    """Exact feasibility: diameter within budget, every lam-set contained."""
    if cover.max_diameter() > D:
        return False
    if cover.pointwise_lebesgue() >= lam + 1:
        return True
    try:
        return cover.find_uncovered_subset(lam) is None
    except TooLarge:
        return False


def _chain_cover(space, lam, D):
    """Overlapping 1D intervals of length D+1, stepped by D+1-lam."""
    step = D + 1 - lam
    if step <= 0:
        return None
    xs = _lattice_coords(space)[:, 0]
    starts = np.arange(xs.min(), xs.max() + 1, step)[:, None]
    windows = (xs >= starts) & (xs <= starts + D)
    windows = windows[windows.any(axis=1)]
    meta = {"method": "chain", "length": D + 1, "step": step}
    return Cover(space, windows[_drop_nested(windows)], meta=meta)


def _rotated_brick_cover(space, lam, D):
    """Three staggered square families in (x+y, x-y) coordinates.

    The l1 metric becomes the max metric there, so a side-s cell has l1
    diameter s-1, noticeably tighter than a straight brick of the same
    guarantee.  Shift spacing t >= lam+1 lets a small set cross at most
    one family's boundary per coordinate.
    """
    x, y = _lattice_coords(space).T
    uv = np.column_stack([x + y, x - y])
    for s in range(3 * (lam + 1), D + 2):
        t = s // 3
        cells = np.concatenate([_keyed_rows((uv + j * t) // s)[1] for j in range(3)])
        meta = {"method": "rotated_bricks", "side": s, "shift": t}
        cover = Cover(space, cells[_drop_nested(cells)], meta=meta)
        if _cover_is_valid(cover, lam, D):
            return cover
    return None


def greedy_min_multiplicity(space, lam, D, *, ball=None):
    """Best multiplicity over the construction catalog, with a valid witness.

    Every candidate is audited for diameter and exact containment before
    it may win, so the result can never undercut the oracle.  Candidates
    in order: the whole space, singletons (lam = 0), interval chains in
    one dimension, rotated then straight bricks in two and more, and the
    ball cover fallback once 2 lam <= D.  A caller that already holds
    ``ball_cover(space, lam)`` passes it as ``ball``, and its measured
    statistics are reused.
    """
    if ball is not None and (ball.space is not space or ball.meta.get("radius") != lam or len(ball) != len(space)):
        raise PreconditionFailed("ball must be the lam-ball cover of this space", lam=lam)
    candidates = []
    if space.diameter() <= D:
        whole = Cover(space, np.ones((1, len(space)), dtype=bool), ["X"], meta={"method": "whole"})
        return 1, whole
    if lam == 0 and D >= 0:
        single = Cover(space, np.eye(len(space), dtype=bool), meta={"method": "singletons"})
        return 1, single

    dim = _lattice_dim(space)
    if dim == 1:
        chain = _chain_cover(space, lam, D)
        if chain is not None and _cover_is_valid(chain, lam, D):
            candidates.append(chain)
    if dim == 2:
        rotated = _rotated_brick_cover(space, lam, D)
        if rotated is not None:
            candidates.append(rotated)
    if dim is not None and dim >= 2:
        # the Z^l bounds of bricks hold only on lattices: the exact check decides
        bricks = _bricks(space, lam + 1)
        if _cover_is_valid(bricks, lam, D):
            candidates.append(bricks)
    if 2 * lam <= D:
        balls = ball if ball is not None else ball_cover(space, lam)
        if _cover_is_valid(balls, lam, D):
            candidates.append(balls)

    if not candidates:
        raise Infeasible("no catalog construction fits", lam=lam, D=D)
    best = min(enumerate(candidates), key=lambda ic: (ic[1].multiplicity(), ic[0]))[1]
    return best.multiplicity(), best


# -- profiles -----------------------------------------------------------------


def independent_audit(cover):
    """Recompute (multiplicity, Lebesgue surrogate, diameter) from raw masks.

    A point outside a set lies in its complement, so only member rows can
    raise a depth above 0; each set reads just its own rows of ``d``, one
    block (``metric._BLOCK_BYTES``) of whole rows at a time.
    """
    d = cover.space.d
    masks = cover.masks
    n = len(cover.space.points)
    mult = int(masks.sum(axis=0).max())
    depth = np.zeros(n)
    diam = 0.0
    step = block_rows(n * d.itemsize)
    # stands in for the member's own distances, so a row's min is over the rest
    top = np.iinfo(d.dtype).max
    for row in masks:
        inside = np.flatnonzero(row)
        for start in range(0, len(inside), step):
            chunk = inside[start : start + step]
            block = d[chunk]
            diam = max(diam, float(block.max(axis=0)[inside].max()))
            if len(inside) < n:
                block[:, inside] = top
                dist = block.min(axis=1)
            else:
                dist = INF
            depth[chunk] = np.maximum(depth[chunk], dist)
    return mult, float(depth.min()), diam


def _reaudit(cover, **bounds):
    """``independent_audit``'s multiplicity and diameter, once all three of
    its values have matched the cover's own and ``assert_bounds`` has
    checked ``bounds`` on the cover."""
    independent = independent_audit(cover)
    own = (cover.multiplicity(), cover.pointwise_lebesgue(), cover.max_diameter())
    for name, theirs, ours in zip(("multiplicity", "Lebesgue surrogate", "diameter"), independent, own):
        # the independent diameter is a float and the cover's an int
        if theirs != ours:
            raise AuditFailed(f"independent {name} disagrees with the cover's", independent=theirs, cover=ours)
    assert_bounds(cover, **bounds)
    return independent[0], independent[2]


@dataclass
class DimensionProfile:
    group: str
    kind: str                 # "growth" or "gromov"
    policy: str               # reported D policy or multiplicity cap, never implicit
    rows: list = field(default_factory=list)

    def add_row(self, lam, diam_budget, multiplicity, method, envelope, margin, witness=None):
        self.rows.append(
            {
                "lambda": lam,
                "diam_budget": diam_budget,
                "multiplicity": multiplicity,
                "method": method,
                "theoretical_envelope": envelope,
                "boundary_margin": margin,
                "witness": witness,
            }
        )

    def best(self):
        out = {}
        for row in self.rows:
            key = (row["lambda"], row["diam_budget"])
            if key not in out or row["multiplicity"] < out[key]:
                out[key] = row["multiplicity"]
        return out

    def assert_monotone(self):
        """Best multiplicity: non-increasing in D, non-decreasing in lambda."""
        best = self.best()
        for (lam_a, d_a), m_a in best.items():
            for (lam_b, d_b), m_b in best.items():
                if lam_a == lam_b and d_a < d_b and m_a < m_b:
                    raise AuditFailed(
                        "multiplicity increased with a looser diameter budget",
                        at=(lam_a, d_a, d_b),
                    )
                if d_a == d_b and lam_a < lam_b and m_a > m_b:
                    raise AuditFailed(
                        "multiplicity dropped as lambda grew", at=(d_a, lam_a, lam_b)
                    )

    def ordered_rows(self):
        return sorted(self.rows, key=lambda r: (r["lambda"], str(r["diam_budget"]), r["method"]))

    def to_csv(self):
        return csv_text(
            CSV_HEADER,
            [
                (
                    self.group,
                    r["lambda"],
                    r["diam_budget"],
                    r["multiplicity"],
                    r["method"],
                    "" if r["theoretical_envelope"] is None else r["theoretical_envelope"],
                    r["boundary_margin"],
                )
                for r in self.ordered_rows()
            ],
        )

    def to_json(self):
        return {"group": self.group, "kind": self.kind, "policy": self.policy, "rows": self.ordered_rows()}


def growth_curve(token, lam_schedule, diam_policy, ball_radius, *, ball_cap=None) -> DimensionProfile:
    """Multiplicity per lambda under an explicit diameter policy D(lambda).

    diam_policy is an ascending coefficient list; it is recorded in the
    profile because no default is meaningful.  Methods: the ball cover
    with its exact max-ball-size envelope, the greedy catalog, the
    oracle when the window is tiny, and the wreath pipeline on wreath
    tokens.  Every witness is re-audited from scratch, and its row is
    emitted only when its diameter meets D(lambda).
    """
    spec = group_from_token(token)
    if spec.factors is not None:
        split = extension_split(spec, ball_radius, ball_cap=ball_cap)
        space = split.window
    else:
        space = ball_space(spec, ball_radius, cap=ball_cap)
    profile = DimensionProfile(
        token, "growth", "D=" + ",".join(str(c) for c in diam_policy)
    )
    margin = space.boundary_margin()
    for lam in sorted(lam_schedule):
        D = eval_polynomial(diam_policy, lam)
        rows_at = []

        ball = ball_cover(space, lam)
        if ball.max_diameter() <= D:
            envelope = int(ball.masks.sum(axis=1).max())
            mult, _ = _reaudit(ball, multiplicity=envelope)
            profile.add_row(lam, D, mult, "ball", envelope, margin, "ball")
            rows_at.append(mult)

        try:
            _, g_cover = greedy_min_multiplicity(space, lam, D, ball=ball)
        except Infeasible:
            g_cover = None
        if g_cover is not None:
            mult, _ = _reaudit(g_cover, diameter=D)
            profile.add_row(lam, D, mult, "greedy", None, margin, g_cover.meta.get("method"))
            rows_at.append(mult)

        if len(space) <= ORACLE_MAX_POINTS:
            try:
                o_mult, o_cover = oracle_min_multiplicity(space, lam, D)
            except Infeasible:
                o_cover = None
            if o_cover is not None:
                _reaudit(o_cover, diameter=D)
                profile.add_row(lam, D, o_mult, "oracle", None, margin, "oracle")
                if any(m < o_mult for m in rows_at):
                    raise AuditFailed(
                        "a heuristic beat the exhaustive oracle", lam=lam, D=D
                    )

        if spec.factors is not None:
            w_cover, stats = wreath_cover(split, lam)
            mult, diam = _reaudit(w_cover)
            if diam <= D:
                profile.add_row(
                    lam, D, mult, "construction", stats["envelope"],
                    w_cover.meta["safe_margin"], "wreath",
                )

    profile.assert_monotone()
    return profile


def gromov_profile(token, cap, lam_schedule, ball_radius, *, ball_cap=None) -> DimensionProfile:
    """Achieved cover diameter per lambda under a multiplicity cap.

    Rows carry the achieved diameter in the diam_budget column (it is
    the budget these witnesses meet).  For lattices the curve is
    asserted linear in lambda; a declared extension (the Heisenberg group
    over Z^2) goes through the quotient-kernel cover with the whole
    kernel as one set, retrying once with a boundary margin past the
    deepest uncovered point.
    """
    spec = group_from_token(token)
    profile = DimensionProfile(token, "gromov", f"cap={cap}")

    if spec.lattice_rank is not None:
        l = spec.lattice_rank
        if cap < min(2, l + 1):
            raise Infeasible("multiplicity cap below the construction family", cap=cap)
        space = ball_space(spec, ball_radius, cap=ball_cap)
        for lam in sorted(lam_schedule):
            cover = _lattice_gromov_cover(space, l, lam, cap)
            # the linear envelope binds from lambda 1 on
            linear = 4 * l * (l + 1) * lam if lam >= 1 else None
            mult, diam = _reaudit(cover, multiplicity=cap, diameter=linear)
            profile.add_row(
                lam, int(diam), mult, cover.meta.get("method", "construction"),
                4 * l * (l + 1) * max(lam, 1), space.boundary_margin(),
                cover.meta.get("method"),
            )
        profile.assert_monotone()
        return profile

    if spec.extension is not None:
        if cap < 6:
            raise Infeasible("extension needs multiplicity budget 6", cap=cap)
        split = extension_split(spec, ball_radius, ball_cap=ball_cap)
        window, kernel = split.window, split.kernel
        V = Cover(kernel, np.ones((1, len(kernel)), dtype=bool), ["Z"], meta={"method": "whole_window"})
        for lam in sorted(lam_schedule):
            if lam == 0:
                profile.add_row(0, 0, 1, "singletons", None, window.boundary_margin())
                continue
            U, R = split.quotient_cover(lam)
            cover = None
            try:
                cover = extension_cover(split, U, V, lam, R, safe_margin=lam)
            except WindowTooSmall as err:
                if "requested_margin" not in err.context:
                    raise
                # the sets do not depend on the margin, so one step past the
                # deepest miss makes every safe point a covered one
                margin = int(err.context["margin"]) + 1
            if cover is None:
                # outside the handler, so the failed attempt's frames are freed
                cover = extension_cover(split, U, V, lam, R, safe_margin=margin)
            mult, diam = _reaudit(cover, multiplicity=cap)
            profile.add_row(
                lam, int(diam), mult, "construction", None, cover.meta["safe_margin"], "extension"
            )
        profile.assert_monotone()
        return profile

    raise Infeasible("no construction family for this group", token=token)


def _lattice_gromov_cover(space, l, lam, cap):
    if lam == 0:
        return Cover(space, np.eye(len(space), dtype=bool), meta={"method": "singletons"})
    if l == 1:
        cover = _chain_cover(space, lam, 2 * lam - 1)
        if cover is None or not _cover_is_valid(cover, lam, 2 * lam - 1):
            raise Infeasible("chain construction failed", lam=lam)
        return cover
    if l == 2 and cap >= 3:
        rotated = _rotated_brick_cover(space, lam, 3 * (lam + 1))
        if rotated is not None:
            return rotated
    if cap < l + 1:
        raise Infeasible("bricks need multiplicity l+1", l=l, cap=cap)
    return brick_cover_zl(space, lam + 1)
