"""Normalized function families with controlled variation, and what they buy.

Three constructions live here: families read off from cover sequences
(distance-to-complement coordinates indexed by private points), the tent
family that every discrete space carries, and exponent conversions in
both directions.  On top of them sits a coarse embedding built by greedy
subsequence selection, with both displacement bounds audited pairwise on
the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AuditFailed,
    LebesgueTooSmall,
    NotIrreducible,
    PreconditionFailed,
    SubsequenceUnavailable,
)
from .metric import INF, FiniteMetricSpace, block_rows, lp_distance, point_label, _tolerance

CERT_TOL = 1e-9
PAIR_CAP = 20_000_000


class PropertyAFamily:
    """For each level n, a unit nonnegative l_p vector a^n_z per point z.

    ``levels[n]`` is one float array of shape (points, points): row i is
    a^n_z for z = ``space.points[i]``, and column j is the coordinate
    carried by ``space.points[j]``.  Construction invariants are re-checked
    on every instantiation: unit norm within 1e-9, nonnegative entries,
    and support inside the closed ball of the declared radius around the
    owning point.
    """

    def __init__(self, space, p, levels, support_radius, bound_fn=None, meta=None):
        self.space = space
        self.p = p if p == INF else float(p)
        self.levels = levels
        self.support_radius = dict(support_radius)
        self._bound_fn = bound_fn
        self.meta = meta or {}
        self._audit()

    def schedule(self):
        return sorted(self.levels)

    def variation_bound(self, n, K):
        return None if self._bound_fn is None else self._bound_fn(n, K)

    def _audit(self):
        """Every row of every level, one block of rows at a time."""
        d = self.space.d
        tol = _tolerance(d)
        for n, rows in self.levels.items():
            radius = self.support_radius[n]
            step = block_rows(rows.shape[1] * rows.itemsize)
            for start in range(0, len(rows), step):
                block = rows[start : start + step]
                not_unit = np.abs(lp_distance(block, 0.0, self.p) - 1.0) > CERT_TOL
                negative = ~(block >= 0).all(axis=1)
                outside = (block != 0) & (d[start : start + step] > radius + tol)
                bad = not_unit | negative | outside.any(axis=1)
                if not bad.any():
                    continue
                k = int(np.argmax(bad))
                z = point_label(self.space.points[start + k])
                if not_unit[k]:
                    raise AuditFailed("family vector is not unit", level=n, point=z)
                if negative[k]:
                    raise AuditFailed("family vector has a negative entry", level=n, point=z)
                raise AuditFailed(
                    "support leaves the declared ball",
                    level=n,
                    point=z,
                    offender=point_label(self.space.points[int(np.argmax(outside[k]))]),
                    radius=radius,
                )


def _normalize(rows, p):
    """Scale every row of rows to unit l_p norm, in place, one block of
    rows at a time."""
    step = block_rows(rows.shape[1] * rows.itemsize)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        block *= (1.0 / lp_distance(block, 0.0, p))[:, None]
    return rows


def _private_injection(cover):
    """Set label -> private point, from shrink metadata or recomputed."""
    stored = cover.meta.get("injection")
    if stored is not None:
        return {label: point for label, point in stored.items()}
    counts = cover.counts()
    injection = {}
    for j in range(len(cover)):
        alone = cover.masks[j] & (counts == 1)
        if not alone.any():
            raise NotIrreducible("cover member has no private point", label=cover.labels[j])
        injection[cover.labels[j]] = cover.space.points[int(np.flatnonzero(alone)[0])]
    return injection


def family_from_covers(covers, p) -> PropertyAFamily:
    """Distance-to-complement coordinates, one per cover member, normalized.

    covers maps level n to a Cover whose surrogate Lebesgue number is at
    least n+1.  Coordinates are indexed by each member's private point so
    the family lands in l_p over the space itself.
    """
    some = next(iter(covers.values()))
    space = some.space
    levels, radii, mults = {}, {}, {}
    for n, cover in sorted(covers.items()):
        if cover.space is not space:
            raise PreconditionFailed("covers live on different spaces")
        lam = cover.pointwise_lebesgue()
        if lam < n + 1:
            raise LebesgueTooSmall("cover surrogate below n+1", level=n, measured=lam)
        injection = _private_injection(cover)
        anchors = space.indices([injection[label] for label in cover.labels])
        comp = cover.complement_distances()
        # a member equal to the whole window has infinite depth; any shared
        # finite stand-in keeps the coordinate 1-Lipschitz
        comp = np.where(np.isinf(comp), float(space.diameter() + 1), comp)
        rows = np.zeros((len(space), len(space)))
        rows[:, anchors] = comp.T
        levels[n] = _normalize(rows, p)
        radii[n] = cover.max_diameter()
        mults[n] = cover.multiplicity()

    low = min(levels)
    if low < 1:  # the bound divides by the level
        raise PreconditionFailed("levels start at 1", level=low)

    def bound(n, K):
        return 8.0 * K * mults[n] ** (1.0 / p) / n

    return PropertyAFamily(
        space,
        p,
        levels,
        radii,
        bound_fn=bound,
        meta={"construction": "covers", "multiplicity": mults},
    )


def a_infinity_family(space, schedule, p=INF) -> PropertyAFamily:
    """Tent functions a^n_z(x) = max(1 - d(x,z)/n, 0), support radius n.

    At p = infinity the tents are already normalized and the variation is
    bounded by K/n.  For finite p each tent is renormalized; no closed
    bound is attached then, the family is meant for measured use.
    """
    levels = {}
    for n in schedule:
        if n < 1:
            raise PreconditionFailed("tent levels start at 1", level=n)
        rows = np.maximum(1.0 - space.d / n, 0.0)
        levels[int(n)] = rows if p == INF else _normalize(rows, p)
    bound = (lambda n, K: K / n) if p == INF else None
    return PropertyAFamily(
        space,
        p,
        levels,
        {int(n): int(n) for n in schedule},
        bound_fn=bound,
        meta={"construction": "tents"},
    )


# -- exponent conversions -----------------------------------------------------


def power_conversion_gap(u, v, p, m):
    """(lhs, rhs) of ||u^{p/m} - v^{p/m}||_m^m <= ||u - v||_p^p, per row."""
    e = p / m
    lhs = lp_distance(u**e, v**e, m) ** m
    rhs = lp_distance(u, v, p) ** p
    return lhs, rhs


def holder_conversion_gap(u, v, p):
    """(lhs, rhs) of ||u^p - v^p||_1 <= 2^{1/q} p ||u - v||_p, 1/p + 1/q = 1, per row."""
    q = p / (p - 1.0)
    lhs = lp_distance(u**p, v**p, 1)
    rhs = 2.0 ** (1.0 / q) * p * lp_distance(u, v, p)
    return lhs, rhs


def _chunks(idx, rows):
    """Consecutive runs of the index pairs idx, sized so that the rows
    gathered for either side fit one block."""
    step = block_rows(rows.shape[1] * rows.itemsize)
    for start in range(0, len(idx), step):
        yield idx[start : start + step]


def _audit_pairs(space, limit=400):
    """Every stride-th pair (i, j), i < j, of the row-major upper triangle,
    the stride chosen so about ``limit`` pairs remain.  Pair k is found from
    the end of the order: the last t + 1 rows hold t (t + 1) / 2 pairs, so
    an exact integer root inverts that count."""
    n = len(space.points)
    total = n * (n - 1) // 2
    stride = max(1, total // limit)
    pairs = []
    for k in range(0, total, stride):
        m = total - 1 - k
        t = (math.isqrt(8 * m + 1) - 1) // 2
        pairs.append((n - 2 - t, n - 1 - (m - t * (t + 1) // 2)))
    return np.array(pairs, dtype=np.intp).reshape(-1, 2)


def _audit_conversion(family, gap, message):
    """Check gap(a_z, a_w) -> (lhs, rhs) on the strided pair sample of every level."""
    pts = family.space.points
    pairs = _audit_pairs(family.space)
    for n, rows in family.levels.items():
        for chunk in _chunks(pairs, rows):
            lhs, rhs = gap(rows[chunk[:, 0]], rows[chunk[:, 1]])
            bad = np.flatnonzero(lhs > rhs + CERT_TOL)
            if bad.size:
                k = bad[0]
                i, j = chunk[k]
                raise AuditFailed(
                    message,
                    level=n,
                    pair=(point_label(pts[i]), point_label(pts[j])),
                    lhs=float(lhs[k]),
                    rhs=float(rhs[k]),
                )


def convert_up(family: PropertyAFamily, m) -> PropertyAFamily:
    """Raise the exponent from p to m >= p by the pointwise power p/m."""
    p = family.p
    if p == INF or m < p:
        raise PreconditionFailed("conversion raises a finite exponent", p=p, m=m)
    e = p / m
    levels = {n: rows**e for n, rows in family.levels.items()}
    _audit_conversion(
        family, lambda u, v: power_conversion_gap(u, v, p, m), "power conversion inequality failed"
    )
    old = family.variation_bound
    bound = None if family._bound_fn is None else (lambda n, K: old(n, K) ** e)
    return PropertyAFamily(
        family.space,
        m,
        levels,
        family.support_radius,
        bound_fn=bound,
        meta=dict(family.meta, converted_from=p),
    )


def convert_down_to_1(family: PropertyAFamily) -> PropertyAFamily:
    """Drop to exponent 1 by the pointwise p-th power, p an integer >= 2."""
    p = family.p
    if p == INF or p < 2 or int(p) != p:
        raise PreconditionFailed("downward conversion needs an integer exponent >= 2", p=p)
    q = p / (p - 1.0)
    levels = {n: rows**p for n, rows in family.levels.items()}
    _audit_conversion(
        family, lambda u, v: holder_conversion_gap(u, v, p), "Hoelder conversion inequality failed"
    )
    old = family.variation_bound
    bound = None if family._bound_fn is None else (lambda n, K: 2.0 ** (1.0 / q) * p * old(n, K))
    return PropertyAFamily(
        family.space,
        1,
        levels,
        family.support_radius,
        bound_fn=bound,
        meta=dict(family.meta, converted_from=p),
    )


# -- variation reports --------------------------------------------------------


def _pairs_within(space, K):
    """Upper-triangle index pairs at distance <= K, strided past PAIR_CAP."""
    close = np.triu(space.d <= K + _tolerance(space.d), k=1)
    idx = np.argwhere(close)
    stride = max(1, -(-len(idx) // PAIR_CAP))
    return idx[::stride], stride


def _pair_distances(rows, idx, p):
    """||rows[i] - rows[j]||_p for every index pair (i, j) of idx, in order."""
    out = np.empty(len(idx))
    start = 0
    for chunk in _chunks(idx, rows):
        out[start : start + len(chunk)] = lp_distance(rows[chunk[:, 0]], rows[chunk[:, 1]], p)
        start += len(chunk)
    return out


def _sup_over_pairs(rows, idx, p):
    return float(_pair_distances(rows, idx, p).max(initial=0.0))


@dataclass
class VariationReport:
    p: object
    levels: list
    Ks: list
    measured: dict          # K -> {n: sup}
    bounds: dict            # K -> {n: bound}, absent when no bound is attached
    strides: dict           # K -> sampling stride (1 = exact)
    decay: dict = field(init=False)
    failures: list = field(init=False)        # {K, n, measured, bound} past the bound
    within_bounds: dict = field(init=False)   # K -> no failure; None without bounds

    def __post_init__(self):
        self.decay = {
            K: all(
                self.measured[K][b] <= self.measured[K][a] + CERT_TOL
                for a, b in zip(self.levels, self.levels[1:])
            )
            for K in self.Ks
        }
        self.failures = [
            {"K": K, "n": n, "measured": self.measured[K][n], "bound": self.bounds[K][n]}
            for K in self.Ks
            if K in self.bounds
            for n in self.levels
            if self.measured[K][n] > self.bounds[K][n] + CERT_TOL
        ]
        failed = {f["K"] for f in self.failures}
        self.within_bounds = {K: K not in failed if K in self.bounds else None for K in self.Ks}

    def ok(self):
        return all(self.decay.values()) and not self.failures


def variation_report(family: PropertyAFamily, Ks) -> VariationReport:
    """Exact sup of ||a^n_z - a^n_w||_p over window pairs with d <= K.

    Beyond PAIR_CAP candidate pairs the scan falls back to a deterministic
    stride, recorded per K so a certificate never passes silently on a
    sample it did not declare.
    """
    for K in Ks:
        if K < 1:
            raise PreconditionFailed("displacements start at 1", K=K)
    space = family.space
    levels = family.schedule()
    measured, bounds, strides = {}, {}, {}
    for K in Ks:
        idx, stride = _pairs_within(space, K)
        strides[K] = stride
        measured[K] = {n: _sup_over_pairs(family.levels[n], idx, family.p) for n in levels}
        level_bounds = {n: family.variation_bound(n, K) for n in levels}
        if all(b is not None for b in level_bounds.values()):
            bounds[K] = level_bounds
    return VariationReport(family.p, levels, list(Ks), measured, bounds, strides)


def certificate(family: PropertyAFamily, report: VariationReport) -> dict:
    """The certify-a body, read from the report's fields and keyed by
    displacement K and level n as strings."""

    def per_K(values, each=lambda v: v):
        return {str(K): each(values[K]) for K in report.Ks if K in values}

    def per_level(values):
        return {str(n): values[n] for n in report.levels}

    return {
        "p": report.p,
        "levels": list(report.levels),
        "support_radius": per_level(family.support_radius),
        "variation": per_K(report.measured, per_level),
        "bounds": per_K(report.bounds, per_level),
        "strides": per_K(report.strides),
        "audit": {
            "pass": report.ok(),
            "decay": per_K(report.decay),
            "within_bounds": per_K(report.within_bounds),
            "failures": report.failures,
        },
    }


# -- coarse embedding ---------------------------------------------------------


@dataclass
class EmbeddingResult:
    """A coarse embedding into l_p and the record of its band audit.

    ``vectors`` is one array with a row per point of ``space``: the
    column-stacked differences a^n_z - a^n_{z0} over the selected levels,
    so the base point z0 maps to the zero row.  ``displacement`` maps each
    distance between safe points to the (min, max) displacement the audit
    measured there.
    """

    space: FiniteMetricSpace
    base_point: object
    p: float
    selected: list          # per slot: {"slot": k, "level": n, "variation": sup}
    support_radii: list     # monotonized R over selected slots
    vectors: np.ndarray
    safe_margin: float
    audit: dict
    displacement: dict = field(default_factory=dict, init=False)

    def S(self, t):
        return sum(1 for r in self.support_radii if r <= t)

    def rho_lower(self, t):
        return max(0.0, 2.0 * self.S(t / 2.0) - 2.0) ** (1.0 / self.p)

    def rho_upper(self, t):
        return (2.0 * t + 1.0) ** (1.0 / self.p)

    def to_json(self):
        return {
            "p": self.p,
            "base_point": point_label(self.base_point),
            "selected": self.selected,
            "support_radii": list(self.support_radii),
            "safe_margin": self.safe_margin,
            "audit": self.audit,
        }


def coarse_embedding(family: PropertyAFamily, base_point, budget, *, safe_margin=None) -> EmbeddingResult:
    """Stack level differences a^n_z - a^n_{z0} into one l_p map and audit it.

    Slot k requires a fresh level whose variation over pairs at distance
    <= k stays below 2^{-k} in p-th power; the first such level wins,
    so reruns are reproducible.  Displacement is then trapped between
    (2 S(t/2) - 2)^{1/p} and (2t+1)^{1/p} on every pair of points that
    keeps the largest selected support radius away from the window edge.
    """
    if family.p == INF:
        raise PreconditionFailed("embedding needs a finite exponent")
    if budget < 1:
        raise PreconditionFailed("need at least one slot", budget=budget)
    space = family.space
    if base_point not in space._index:
        raise PreconditionFailed("base point is outside the window", base=point_label(base_point))
    p = family.p
    levels = family.schedule()

    selected = []
    cursor = 0
    for k in range(1, budget + 1):
        threshold = 2.0 ** (-k)
        idx, _ = _pairs_within(space, k)
        found = None
        best = INF
        for pos in range(cursor, len(levels)):
            n = levels[pos]
            sup = _sup_over_pairs(family.levels[n], idx, p)
            best = min(best, sup**p)
            if sup**p < threshold:
                found = (pos, n, sup)
                break
        if found is None:
            raise SubsequenceUnavailable(
                "no remaining level meets the variation threshold",
                slot=k,
                threshold=threshold,
                best=best,
            )
        cursor = found[0] + 1
        selected.append({"slot": k, "level": found[1], "variation": found[2]})

    radii, running = [], 0
    for entry in selected:
        running = max(running, family.support_radius[entry["level"]])
        radii.append(running)

    base = space.index(base_point)
    vectors = np.hstack([family.levels[e["level"]] - family.levels[e["level"]][base] for e in selected])
    if vectors[base].any():
        raise AuditFailed("base point does not map to zero")

    result = EmbeddingResult(
        space,
        base_point,
        p,
        selected,
        radii,
        vectors,
        float(radii[-1] if safe_margin is None else safe_margin),
        audit={},
    )

    safe = np.flatnonzero(space.margins() >= result.safe_margin)
    a, b = np.triu_indices(len(safe), k=1)
    pairs = np.column_stack((safe[a], safe[b]))
    dists, which = np.unique(space.d[pairs[:, 0], pairs[:, 1]], return_inverse=True)
    dists = dists.tolist()
    lo = np.array([result.rho_lower(t) for t in dists])[which]
    hi = np.array([result.rho_upper(t) for t in dists])[which]
    disp = _pair_distances(vectors, pairs, p)
    bad = np.flatnonzero((disp > hi + CERT_TOL) | (disp < lo - CERT_TOL))
    if bad.size:
        first = bad[0]
        zi, wi = pairs[first]
        raise AuditFailed(
            "embedding displacement left the certified band",
            pair=(point_label(space.points[zi]), point_label(space.points[wi])),
            distance=float(dists[which[first]]),
            displacement=float(disp[first]),
            band=(float(lo[first]), float(hi[first])),
        )
    least = np.full(len(dists), INF)
    most = np.full(len(dists), -INF)
    np.minimum.at(least, which, disp)
    np.maximum.at(most, which, disp)
    result.displacement = dict(zip(dists, zip(least.tolist(), most.tolist())))
    result.audit = {
        "pass": True,
        "pairs_checked": len(pairs),
        "safe_points": int(len(safe)),
        "max_upper_slack": float((disp - hi).max(initial=0.0)),
        "max_lower_slack": float((lo - disp).max(initial=0.0)),
    }
    return result
