"""Covers of finite metric spaces and their audited statistics.

The three numbers attached to a cover are multiplicity, the pointwise
Lebesgue surrogate, and member diameter.  The surrogate
``min_x max_U d(x, X setminus U)`` is what every construction is audited
against; an exhaustive subset oracle (`exact_lebesgue_at_least`) validates
it on spaces small enough to enumerate.
"""

from __future__ import annotations

import functools

import numpy as np

from ..errors import (
    AuditFailed,
    DegenerateDenominator,
    NotCovering,
    NotCoveringAfterShrink,
    NotDisjoint,
    NotIrreducible,
    PreconditionFailed,
    TooLarge,
)
from ..metric import INF, FiniteMetricSpace, point_label, row_blocks, _tolerance


class Cover:
    """An indexed family of nonempty subsets of a finite metric space.

    Duplicate sets are allowed and counted separately (ball covers rely on
    this: multiplicity at an interior point must equal the ball size).
    ``require_total=False`` admits partial covers; constructions on window
    truncations use it and report the uncovered fringe instead of hiding it.
    ``sets`` is either a sequence of point lists or a boolean matrix with
    one row per set and one column per point; the matrix is kept, not
    copied.
    """

    def __init__(self, space: FiniteMetricSpace, sets, labels=None, *, require_total=True, meta=None):
        self.space = space
        n = len(space.points)
        if isinstance(sets, np.ndarray):
            if sets.dtype != bool or sets.ndim != 2 or sets.shape[1] != n:
                raise PreconditionFailed("cover masks must be a boolean sets x points matrix", shape=sets.shape)
            masks = sets
            empty = np.flatnonzero(~masks.any(axis=1))
            if empty.size:
                raise PreconditionFailed("cover contains an empty set", index=int(empty[0]))
        else:
            masks = np.zeros((len(sets), n), dtype=bool)
            for i, members in enumerate(sets):
                idx = space.indices(list(members))
                if idx.size == 0:
                    raise PreconditionFailed("cover contains an empty set", index=i)
                masks[i, idx] = True
        self.masks = masks
        self.labels = list(labels) if labels is not None else [f"U{i}" for i in range(len(masks))]
        if len(self.labels) != len(masks):
            raise PreconditionFailed("label count mismatch")
        self.meta = dict(meta) if meta else {}
        self._comp = None
        self._diam = None
        if require_total and len(masks) and not self.covered_mask().all():
            missing = np.flatnonzero(~self.covered_mask())[0]
            raise NotCovering("sets do not cover the space", witness=point_label(space.points[missing]))

    def __len__(self):
        return self.masks.shape[0]

    def subfamily(self, kept, *, meta=None) -> "Cover":
        """The members ``kept``, in that order, as a cover of the same space.

        They are the same sets, so whatever of their complement distances
        and diameters this cover has measured carries over row for row.
        """
        kept = np.asarray(kept, dtype=np.intp)
        sub = Cover(self.space, self.masks[kept], [self.labels[i] for i in kept], meta=meta)
        if self._comp is not None:
            sub._comp = self._comp[kept]
        if self._diam is not None:
            sub._diam = tuple(self._diam[i] for i in kept)
        return sub

    def sets(self):
        return [tuple(p for p, m in zip(self.space.points, row) if m) for row in self.masks]

    def set_points(self, i):
        return [p for p, m in zip(self.space.points, self.masks[i]) if m]

    def covered_mask(self):
        return self.masks.any(axis=0)

    def counts(self):
        return self.masks.sum(axis=0)

    def multiplicity(self) -> int:
        return int(self.counts().max()) if len(self) else 0

    def complement_distances(self):
        """Row i holds d(x, X minus U_i) for every point x (0 off U_i);
        inf rows mark sets equal to the whole space."""
        if self._comp is None:
            d = self.space.d
            top = np.iinfo(d.dtype).max if np.issubdtype(d.dtype, np.integer) else INF
            comp = np.zeros(self.masks.shape)
            for i, row in enumerate(self.masks):
                outside = np.flatnonzero(~row)
                if outside.size == 0:
                    comp[i] = INF
                    continue
                inside = np.flatnonzero(row)
                # read whole rows of the smaller side; d is audited symmetric
                if inside.size <= outside.size:
                    mins = []
                    for block in row_blocks(d, inside):
                        # the member's own columns can no longer win the min
                        block[:, inside] = top
                        mins.append(block.min(axis=1))
                    comp[i, inside] = np.concatenate(mins)
                else:
                    mins = (block.min(axis=0) for block in row_blocks(d, outside))
                    comp[i, inside] = functools.reduce(np.minimum, mins)[inside]
            self._comp = comp
        return self._comp

    def depth(self):
        """Per point: the best complement distance over all members."""
        if not len(self):
            return np.zeros(len(self.space.points))
        return self.complement_distances().max(axis=0)

    def pointwise_lebesgue(self, point_mask=None):
        depth = self.depth()
        if point_mask is not None:
            depth = depth[point_mask]
        if depth.size == 0:
            return INF
        value = depth.min()
        return int(value) if np.issubdtype(self.space.d.dtype, np.integer) and np.isfinite(value) else float(value)

    def diameters(self):
        if self._diam is None:
            diam = []
            for idx in map(np.flatnonzero, self.masks):
                # each column's largest entry over the member's rows, read at its columns
                most = functools.reduce(np.maximum, (block.max(axis=0) for block in row_blocks(self.space.d, idx)))
                diam.append(most[idx].max().item())
            self._diam = tuple(diam)
        return self._diam

    def max_diameter(self):
        return max(self.diameters()) if len(self) else 0

    # -- exhaustive Lebesgue oracle -----------------------------------------

    def find_uncovered_subset(self, lam, cap=500_000):
        """A subset of diameter <= lam contained in no member, or None.

        Depth-first search over anchored cliques of the <=lam proximity
        graph.  Containment is tracked as a bitmask over members; a branch
        dies as soon as even the union of all remaining candidates cannot
        empty it.
        """
        n = len(self.space.points)
        packed = np.packbits(self.masks.T, axis=1, bitorder="little")
        point_bits = [int.from_bytes(row.tobytes(), "little") for row in packed]
        near = self.space.d <= lam + _tolerance(self.space.d)
        neighbours = [set(np.flatnonzero(row).tolist()) for row in near]
        nodes = 0

        def dfs(chosen, mask, candidates):
            nonlocal nodes
            nodes += 1
            if nodes > cap:
                raise TooLarge("subset enumeration exceeded cap", cap=cap, lam=lam)
            if mask == 0:
                return chosen
            remaining = mask
            for c in candidates:
                remaining &= point_bits[c]
            if remaining:
                return None
            for k, c in enumerate(candidates):
                narrowed = [c2 for c2 in candidates[k + 1 :] if c2 in neighbours[c]]
                hit = dfs(chosen + [c], mask & point_bits[c], narrowed)
                if hit is not None:
                    return hit
            return None

        for x in range(n):
            cand = (np.flatnonzero(near[x, x + 1 :]) + x + 1).tolist()
            hit = dfs([x], point_bits[x], cand)
            if hit is not None:
                return tuple(self.space.points[i] for i in hit)
        return None

    def exact_lebesgue_at_least(self, lam, cap=500_000) -> bool:
        return self.find_uncovered_subset(lam, cap=cap) is None

    def exact_lebesgue_number(self, cap=500_000):
        """Largest integer lam passing the subset oracle; inf when the whole
        space fits in one member, -1 when even singletons fail (not total)."""
        if not np.issubdtype(self.space.d.dtype, np.integer):
            raise PreconditionFailed("exact Lebesgue sweep needs an integer metric")
        lam = -1
        top = int(self.space.diameter())
        while lam < top:
            if not self.exact_lebesgue_at_least(lam + 1, cap=cap):
                return lam
            lam += 1
        return INF

    # -- reporting -----------------------------------------------------------

    def boundary_margin(self):
        margins = self.space.margins()
        if margins.size == 0:
            return INF
        m = margins.min()
        return float(m) if np.isfinite(m) else INF

    def stats(self):
        return {
            "multiplicity": self.multiplicity(),
            "lebesgue_pointwise": self.pointwise_lebesgue(),
            "diameter": self.max_diameter(),
            "boundary_margin": self.boundary_margin(),
        }

    def to_json(self):
        out = {
            "sets": [[point_label(p) for p in self.set_points(i)] for i in range(len(self))],
            "labels": self.labels,
            "stats": self.stats(),
        }
        if "method" in self.meta:
            out["method"] = self.meta["method"]
        return out


# -- constructions ------------------------------------------------------------


def ball_cover(space: FiniteMetricSpace, lam) -> Cover:
    """Closed lam-balls around every point."""
    if lam < 0:
        raise PreconditionFailed("ball cover needs lam >= 0", lam=lam)
    tol = _tolerance(space.d)
    labels = [f"B{lam}({point_label(c)})" for c in space.points]
    return Cover(space, space.d <= lam + tol, labels, meta={"method": "ball", "radius": lam})


def families_to_cover(space: FiniteMetricSpace, families, r, lam) -> Cover:
    """Union of r-disjoint families, each member grown by lam.

    The growth keeps members of one family pairwise disjoint exactly when
    r > 2*lam, which caps the multiplicity at the family count; both that
    and the Lebesgue guarantee are rechecked on the window, not assumed.
    """
    if not r > 2 * lam:
        raise PreconditionFailed("need r > 2*lam for disjointness to survive growth", r=r, lam=lam)
    members = [[space.indices(list(s)) for s in family] for family in families]
    for fi, family in enumerate(members):
        for si, idx in enumerate(family):
            if not len(idx):
                raise PreconditionFailed("family member is empty", family=fi, member=si)
    for fi, family in enumerate(members):
        for a in range(len(family)):
            for b in range(a + 1, len(family)):
                gap = space.d[family[a]][:, family[b]].min().item()
                if gap < r:
                    raise NotDisjoint(
                        "family members closer than r",
                        family=fi,
                        pair=(a, b),
                        distance=gap,
                    )
    covered = np.zeros(len(space.points), dtype=bool)
    for family in members:
        for idx in family:
            covered[idx] = True
    if not covered.all():
        missing = np.flatnonzero(~covered)[0]
        raise NotCovering("original families do not cover", witness=point_label(space.points[missing]))

    tol = _tolerance(space.d)
    rows, labels, owner = [], [], []
    for fi, family in enumerate(members):
        for si, idx in enumerate(family):
            rows.append(space.d[:, idx].min(axis=1) <= lam + tol)
            labels.append(f"F{fi}.{si}")
            owner.append(fi)
    masks = np.array(rows, dtype=bool).reshape(len(rows), len(space.points))
    cover = Cover(space, masks, labels, meta={"method": "families", "family": owner, "r": r, "lam": lam})
    if cover.multiplicity() > len(families):
        raise AuditFailed(
            "multiplicity exceeds family count",
            multiplicity=cover.multiplicity(),
            families=len(families),
        )
    measured = cover.pointwise_lebesgue()
    if measured < lam:
        raise AuditFailed("Lebesgue surrogate below lam", measured=measured, lam=lam)
    return cover


class PartitionOfUnity:
    """Row-stochastic-in-columns weight matrix: one row per cover member,
    one column per point, columns summing to one."""

    def __init__(self, space, labels, matrix):
        self.space = space
        self.labels = list(labels)
        self.matrix = matrix


def partition_of_unity(cover: Cover):
    """Distance-to-complement weights plus the measured Lipschitz constant.

    Members equal to the whole space soak up all the weight (their
    complement distance is the inf sentinel); the classical bound
    (2n+3)^2 / Lambda is returned alongside the measured value.
    """
    comp = cover.complement_distances()
    n_points = comp.shape[1]
    phi = np.zeros_like(comp)
    finite = np.isfinite(comp)
    for x in range(n_points):
        col = comp[:, x]
        if not finite[:, x].all():
            rows = np.flatnonzero(~finite[:, x])
            phi[rows, x] = 1.0 / rows.size
            continue
        total = col.sum()
        if total <= 0:
            raise DegenerateDenominator(
                "no member has positive complement distance",
                point=point_label(cover.space.points[x]),
            )
        phi[:, x] = col / total
    sums = phi.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-9:
        raise AuditFailed("partition weights do not sum to 1", worst=float(np.abs(sums - 1.0).max()))

    gram = phi.T @ phi
    sq = np.maximum(np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram, 0.0)
    d = cover.space.d.astype(float)
    off = ~np.eye(n_points, dtype=bool)
    ratios = np.sqrt(sq[off]) / d[off]
    measured = float(ratios.max()) if ratios.size else 0.0

    pou = PartitionOfUnity(cover.space, cover.labels, phi)
    mult = cover.multiplicity()
    lam = cover.pointwise_lebesgue()
    pou.lipschitz_bound = 0.0 if lam == INF else (2 * (mult - 1) + 3) ** 2 / lam
    return pou, measured


def shrink_to_irreducible(cover: Cover, n) -> Cover:
    """Shrink members by n, drop to an irreducible subcover of the cores,
    and return the matching unshrunk members.

    Redundant cores are dropped in one front-to-back pass: dropping a core
    only lowers counts, so a core that owns a point keeps owning it.  Each
    survivor's first private point is recorded in ``meta["injection"]`` for
    downstream re-indexing into l_p.
    """
    comp = cover.complement_distances()
    tol = _tolerance(cover.space.d)
    cores = cover.masks & (comp > n + tol)
    keep = [i for i in range(len(cover)) if cores[i].any()]
    if not keep or not cores[keep].any(axis=0).all():
        uncovered = np.flatnonzero(~cores[keep].any(axis=0)) if keep else range(len(cover.space.points))
        raise NotCoveringAfterShrink(
            "cores no longer cover; Lebesgue surrogate below n+1",
            n=n,
            witness=point_label(cover.space.points[list(uncovered)[0]]),
        )

    kept = []
    counts = cores[keep].sum(axis=0)
    for i in keep:
        if (counts[cores[i]] >= 2).all():
            counts -= cores[i]
        else:
            kept.append(i)

    injection = {}
    for i in kept:
        owned = np.flatnonzero(cores[i] & (counts == 1))
        if owned.size == 0:
            raise NotIrreducible("survivor lost all private points", member=cover.labels[i])
        injection[cover.labels[i]] = cover.space.points[owned[0]]

    result = cover.subfamily(
        kept,
        meta={"method": "shrink_to_irreducible", "shrink": n, "injection": injection},
    )
    if result.multiplicity() > cover.multiplicity():
        raise AuditFailed("subfamily multiplicity grew", before=cover.multiplicity(), after=result.multiplicity())
    measured = result.pointwise_lebesgue()
    if measured < n + 1:
        raise AuditFailed("shrunk-and-kept cover lost its Lebesgue guarantee", measured=measured, n=n)
    return result


def audit_irreducible(cover: Cover):
    counts = cover.counts()
    for i in range(len(cover)):
        if not (cover.masks[i] & (counts == 1)).any():
            raise NotIrreducible("member has no private point", member=cover.labels[i])
    return True


# -- lattice constructions -----------------------------------------------------


def _keyed_rows(keys):
    """The distinct rows of the integer array ``keys``, in sorted order,
    and a mask row for each: the points whose key row it is."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    return uniq, inverse.reshape(-1) == np.arange(len(uniq))[:, None]


def _drop_nested(rows):
    """Indices, in order, of the mask rows nested in no other row; of equal
    rows the first is kept.  On small windows many shifted families
    coincide.  A row that contains another contains its first point, so
    each row is compared only with the kept rows that could hold it or
    that it could hold."""
    first = rows.argmax(axis=1)
    kept = np.zeros(len(rows), dtype=bool)
    for i, row in enumerate(rows):
        outer = np.flatnonzero(kept & rows[:, first[i]])
        if (rows[outer] >= row).all(axis=1).any():
            continue
        inner = np.flatnonzero(kept & row[first])
        kept[inner[(row >= rows[inner]).all(axis=1)]] = False
        kept[i] = True
    return np.flatnonzero(kept)


def _brick_keys(coords, lam, side, j):
    """Each row's brick in family j of the staggered bricks of side ``side``:
    family j is shifted by 2*j*lam along the diagonal."""
    return (coords - j * 2 * lam) // side


def _lattice_coords(space):
    coords = np.array(space.points)
    if coords.ndim != 2:
        raise PreconditionFailed("expected integer tuple points")
    return coords


def brick_cover_zl(space: FiniteMetricSpace, lam) -> Cover:
    """l+1 shifted brick partitions of a Z^l window.

    Bricks have side 2(l+1)*lam and consecutive families shift by 2*lam
    along the diagonal, so each coordinate axis can spoil at most one
    family for any given point; lam=0 degenerates to the singleton
    partition.  Multiplicity <= l+1 and the Lebesgue bound are audited.
    """
    coords = _lattice_coords(space)
    l = coords.shape[1]
    if lam == 0:
        n = len(space.points)
        labels = [f"pt{point_label(p)}" for p in space.points]
        meta = {"method": "brick", "lam": 0, "families": [0] * n}
        return Cover(space, np.eye(n, dtype=bool), labels, meta=meta)
    side = 2 * (l + 1) * lam
    masks, labels, owner = [], [], []
    for j in range(l + 1):
        keys, rows = _keyed_rows(_brick_keys(coords, lam, side, j))
        masks.append(rows)
        labels += [f"brick{j}." + ",".join(map(str, key)) for key in keys.tolist()]
        owner += [j] * len(keys)
    meta = {"method": "brick", "lam": lam, "side": side, "families": owner}
    cover = Cover(space, np.concatenate(masks), labels, meta=meta)
    if cover.multiplicity() > l + 1:
        raise AuditFailed("brick multiplicity exceeds l+1", multiplicity=cover.multiplicity(), l=l)
    measured = cover.pointwise_lebesgue()
    if measured < lam:
        raise AuditFailed("brick Lebesgue surrogate below lam", measured=measured, lam=lam)
    return cover


def brick_families_zl(space: FiniteMetricSpace, lam):
    """The lam-shrunk brick partitions: (2*lam+1)-disjoint families that
    still jointly cover, ready for `families_to_cover`."""
    if lam < 1:
        raise PreconditionFailed("shrunk brick families need lam >= 1", lam=lam)
    base = brick_cover_zl(space, lam)
    owners = base.meta["families"]
    comp = base.complement_distances()
    tol = _tolerance(space.d)
    n_fam = max(owners) + 1
    families = [[] for _ in range(n_fam)]
    for i in range(len(base)):
        core_mask = base.masks[i] & (comp[i] > lam + tol)
        if core_mask.any():
            families[owners[i]].append([space.points[k] for k in np.flatnonzero(core_mask)])
    return families


def interval_cover_z(space: FiniteMetricSpace, lam) -> Cover:
    """Two staggered block partitions of a Z window (singletons at lam=0).

    Block length 2 suffices at lam=1; beyond that blocks of 4*lam put every
    point at depth >= lam in one of the two partitions.  This is the
    smallest-diameter two-set-per-point pattern the audits accept.
    """
    coords = _lattice_coords(space)
    if coords.shape[1] != 1:
        raise PreconditionFailed("interval cover expects a Z window")
    return coordinate_interval_cover(space, 0, lam)


def coordinate_interval_cover(space: FiniteMetricSpace, axis, lam) -> Cover:
    """Staggered block partitions along one lattice coordinate.

    Useful when the line of interest sits inside a larger window (a
    kernel fiber, say); the Lebesgue audit runs against the space's own
    metric, so the guarantee holds whatever that metric is.
    """
    coords = _lattice_coords(space)
    xs = coords[:, axis]
    if lam == 0:
        b, offsets = 1, [0]
    elif lam == 1:
        b, offsets = 2, [0, 1]
    else:
        b, offsets = 4 * lam, [0, 2 * lam]
    masks, labels = [], []
    for oi, off in enumerate(offsets):
        keys, rows = _keyed_rows(((xs - off) // b)[:, None])
        masks.append(rows)
        labels += [f"I{oi}.{key}" for key in keys[:, 0].tolist()]
    cover = Cover(space, np.concatenate(masks), labels, meta={"method": "interval", "lam": lam, "block": b})
    measured = cover.pointwise_lebesgue()
    if measured < lam:
        raise AuditFailed("interval cover below requested Lebesgue", measured=measured, lam=lam)
    if cover.multiplicity() > len(offsets):
        raise AuditFailed("interval cover multiplicity too high", multiplicity=cover.multiplicity())
    return cover
