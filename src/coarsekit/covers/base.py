"""Covers of finite metric spaces and their audited statistics.

The three numbers attached to a cover are multiplicity, the pointwise
Lebesgue surrogate, and member diameter.  The surrogate
``min_x max_U d(x, X setminus U)`` is what every construction is audited
against; an exhaustive subset oracle (`exact_lebesgue_at_least`) validates
it on spaces small enough to enumerate.  Every construction checks the
bounds it promises on these numbers through `assert_bounds`.
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
from ..metric import INF, FiniteMetricSpace, _sum_dtype, blocks, point_label, row_blocks


class Cover:
    """An indexed family of nonempty subsets of a finite metric space.

    Duplicate sets are allowed and counted separately (ball covers rely on
    this: multiplicity at an interior point must equal the ball size).
    ``require_total=False`` admits partial covers; constructions on window
    truncations use it and report the uncovered fringe instead of hiding it.
    ``masks`` is a boolean matrix with one row per set and one column per
    point; it is kept, not copied.
    """

    def __init__(self, space: FiniteMetricSpace, masks, labels=None, *, require_total=True, meta=None):
        self.space = space
        shape = getattr(masks, "shape", None)
        if not (isinstance(masks, np.ndarray) and masks.dtype == bool and len(shape) == 2 and shape[1] == len(space)):
            raise PreconditionFailed("cover masks must be a boolean sets x points matrix", shape=shape)
        empty = np.flatnonzero(~masks.any(axis=1))
        if empty.size:
            raise PreconditionFailed("cover contains an empty set", index=int(empty[0]))
        self.masks = masks
        self.labels = list(labels) if labels is not None else [f"U{i}" for i in range(len(masks))]
        if len(self.labels) != len(masks):
            raise PreconditionFailed("label count mismatch")
        self.meta = dict(meta) if meta else {}
        self._comp = None
        self._diam = None
        if require_total and not self.covered_mask().all():
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

    def covered_mask(self):
        return self.masks.any(axis=0)

    def counts(self):
        return self.masks.sum(axis=0)

    def multiplicity(self) -> int:
        return int(self.counts().max()) if len(self) else 0

    def complement_distances(self):
        """Row i holds d(x, X minus U_i) for every point x (0 off U_i), in
        the signed type ``metric._sum_dtype`` gives d: it holds twice the
        largest distance, so its maximum, ``top``, is no distance and fills
        the rows of members equal to the whole space."""
        if self._comp is None:
            d = self.space.d
            comp = np.zeros(self.masks.shape, dtype=_sum_dtype(d))
            top, stand_in = np.iinfo(comp.dtype).max, np.iinfo(d.dtype).max
            for i, row in enumerate(self.masks):
                outside = np.flatnonzero(~row)
                if outside.size == 0:
                    comp[i] = top
                    continue
                inside = np.flatnonzero(row)
                # read whole rows of the smaller side; d is audited symmetric
                if inside.size <= outside.size:
                    mins = []
                    for block in row_blocks(d, inside):
                        # the member's own columns can no longer win the min
                        block[:, inside] = stand_in
                        mins.append(block.min(axis=1))
                    comp[i, inside] = np.concatenate(mins)
                else:
                    mins = (block.min(axis=0) for block in row_blocks(d, outside))
                    comp[i, inside] = functools.reduce(np.minimum, mins)[inside]
            self._comp = comp
        return self._comp

    def cores(self, t):
        """Each member shrunk by t: its points at complement distance above
        t.  The clamp below ``top`` keeps a whole-space member whole."""
        comp = self.complement_distances()
        return self.masks & (comp > min(t, np.iinfo(comp.dtype).max - 1))

    def depth(self):
        """Per point: the best complement distance over all members, inf
        where a member is the whole space."""
        if not len(self):
            return np.zeros(len(self.space.points))
        comp = self.complement_distances()
        best = comp.max(axis=0)
        return np.where(best == np.iinfo(comp.dtype).max, INF, best)

    def pointwise_lebesgue(self, point_mask=None):
        depth = self.depth()
        if point_mask is not None:
            depth = depth[point_mask]
        if depth.size == 0:
            return INF
        value = depth.min()
        return int(value) if np.isfinite(value) else INF

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
        near = self.space.d <= lam
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

    def exact_lebesgue_at_least(self, lam) -> bool:
        return self.find_uncovered_subset(lam) is None

    # -- reporting -----------------------------------------------------------

    def stats(self):
        return {
            "multiplicity": self.multiplicity(),
            "lebesgue_pointwise": self.pointwise_lebesgue(),
            "diameter": self.max_diameter(),
            "boundary_margin": self.space.boundary_margin(),
        }

    def to_json(self):
        out = {
            "sets": [[point_label(p) for p in members] for members in self.sets()],
            "labels": self.labels,
            "stats": self.stats(),
        }
        if "method" in self.meta:
            out["method"] = self.meta["method"]
        return out


def assert_bounds(cover: Cover, *, multiplicity=None, diameter=None, lebesgue=None, points=None):
    """Measure each statistic given a bound and return the measured values
    by name.  Multiplicity and member diameter must not exceed their
    bounds; the Lebesgue surrogate, read over the boolean mask ``points``
    (every point by default), must reach its bound.  The first statistic
    on the wrong side raises ``AuditFailed`` naming it."""
    measured = {}
    for name, bound, read, upper in (
        ("multiplicity", multiplicity, cover.multiplicity, True),
        ("diameter", diameter, cover.max_diameter, True),
        ("lebesgue", lebesgue, lambda: cover.pointwise_lebesgue(point_mask=points), False),
    ):
        if bound is None:
            continue
        value = measured[name] = read()
        if (value > bound) if upper else (value < bound):
            raise AuditFailed(
                f"{name} {'above' if upper else 'below'} its bound",
                statistic=name,
                method=cover.meta.get("method"),
                measured=value,
                bound=bound,
            )
    return measured


# -- constructions ------------------------------------------------------------


def ball_cover(space: FiniteMetricSpace, lam) -> Cover:
    """Closed lam-balls around every point."""
    if lam < 0:
        raise PreconditionFailed("ball cover needs lam >= 0", lam=lam)
    labels = [f"B{lam}({point_label(c)})" for c in space.points]
    return Cover(space, space.d <= lam, labels, meta={"method": "ball", "radius": lam})


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

    rows, labels, owner = [], [], []
    for fi, family in enumerate(members):
        for si, idx in enumerate(family):
            rows.append(space.d[:, idx].min(axis=1) <= lam)
            labels.append(f"F{fi}.{si}")
            owner.append(fi)
    masks = np.array(rows, dtype=bool).reshape(len(rows), len(space.points))
    cover = Cover(space, masks, labels, meta={"method": "families", "family": owner, "r": r, "lam": lam})
    assert_bounds(cover, multiplicity=len(families), lebesgue=lam)
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
    complement distances read ``top``, the maximum of their integer type);
    the classical bound (2n+3)^2 / Lambda is returned alongside the
    measured value, and a measured value above it raises ``AuditFailed``.
    The constant is measured one block of points at a time, so the pass
    holds ``phi`` plus one block.
    """
    comp = cover.complement_distances()
    whole = comp == np.iinfo(comp.dtype).max
    phi = np.where(whole.any(axis=0), whole, comp).astype(float)
    totals = phi.sum(axis=0)
    empty = np.flatnonzero(totals <= 0)
    if empty.size:
        raise DegenerateDenominator(
            "no member has positive complement distance",
            point=point_label(cover.space.points[empty[0]]),
        )
    phi /= totals
    sums = phi.sum(axis=0)
    if np.abs(sums - 1.0).max() > 1e-9:
        raise AuditFailed("partition weights do not sum to 1", worst=float(np.abs(sums - 1.0).max()))

    # |phi(x) - phi(y)|^2 = |phi(x)|^2 + |phi(y)|^2 - 2 phi(x).phi(y); the
    # members that hold no point x of the block add exact zeros to the products
    d, n_points = cover.space.d, phi.shape[1]
    norms = np.einsum("ij,ij->j", phi, phi)
    measured = 0.0
    for part in blocks(n_points, n_points * phi.itemsize):
        held = phi[cover.masks[:, part].any(axis=1)]
        sq = norms[part, None] + norms - 2 * (held[:, part].T @ held)
        ratios = np.sqrt(np.maximum(sq, 0.0, out=sq), out=sq)
        far = d[part] > 0
        np.divide(ratios, d[part], out=ratios, where=far)
        measured = max(measured, float(ratios.max(initial=0.0, where=far)))

    pou = PartitionOfUnity(cover.space, cover.labels, phi)
    mult = cover.multiplicity()
    lam = cover.pointwise_lebesgue()
    pou.lipschitz_bound = 0.0 if lam == INF else (2 * (mult - 1) + 3) ** 2 / lam
    if measured > pou.lipschitz_bound + 1e-9:
        raise AuditFailed(
            "partition Lipschitz constant exceeds its bound", measured=measured, bound=pou.lipschitz_bound
        )
    return pou, measured


def shrink_to_irreducible(cover: Cover, n) -> Cover:
    """Shrink members by n, drop to an irreducible subcover of the cores,
    and return the matching unshrunk members.

    Redundant cores are dropped in one front-to-back pass: dropping a core
    only lowers counts, so a core that owns a point keeps owning it.  Each
    survivor's first private point is recorded in ``meta["private"]``, one
    window index per member, for downstream re-indexing into l_p.
    """
    cores = cover.cores(n)
    counts = cores.sum(axis=0)
    if not counts.all():
        raise NotCoveringAfterShrink(
            "cores no longer cover; Lebesgue surrogate below n+1",
            n=n,
            witness=point_label(cover.space.points[int(np.argmin(counts))]),
        )

    # an empty core owns no point, so the pass drops it too
    kept = []
    for i, core in enumerate(cores):
        if (counts[core] >= 2).all():
            counts -= core
        else:
            kept.append(i)

    owned = cores[kept] & (counts == 1)
    lost = ~owned.any(axis=1)
    if lost.any():
        raise NotIrreducible("survivor lost all private points", member=cover.labels[kept[int(np.argmax(lost))]])

    result = cover.subfamily(
        kept,
        meta={"method": "shrink_to_irreducible", "shrink": n, "private": owned.argmax(axis=1)},
    )
    assert_bounds(result, multiplicity=cover.multiplicity(), lebesgue=n + 1)
    return result


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
    """The points as an integer points x l array, when they are integer
    tuples of one length l (not the reduced words of a free group)."""
    try:
        coords = np.array(space.points)
    except ValueError:  # tuples of different lengths
        coords = None
    if coords is None or coords.ndim != 2 or coords.dtype.kind not in "iu":
        raise PreconditionFailed("expected integer tuple points")
    return coords


def _bricks(space: FiniteMetricSpace, lam) -> Cover:
    """l+1 shifted brick partitions of points that are integer l-tuples,
    unaudited.

    Bricks have side 2(l+1)*lam and consecutive families shift by 2*lam
    along the diagonal; lam=0 degenerates to the singleton partition.
    ``meta["families"]`` names each member's family.
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
    return Cover(space, np.concatenate(masks), labels, meta=meta)


def brick_cover_zl(space: FiniteMetricSpace, lam) -> Cover:
    """The staggered bricks of a Z^l window.

    Each coordinate axis can spoil at most one family for any given
    point, so multiplicity <= l+1 (the family count) and Lebesgue
    surrogate >= lam hold there; both are audited.
    """
    cover = _bricks(space, lam)
    assert_bounds(cover, multiplicity=max(cover.meta["families"]) + 1, lebesgue=lam)
    return cover


def brick_families_zl(space: FiniteMetricSpace, lam):
    """The lam-shrunk brick partitions: (2*lam+1)-disjoint families that
    still jointly cover, ready for `families_to_cover`."""
    if lam < 1:
        raise PreconditionFailed("shrunk brick families need lam >= 1", lam=lam)
    base = brick_cover_zl(space, lam)
    owners = base.meta["families"]
    families = [[] for _ in range(max(owners) + 1)]
    for owner, core in zip(owners, base.cores(lam)):
        if core.any():
            families[owner].append([space.points[k] for k in np.flatnonzero(core)])
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
    assert_bounds(cover, multiplicity=len(offsets), lebesgue=lam)
    return cover
