"""Helpers that tests compare the package against and that no command runs.

pytest collects no test from this module; test files import it by name.
"""

import numpy as np

from coarsekit.errors import DegenerateDenominator, NotIrreducible, PreconditionFailed
from coarsekit.groups import WreathElement, ball_elements, free_spec
from coarsekit.metric import INF, point_label


def dist(space, x, y):
    """The distance between the points x and y of ``space``, as an int."""
    return space.d[space.index(x), space.index(y)].item()


def indices(space, points):
    """The window indices of ``points`` in ``space``, in their order."""
    return np.array([space.index(p) for p in points], dtype=np.intp)


def masks_of(space, sets):
    """The boolean sets x points matrix of a list of point lists, for
    covers written out by hand."""
    masks = np.zeros((len(sets), len(space)), dtype=bool)
    for row, members in zip(masks, sets):
        row[indices(space, members)] = True
    return masks


def sets_of(cover):
    """Each member of ``cover`` as a tuple of its points, in window order."""
    return [tuple(cover.space.points[i] for i in np.flatnonzero(row)) for row in cover.masks]


# -- function families ----------------------------------------------------------


def ref_norm(u, p):
    if p == INF:
        return max((abs(x) for x in u), default=0.0)
    return sum(abs(x) ** p for x in u) ** (1.0 / p)


def ref_dist(u, v, p):
    return ref_norm([a - b for a, b in zip(u, v)], p)


def ref_pairs(space, K=None):
    n = len(space.points)
    return [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if K is None or space.d[i, j] <= K
    ]


def ref_variation(space, rows, K, p):
    return max((ref_dist(rows[i], rows[j], p) for i, j in ref_pairs(space, K)), default=0.0)


# -- covers ---------------------------------------------------------------------


def exact_lebesgue_number(cover, cap=500_000):
    """Largest integer lam passing the subset oracle; inf when the whole
    space fits in one member, -1 when even singletons fail (not total)."""
    lam = -1
    top = int(cover.space.diameter())
    while lam < top:
        if cover.find_uncovered_subset(lam + 1, cap=cap) is not None:
            return lam
        lam += 1
    return INF


def ref_partition_of_unity(cover):
    """(phi, measured) by the dense formula: the weights one point at a
    time, the Lipschitz constant off the whole points x points Gram matrix
    of phi and a float copy of the distances."""
    comp = cover.complement_distances()
    n_points = comp.shape[1]
    phi = np.zeros(comp.shape)
    whole = comp == np.iinfo(comp.dtype).max
    for x in range(n_points):
        col = comp[:, x]
        if whole[:, x].any():
            rows = np.flatnonzero(whole[:, x])
            phi[rows, x] = 1.0 / rows.size
            continue
        total = col.sum()
        if total <= 0:
            raise DegenerateDenominator(
                "no member has positive complement distance",
                point=point_label(cover.space.points[x]),
            )
        phi[:, x] = col / total
    gram = phi.T @ phi
    sq = np.maximum(np.diag(gram)[:, None] + np.diag(gram)[None, :] - 2 * gram, 0.0)
    d = cover.space.d.astype(float)
    off = ~np.eye(n_points, dtype=bool)
    ratios = np.sqrt(sq[off]) / d[off]
    return phi, float(ratios.max()) if ratios.size else 0.0


def ref_close_pair(space, families, r):
    """(family, (a, b), distance) for the first pair of members a < b of one
    family, in (family, a, b) order, whose least distance is below r, by
    one gather per pair; None when every family is r-disjoint.  Families
    are boolean members x points matrices with nonempty rows."""
    for fi, family in enumerate(families):
        members = [np.flatnonzero(row) for row in family]
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                gap = space.d[members[a]][:, members[b]].min().item()
                if gap < r:
                    return fi, (a, b), gap
    return None


def audit_irreducible(cover):
    counts = cover.counts()
    for i in range(len(cover)):
        if not (cover.masks[i] & (counts == 1)).any():
            raise NotIrreducible("member has no private point", member=cover.labels[i])
    return True


# -- wreath products ---------------------------------------------------------------


class NotInKernel(PreconditionFailed):
    pass


def wreath_element(config_dict, head, lamp_unit) -> WreathElement:
    cleaned = {k: v for k, v in config_dict.items() if v != lamp_unit}
    return WreathElement(tuple(sorted(cleaned.items())), head)


def project_pi_A(w: WreathElement, positions, base_unit=(0,)):
    """Restrict a kernel element's lamps to the position set A."""
    if w.head != base_unit:
        raise NotInKernel("projection is defined on the kernel only", head=str(w.head))
    allowed = set(positions)
    cfg = tuple((k, v) for k, v in w.config if k in allowed)
    return WreathElement(cfg, w.head)


# -- free groups ------------------------------------------------------------------


def free_ball_cover_audit(k: int, lam: int, radius: int):
    """Ball-cover statistics on a free-group window, one shell at a time.

    The Cayley graph of the free group is the 2k-regular tree and its
    automorphisms act transitively on spheres, so |B_lam(y) ∩ B_radius(e)|
    depends on ||y|| only.  That makes the multiplicity of the ball cover
    computable from one representative per shell without materializing
    the window (radius 12 on two generators already exceeds 10^6 points).
    """
    spec = free_spec(k)
    small = ball_elements(spec, lam + 1)
    inner = [u for u in small if len(u) <= lam]
    sphere = [u for u in small if len(u) == lam + 1]
    shells = []
    mult = interior_mult = 0
    min_depth = INF
    for s in range(radius + 1):
        y = (1,) * s
        count = sum(1 for u in inner if len(spec.multiply(y, u)) <= radius)
        # nearest window point outside B_lam(y); unreachable means infinite depth
        escape = any(len(spec.multiply(y, u)) <= radius for u in sphere)
        depth = lam + 1 if escape else INF
        shells.append({"norm": s, "multiplicity": count, "depth": depth})
        mult = max(mult, count)
        if s + lam <= radius:
            interior_mult = max(interior_mult, count)
        min_depth = min(min_depth, depth)
    return {
        "group": spec.name,
        "lam": lam,
        "radius": radius,
        "ball_size": len(inner),
        "multiplicity": mult,
        "interior_multiplicity": interior_mult,
        "lebesgue_pointwise": min_depth,
        "shells": shells,
    }
