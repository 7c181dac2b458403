"""Cover statistics, the Lebesgue surrogate and oracle, and the basic
constructions (balls, families, partitions of unity, shrinking, bricks)."""

import random
import tracemalloc

import numpy as np
import pytest

from coarsekit.errors import (
    AuditFailed,
    DegenerateDenominator,
    NotCovering,
    NotCoveringAfterShrink,
    NotDisjoint,
    NotIrreducible,
    PreconditionFailed,
)
from coarsekit.covers import (
    Cover,
    assert_bounds,
    ball_cover,
    brick_cover_zl,
    coordinate_interval_cover,
    families_to_cover,
    interval_cover_z,
    partition_of_unity,
    shrink_to_irreducible,
)
from coarsekit.groups import ball_space, free_spec, heisenberg_spec, zn_spec
from coarsekit.metric import INF, FiniteMetricSpace, lp_distance
from oracles import audit_irreducible, exact_lebesgue_number, masks_of, sets_of


def z_segment(n):
    pts = list(range(n))
    d = np.abs(np.subtract.outer(pts, pts))
    return FiniteMetricSpace(pts, d)


def two_interval_cover():
    space = z_segment(10)
    return Cover(space, masks_of(space, [list(range(6)), list(range(4, 10))]), ["A", "B"])


def test_cover_statistics_on_two_intervals():
    cover = two_interval_cover()
    assert cover.multiplicity() == 2
    # attained at x=4: max(d(4, {6..9}), d(4, {0..3})) = 2
    assert cover.pointwise_lebesgue() == 2
    assert cover.max_diameter() == 5


def test_assert_bounds_returns_only_the_statistics_it_was_given():
    cover = two_interval_cover()
    assert assert_bounds(cover) == {}
    assert assert_bounds(cover, multiplicity=2) == {"multiplicity": 2}
    assert assert_bounds(cover, diameter=5, lebesgue=2) == {"diameter": 5, "lebesgue": 2}


@pytest.mark.parametrize(
    "bounds, statistic, measured",
    [({"multiplicity": 1}, "multiplicity", 2), ({"diameter": 4}, "diameter", 5), ({"lebesgue": 3}, "lebesgue", 2)],
)
def test_assert_bounds_names_the_statistic_on_the_wrong_side(bounds, statistic, measured):
    cover = two_interval_cover()
    cover.meta["method"] = "intervals"
    with pytest.raises(AuditFailed) as err:
        assert_bounds(cover, **bounds)
    assert err.value.context == {
        "statistic": statistic, "method": "intervals", "measured": measured, "bound": bounds[statistic],
    }


def test_assert_bounds_reads_the_lebesgue_surrogate_over_points():
    cover = two_interval_cover()  # depth 2 at x = 4 and 5, 6 at the ends
    ends = np.isin(cover.space.points, [0, 9])
    assert assert_bounds(cover, lebesgue=6, points=ends) == {"lebesgue": 6}
    with pytest.raises(AuditFailed) as err:
        assert_bounds(cover, lebesgue=6)
    assert err.value.context["measured"] == 2


def test_multiplicity_of_singleton_partition():
    space = z_segment(6)
    cover = Cover(space, masks_of(space, [[p] for p in space.points]))
    assert cover.multiplicity() == 1
    assert cover.pointwise_lebesgue() == 1  # interior complement distance


def test_whole_space_member_gives_infinite_surrogate():
    space = z_segment(6)
    cover = Cover(space, masks_of(space, [list(space.points)]))
    assert cover.pointwise_lebesgue() == INF
    assert cover.exact_lebesgue_at_least(5)


def test_exact_lebesgue_oracle_on_two_intervals():
    cover = two_interval_cover()
    assert cover.exact_lebesgue_at_least(2)
    assert not cover.exact_lebesgue_at_least(4)
    witness = cover.find_uncovered_subset(4)
    assert witness is not None
    idx = [cover.space.index(p) for p in witness]
    assert cover.space.d[np.ix_(idx, idx)].max() <= 4
    for row in cover.masks:
        assert not all(row[i] for i in idx)
    # the documented witness {2..6} really fits in neither member
    assert exact_lebesgue_number(cover) == 2


def test_cover_requires_totality_and_nonempty_sets():
    space = z_segment(4)
    with pytest.raises(NotCovering) as err:
        Cover(space, masks_of(space, [[0, 1], [1]]))
    assert err.value.context == {"witness": "2"}
    for require_total in (True, False):
        with pytest.raises(PreconditionFailed) as err:
            Cover(space, masks_of(space, [[0, 1], [], [2, 3]]), require_total=require_total)
        assert str(err.value) == "cover contains an empty set"
        assert err.value.context == {"index": 1}
    # a point list is not a mask matrix, and neither is a matrix of the wrong width
    for sets, shape in (([[0, 1], [2, 3]], None), (np.ones((2, 3), dtype=bool), (2, 3))):
        with pytest.raises(PreconditionFailed) as err:
            Cover(space, sets)
        assert err.value.context == {"shape": shape}
    partial = Cover(space, masks_of(space, [[0, 1]]), require_total=False)
    assert list(partial.covered_mask()) == [True, True, False, False]


def test_a_cover_without_members_covers_only_the_empty_space():
    space = ball_space(zn_spec(1), 3)
    with pytest.raises(NotCovering) as err:
        Cover(space, np.zeros((0, len(space)), dtype=bool))
    assert err.value.context == {"witness": "(0)"}
    assert Cover(space, np.zeros((0, len(space)), dtype=bool), require_total=False).multiplicity() == 0
    empty = FiniteMetricSpace([], np.zeros((0, 0), dtype=np.int8))
    assert len(Cover(empty, np.zeros((0, 0), dtype=bool))) == 0


def test_subfamily_inherits_the_rows_a_fresh_cover_measures():
    space = ball_space(zn_spec(2), 4)
    cover = ball_cover(space, 2)
    cover.complement_distances()
    cover.diameters()
    # every ball but the unit's, backwards: still a cover, in a new order
    kept = list(range(len(cover) - 1, 0, -1))
    sub = cover.subfamily(kept)
    # measured before anything is asked of the subfamily
    assert sub._comp is not None and sub._diam is not None
    sets = sets_of(cover)
    fresh = Cover(space, masks_of(space, [sets[i] for i in kept]), [cover.labels[i] for i in kept])
    assert np.array_equal(sub.masks, fresh.masks)
    assert sub.labels == fresh.labels
    assert np.array_equal(sub.complement_distances(), fresh.complement_distances())
    assert np.array_equal(np.array(sub.diameters()), np.array(fresh.diameters()))


def test_shrink_keeps_the_measured_rows_of_its_survivors():
    space = ball_space(zn_spec(2), 5)
    cover = ball_cover(space, 4)
    shrunk = shrink_to_irreducible(cover, 2)
    fresh = Cover(space, masks_of(space, sets_of(shrunk)))
    assert np.array_equal(shrunk.complement_distances(), fresh.complement_distances())
    assert np.array_equal(np.array(shrunk.diameters()), np.array(fresh.diameters()))


def test_ball_cover_on_z_window():
    space = ball_space(zn_spec(1), 8)
    cover = ball_cover(space, 2)
    assert cover.multiplicity() == 5  # |B_2(x)| at interior points
    assert cover.pointwise_lebesgue() >= 2
    singletons = ball_cover(space, 0)
    assert singletons.multiplicity() == 1


def test_ball_cover_on_free_window():
    space = ball_space(free_spec(2), 4)
    cover = ball_cover(space, 1)
    assert cover.multiplicity() <= 5  # |B_1| = 5 in F_2
    assert cover.pointwise_lebesgue() >= 1


def test_families_to_cover_blocks():
    space = z_segment(12)
    even = [[0, 1], [4, 5], [8, 9]]
    odd = [[2, 3], [6, 7], [10, 11]]
    cover = families_to_cover(space, [masks_of(space, even), masks_of(space, odd)], 3, 1)
    assert cover.multiplicity() <= 2
    assert cover.pointwise_lebesgue() >= 1


def test_families_to_cover_identity_growth():
    # lam=0 leaves the sets alone, so the cover is the family itself
    space = z_segment(9)
    family = [[p] for p in space.points]
    cover = families_to_cover(space, [masks_of(space, family)], 1, 0)
    assert len(cover) == 9
    assert cover.multiplicity() == 1


def test_families_to_cover_audits():
    space = z_segment(12)
    touching = [[0, 1], [3, 4], [8, 9]]  # gap 2 < r needed
    rest = [[2], [5, 6, 7], [10, 11]]
    families = [masks_of(space, touching), masks_of(space, rest)]
    with pytest.raises(NotDisjoint) as err:
        families_to_cover(space, families, 3, 1)
    assert err.value.context["distance"] == 2
    with pytest.raises(PreconditionFailed):
        families_to_cover(space, families, 2, 1)  # r must exceed 2*lam
    sparse = [[0], [11]]
    with pytest.raises(NotCovering):
        families_to_cover(space, [masks_of(space, sparse)], 3, 1)


def test_families_to_cover_refuses_an_empty_member():
    space = ball_space(zn_spec(1), 4)
    points = list(space.points)
    with pytest.raises(PreconditionFailed) as err:
        families_to_cover(space, [masks_of(space, [[(0,)], []]), masks_of(space, [points])], 3, 1)
    assert err.value.context == {"family": 0, "member": 1}


def test_partition_of_unity_formula_values():
    space = z_segment(4)
    cover = Cover(space, masks_of(space, [[0, 1, 2], [1, 2, 3]]))
    pou, measured = partition_of_unity(cover)
    assert np.allclose(pou.matrix[:, 0], [1.0, 0.0])
    assert np.allclose(pou.matrix[:, 1], [2 / 3, 1 / 3])
    assert measured <= pou.lipschitz_bound + 1e-9
    assert abs(lp_distance(pou.matrix[:, 1], 0.0, 1) - 1.0) < 1e-12


def test_partition_of_unity_whole_space_and_degenerate():
    space = z_segment(5)
    whole = Cover(space, masks_of(space, [list(space.points)]))
    pou, measured = partition_of_unity(whole)
    assert measured == 0.0
    assert np.allclose(pou.matrix, 1.0)
    partial = Cover(space, masks_of(space, [[0, 1]]), require_total=False)
    # uncovered points have zero distance to every complement
    with pytest.raises(DegenerateDenominator):
        partition_of_unity(partial)


def test_partition_of_unity_ball_cover_bound():
    space = ball_space(zn_spec(1), 12)
    cover = ball_cover(space, 4)
    pou, measured = partition_of_unity(cover)
    n_plus_1 = cover.multiplicity()
    assert n_plus_1 == 9
    bound = (2 * (n_plus_1 - 1) + 3) ** 2 / cover.pointwise_lebesgue()
    assert measured <= bound + 1e-9
    assert pou.lipschitz_bound == bound


def test_partition_of_unity_refuses_a_measured_value_above_its_bound():
    space = ball_space(zn_spec(1), 12)
    cover = ball_cover(space, 4)
    measured = partition_of_unity(cover)[1]
    # a depth claimed far above the real one shrinks the bound below the measurement
    cover.pointwise_lebesgue = lambda point_mask=None: 10**6
    with pytest.raises(AuditFailed) as err:
        partition_of_unity(cover)
    assert err.value.context == {"measured": measured, "bound": 19**2 / 10**6}  # multiplicity 9


def test_partition_of_unity_holds_phi_and_one_block():
    cover = ball_cover(ball_space(zn_spec(2), 20), 4)  # 841 points and members
    cover.complement_distances()
    tracemalloc.start()
    try:
        pou, _ = partition_of_unity(cover)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # phi, its integer weights and one block: no points x points float temporary
    assert peak < 2 * pou.matrix.nbytes


def test_shrink_to_irreducible_ball_cover():
    space = ball_space(zn_spec(1), 12)
    cover = ball_cover(space, 4)
    n = 3
    shrunk = shrink_to_irreducible(cover, n)
    assert shrunk.multiplicity() <= cover.multiplicity()
    assert shrunk.pointwise_lebesgue() >= n + 1
    private = shrunk.meta["private"]
    assert len(private) == len(shrunk)
    assert len(set(private.tolist())) == len(private)
    for i, idx in enumerate(private):
        assert shrunk.masks[i][idx]
        # deep inside its own member, outside every other core
        margins = shrunk.complement_distances()[:, idx]
        assert margins[i] > n
        assert all(m <= n for j, m in enumerate(margins) if j != i)


def test_shrinking_a_ball_cover_holds_no_float_points_by_points_copy():
    # one float64 points x points array on 841 points takes 841^2 * 8 bytes
    space = ball_space(zn_spec(2), 20)
    tracemalloc.start()
    try:
        shrink_to_irreducible(ball_cover(space, 4), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(space) ** 2 * 8


def test_ball_window_complement_distances_keep_the_window_type():
    for space in (ball_space(zn_spec(2), 6), ball_space(heisenberg_spec(), 3)):
        assert ball_cover(space, 2).complement_distances().dtype == space.d.dtype


def test_a_distance_at_the_type_maximum_is_no_whole_space_mark():
    space = FiniteMetricSpace([0, 1], np.array([[0, 127], [127, 0]], dtype=np.int8))
    assert Cover(space, np.eye(2, dtype=bool)).pointwise_lebesgue() == 127


def test_shrink_keeps_a_whole_space_member_whole_beyond_the_type_maximum():
    cover = ball_cover(ball_space(zn_spec(1), 5), 400)
    shrunk = shrink_to_irreducible(cover, 200)
    assert len(shrunk) == 1 and shrunk.masks.all()
    assert shrunk.pointwise_lebesgue() == INF


def test_audit_irreducible_detects_redundancy():
    cover = two_interval_cover()
    assert audit_irreducible(cover)
    space = z_segment(10)
    padded = Cover(space, masks_of(space, [list(range(6)), list(range(4, 10)), [3, 4, 5, 6]]))
    with pytest.raises(NotIrreducible):
        audit_irreducible(padded)


def test_shrink_drops_duplicate_member():
    space = z_segment(6)
    cover = Cover(space, masks_of(space, [[0, 1, 2], [0, 1, 2], [2, 3, 4, 5]]))
    result = shrink_to_irreducible(cover, 0)
    assert len(result) == 2
    assert audit_irreducible(result)


def test_shrink_rejects_thin_covers():
    cover = two_interval_cover()  # surrogate 2
    with pytest.raises(NotCoveringAfterShrink) as err:
        shrink_to_irreducible(cover, 4)
    # the cores are {0, 1} and {8, 9}: the first point left out is named
    assert err.value.context == {"n": 4, "witness": "2"}
    with pytest.raises(NotCoveringAfterShrink) as err:
        shrink_to_irreducible(cover, 10)
    assert err.value.context == {"n": 10, "witness": "0"}


def test_brick_cover_interval_case():
    space = ball_space(zn_spec(1), 10)
    cover = brick_cover_zl(space, 2)
    assert cover.multiplicity() == 2
    assert cover.pointwise_lebesgue() >= 2


def test_brick_cover_plane_case():
    space = ball_space(zn_spec(2), 6)
    cover = brick_cover_zl(space, 1)
    assert cover.multiplicity() <= 3
    assert cover.pointwise_lebesgue() >= 1
    partition = brick_cover_zl(space, 0)
    assert partition.multiplicity() == 1


def test_interval_cover_variants():
    space = ball_space(zn_spec(1), 9)
    for lam in (0, 1, 3):
        cover = interval_cover_z(space, lam)
        assert cover.pointwise_lebesgue() >= lam
        assert cover.multiplicity() <= 2
    plane = ball_space(zn_spec(2), 4)
    line = plane.subspace([i for i, p in enumerate(plane.points) if p[0] == 0])
    axis_cover = coordinate_interval_cover(line, 1, 1)
    assert axis_cover.pointwise_lebesgue() >= 1
    assert axis_cover.multiplicity() <= 2


def random_interval_cover(rng, space):
    n = len(space.points)
    sets = []
    while True:
        sets = []
        covered = set()
        for _ in range(rng.randint(2, 5)):
            a = rng.randrange(n)
            b = min(n, a + rng.randint(1, n))
            sets.append(list(range(a, b)))
            covered.update(range(a, b))
        if covered == set(range(n)):
            return Cover(space, masks_of(space, sets))


def test_surrogate_soundness_exhaustive_small_spaces():
    # Lambda >= lam+1 forces the exact subset property at lam; checked on
    # every sampled cover of every segment length up to 14
    rng = random.Random(2)
    for n in range(4, 15):
        space = z_segment(n)
        for _ in range(40):
            cover = random_interval_cover(rng, space)
            surrogate = cover.pointwise_lebesgue()
            if surrogate == INF:
                top = space.diameter()
            else:
                top = int(surrogate) - 1
            for lam in range(0, min(top, space.diameter()) + 1):
                assert cover.exact_lebesgue_at_least(lam), (n, lam, sets_of(cover))


def test_surrogate_never_exceeds_exact_plus_one():
    # the exact number can exceed the surrogate, never trail it by more
    # than the strict-vs-closed gap
    cover = two_interval_cover()
    exact = exact_lebesgue_number(cover)
    assert exact >= cover.pointwise_lebesgue() - 1
