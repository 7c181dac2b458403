"""Unit families with controlled variation, exponent conversions, and the
coarse embedding built from them."""

import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from coarsekit.errors import (
    AuditFailed,
    LebesgueTooSmall,
    NotIrreducible,
    PreconditionFailed,
    SubsequenceUnavailable,
)
from coarsekit.covers import Cover, ball_cover, shrink_to_irreducible
from coarsekit.groups import ball_space, zn_spec
from coarsekit import metric, property_a
from coarsekit.metric import INF, FiniteMetricSpace, lp_distance, point_label
from coarsekit.property_a import (
    PropertyAFamily,
    _audit_pairs,
    a_infinity_family,
    certificate,
    coarse_embedding,
    convert_down_to_1,
    convert_up,
    family_from_covers,
    holder_conversion_gap,
    power_conversion_gap,
    variation_report,
)
from oracles import dist, indices, masks_of, ref_variation


def test_tent_values_on_the_line():
    space = ball_space(zn_spec(1), 5)
    family = a_infinity_family(space, [2])
    at = space.index
    vec = family.levels[2][at((0,))]
    assert vec[at((0,))] == 1.0
    assert vec[at((1,))] == 0.5
    assert vec[at((-1,))] == 0.5
    assert vec[at((2,))] == 0.0  # the tent hits zero
    for i in range(len(space)):
        assert family.levels[2][i, i] == 1.0


def test_tent_variation_meets_closed_bound():
    space = ball_space(zn_spec(1), 8)
    family = a_infinity_family(space, [2, 4, 8])
    report = variation_report(family, [1, 2])
    for K in (1, 2):
        for n in (2, 4, 8):
            assert report.bounds[K][n] == K / n
            assert report.measured[K][n] <= K / n + 1e-12
        assert report.decay[K]
        assert report.strides[K] == 1
    assert report.ok()


def test_tent_levels_start_at_one():
    space = ball_space(zn_spec(1), 3)
    with pytest.raises(PreconditionFailed):
        a_infinity_family(space, [0, 2])


def test_finite_p_tents_are_renormalized():
    space = ball_space(zn_spec(1), 5)
    family = a_infinity_family(space, [2], p=1)
    at = space.index
    vec = family.levels[2][at((0,))]
    assert abs(vec[at((0,))] - 0.5) < 1e-12
    assert abs(vec[at((1,))] - 0.25) < 1e-12
    assert family.variation_bound(2, 1) is None  # measured use only


def test_family_from_covers_variation_bound():
    space = ball_space(zn_spec(1), 20)
    covers = {n: shrink_to_irreducible(ball_cover(space, 2 * n), n) for n in (2, 4)}
    for p in (1, 2):
        family = family_from_covers(covers, p)
        report = variation_report(family, [1, 2])
        for K in (1, 2):
            for n in (2, 4):
                m = family.meta["multiplicity"][n]
                assert report.bounds[K][n] == 8.0 * K * m ** (1.0 / p) / n
                assert report.measured[K][n] <= report.bounds[K][n] + 1e-9
        cert = certificate(family, report)
        assert cert["audit"]["pass"]
        assert cert["audit"]["failures"] == []


def test_family_from_covers_rejects_thin_cover():
    space = ball_space(zn_spec(1), 10)
    with pytest.raises(LebesgueTooSmall):
        family_from_covers({2: ball_cover(space, 1)}, 2)


def test_family_from_covers_needs_private_points():
    space = ball_space(zn_spec(1), 6)
    pts = list(space.points)
    redundant = Cover(space, masks_of(space, [pts[:9], pts[4:], pts[3:7]]))
    with pytest.raises(NotIrreducible):
        family_from_covers({0: redundant}, 2)


def test_family_from_covers_levels_start_at_one():
    # the cover bound 8K m^(1/p)/n divides by the level
    space = ball_space(zn_spec(1), 8)
    cover = shrink_to_irreducible(ball_cover(space, 0), 0)
    with pytest.raises(PreconditionFailed) as err:
        family_from_covers({0: cover}, 2)
    assert err.value.context == {"level": 0}


def test_variation_report_strides_past_the_pair_cap(monkeypatch):
    space = ball_space(zn_spec(2), 6)
    family = a_infinity_family(space, [2, 3])
    exact = variation_report(family, [1, 2])
    assert exact.strides == {1: 1, 2: 1}
    monkeypatch.setattr(property_a, "PAIR_CAP", 50)
    sampled = variation_report(family, [1, 2])
    assert sampled.strides == {1: 3, 2: 9}
    assert certificate(family, sampled)["strides"] == {"1": 3, "2": 9}
    for K in (1, 2):
        for n in (2, 3):
            assert sampled.measured[K][n] <= exact.measured[K][n]


def test_whole_window_cover_gives_constant_family():
    space = ball_space(zn_spec(1), 6)
    whole = Cover(space, masks_of(space, [list(space.points)]))
    family = family_from_covers({2: whole}, 2)
    report = variation_report(family, [1, 3])
    assert report.measured[1][2] == 0.0
    assert report.measured[3][2] == 0.0


def test_power_conversion_example():
    # coordinates a, b
    u = np.array([1.0, 0.0])
    v = np.array([0.5, 0.5])
    up = v**0.5
    assert abs(up[0] - 1 / math.sqrt(2)) < 1e-12
    assert abs(lp_distance(up, 0.0, 2) - 1.0) < 1e-12
    lhs, rhs = power_conversion_gap(u, v, 1, 2)
    assert lhs <= rhs + 1e-12


def test_holder_conversion_example():
    s = 1 / math.sqrt(2)
    # coordinates a, b, c
    u = np.array([s, s, 0.0])
    v = np.array([0.0, s, s])
    lhs, rhs = holder_conversion_gap(u, v, 2)
    assert abs(lhs - 1.0) < 1e-12
    assert abs(rhs - 2.0 * math.sqrt(2.0)) < 1e-12


def random_unit_vector(rng, p, coords=6):
    vec = np.zeros(coords)
    for c in range(coords):
        if rng.random() < 0.6:
            vec[c] = rng.random()
    if not vec.any():
        vec[0] = 1.0
    return vec * (1.0 / lp_distance(vec, 0.0, p))


def test_conversion_inequalities_random_scan():
    rng = random.Random(11)
    for p, m in ((1, 2), (2, 4), (3, 3)):
        for _ in range(200):
            u = random_unit_vector(rng, p)
            v = random_unit_vector(rng, p)
            lhs, rhs = power_conversion_gap(u, v, p, m)
            assert lhs <= rhs + 1e-9
    for p in (2, 3):
        for _ in range(200):
            u = random_unit_vector(rng, p)
            v = random_unit_vector(rng, p)
            lhs, rhs = holder_conversion_gap(u, v, p)
            assert lhs <= rhs + 1e-9


def test_convert_up_family():
    space = ball_space(zn_spec(1), 8)
    family = a_infinity_family(space, [2, 4], p=1)
    raised = convert_up(family, 2)
    assert raised.p == 2.0
    for row in raised.levels[2]:
        assert abs(lp_distance(row, 0.0, 2) - 1.0) < 1e-9
    with pytest.raises(PreconditionFailed):
        convert_up(raised, 1)  # cannot lower this way


def test_convert_down_to_1_family():
    space = ball_space(zn_spec(1), 8)
    family = a_infinity_family(space, [2, 4], p=2)
    dropped = convert_down_to_1(family)
    assert dropped.p == 1.0
    for row in dropped.levels[4]:
        assert abs(lp_distance(row, 0.0, 1) - 1.0) < 1e-9
    with pytest.raises(PreconditionFailed):
        convert_down_to_1(a_infinity_family(space, [2]))  # p = inf


def test_converted_bound_tracks_the_inequality():
    space = ball_space(zn_spec(1), 16)
    covers = {4: shrink_to_irreducible(ball_cover(space, 8), 4)}
    family = family_from_covers(covers, 2)
    dropped = convert_down_to_1(family)
    base = family.variation_bound(4, 1)
    assert dropped.variation_bound(4, 1) == pytest.approx(math.sqrt(2.0) * 2 * base)
    report = variation_report(dropped, [1])
    assert report.within_bounds[1]


def test_family_audit_rejects_bad_vectors():
    space = ball_space(zn_spec(1), 3)
    family = a_infinity_family(space, [2])
    broken = {n: rows.copy() for n, rows in family.levels.items()}
    zero = space.index((0,))
    broken[2][zero] = 0.0
    broken[2][zero, zero] = 0.5
    with pytest.raises(AuditFailed):
        PropertyAFamily(space, INF, broken, family.columns, family.support_radius)


def test_support_audit_names_the_private_point_of_the_column():
    space = ball_space(zn_spec(1), 10)
    family = family_from_covers({2: shrink_to_irreducible(ball_cover(space, 4), 2)}, 2)
    columns, radius = family.columns[2], family.support_radius[2]
    row = space.index((10,))
    # the last member whose private point lies beyond the support radius
    k = int(np.flatnonzero(space.d[row, columns] > radius)[-1])
    assert space.d[row, columns[k]] > radius and columns[k] != k
    broken = family.levels[2].copy()
    broken[row] = 0.0
    broken[row, k] = 1.0  # still unit and nonnegative
    with pytest.raises(AuditFailed) as err:
        PropertyAFamily(space, 2, {2: broken}, family.columns, family.support_radius)
    assert str(err.value) == "support leaves the declared ball"
    assert err.value.context == {
        "level": 2, "point": "(10)", "offender": point_label(space.points[columns[k]]), "radius": radius,
    }


def test_tent_support_audit_names_the_first_offender_of_the_first_row():
    space = ball_space(zn_spec(2), 4)
    family = a_infinity_family(space, [3], 2)
    assert family.columns[3].tolist() == list(range(len(space)))  # read as a view
    broken = family.levels[3].copy()
    # two offenders in the row of (1, 0), one in the later row of (0, 2)
    assert space.index((1, 0)) < space.index((0, 2))
    for owner, far in (((1, 0), [(-2, 1), (-3, 0)]), ((0, 2), [(0, -2)])):
        row = space.index(owner)
        broken[row] = 0.0
        broken[row, indices(space, far)] = len(far) ** -0.5  # still unit and nonnegative
    with pytest.raises(AuditFailed) as err:
        PropertyAFamily(space, 2, {3: broken}, family.columns, family.support_radius)
    assert str(err.value) == "support leaves the declared ball"
    # the first offending row in window order, and its offender of least column
    assert err.value.context == {"level": 3, "point": "(1,0)", "offender": "(-3,0)", "radius": 3}


def test_cover_levels_hold_one_column_per_member():
    # no level is a dense points x points array: on 841 points one such
    # float64 level alone takes 841^2 * 8 bytes, about 5.66 MB
    space = ball_space(zn_spec(2), 20)
    covers = {n: shrink_to_irreducible(ball_cover(space, 2 * n), n) for n in range(2, 6)}
    for cover in covers.values():
        cover.complement_distances()
    tracemalloc.start()
    try:
        family = family_from_covers(covers, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < len(space) ** 2 * 8
    for n, cover in covers.items():
        assert family.levels[n].shape == (len(space), len(cover))
        assert family.columns[n].tolist() == cover.meta["private"].tolist()


def test_coarse_embedding_on_the_line():
    space = ball_space(zn_spec(1), 30)
    family = a_infinity_family(space, [3, 7, 15], p=2)
    result = coarse_embedding(family, (0,), 3)
    assert lp_distance(result.vectors[space.index((0,))], 0.0, 2) == 0.0
    picked = [e["level"] for e in result.selected]
    assert picked == sorted(picked)
    assert result.support_radii == sorted(result.support_radii)
    assert result.audit["pass"]
    assert result.audit["pairs_checked"] > 0
    assert result.rho_upper(4) == pytest.approx(9.0 ** 0.5)
    assert result.S(7) == 2
    body = result.to_json()
    assert set(body) == {"p", "base_point", "selected", "support_radii", "safe_margin", "audit"}


def test_coarse_embedding_band_holds_at_p1():
    # l_1 variation decays slower than l_2, so the levels sit further out
    space = ball_space(zn_spec(1), 36)
    family = a_infinity_family(space, [5, 30], p=1)
    result = coarse_embedding(family, (0,), 2)
    margins = space.margins()
    base = space.index((0,))
    for i, z in enumerate(space.points):
        if margins[i] < result.safe_margin or z == (0,):
            continue
        t = dist(space, z, (0,))
        gap = lp_distance(result.vectors[i], result.vectors[base], 1)
        assert result.rho_lower(t) - 1e-9 <= gap <= result.rho_upper(t) + 1e-9


def test_coarse_embedding_runs_out_of_levels():
    space = ball_space(zn_spec(1), 12)
    family = a_infinity_family(space, [3, 5], p=2)
    with pytest.raises(SubsequenceUnavailable) as err:
        coarse_embedding(family, (0,), 4)
    # the reference selection: each slot takes the first remaining level
    # under its threshold, and the first slot with none names the payload
    order, cursor, slot = sorted(family.levels), 0, 1
    while True:
        powers = [ref_variation(space, family.levels[n], slot, 2) ** 2 for n in order[cursor:]]
        hit = next((i for i, v in enumerate(powers) if v < 2.0 ** -slot), None)
        if hit is None:
            break
        cursor, slot = cursor + hit + 1, slot + 1
    context = err.value.context
    assert context["threshold"] == 2.0 ** -slot <= 0.25
    assert context["slot"] == slot
    assert context["best"] == pytest.approx(min(powers, default=INF), rel=1e-12)


def test_coarse_embedding_rejects_bad_inputs():
    space = ball_space(zn_spec(1), 8)
    family = a_infinity_family(space, [2, 4], p=2)
    with pytest.raises(PreconditionFailed):
        coarse_embedding(a_infinity_family(space, [2, 4]), (0,), 1)  # p = inf
    with pytest.raises(PreconditionFailed):
        coarse_embedding(family, (99,), 1)
    with pytest.raises(PreconditionFailed):
        coarse_embedding(family, (0,), 0)


def spaced_line(count, gap):
    """Points on a line, gap apart: no pair sits within a small K."""
    coords = [gap * i for i in range(count)]
    return FiniteMetricSpace([(c,) for c in coords], np.abs(np.subtract.outer(coords, coords)))


def test_tampered_entry_is_named_by_both_audits():
    # levels 2 and 3 stay below the spacing, so every row is an indicator
    # and the slot selection sees no pairs; one large entry in the row of
    # (10,) then breaks unit norm and the displacement band
    space = spaced_line(6, 5)
    family = a_infinity_family(space, [2, 3], p=2)
    family.levels[2][space.index((10,)), space.index((20,))] = 5.0
    with pytest.raises(AuditFailed) as err:
        PropertyAFamily(space, 2, family.levels, family.columns, family.support_radius)
    assert err.value.context["level"] == 2
    assert err.value.context["point"] == "(10)"
    with pytest.raises(AuditFailed) as err:
        coarse_embedding(family, (0,), 2)
    # (0,)-(5,) passes; (0,)-(10,) is the first failure in upper-triangle order
    assert err.value.context["pair"] == ("(0)", "(10)")
    assert err.value.context["distance"] == 10


def test_scans_do_not_depend_on_chunk_size(monkeypatch):
    space = ball_space(zn_spec(1), 30)
    family = a_infinity_family(space, [3, 7, 15], p=2)

    def scan():
        report = variation_report(family, [1, 2])
        result = coarse_embedding(family, (0,), 3)
        convert_down_to_1(family)
        return report.measured, result.audit, result.displacement

    whole = scan()
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 1)  # one pair per chunk
    assert scan() == whole


def triangle_pairs(n, limit=400):
    """Every stride-th row of the stacked upper-triangle index pairs."""
    i, j = np.triu_indices(n, k=1)
    stride = max(1, len(i) // limit)
    return np.column_stack((i[::stride], j[::stride]))


def test_audit_pairs_match_the_triangle_construction():
    for n in range(2, 81):
        pairs = _audit_pairs(SimpleNamespace(points=range(n)))
        assert pairs.tolist() == triangle_pairs(n).tolist()


def test_audit_pairs_on_the_zn2_r40_window():
    # 3,281 points: 5,380,840 pairs, of which 401 are kept
    pairs = _audit_pairs(SimpleNamespace(points=range(3281)))
    assert len(pairs) == 401
    assert pairs.tolist() == triangle_pairs(3281).tolist()
