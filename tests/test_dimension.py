"""Minimum-multiplicity search (exact and catalog), growth profiles, and
the diameter-under-a-cap profiles."""

import json

import numpy as np
import pytest

from coarsekit import dimension
from coarsekit.errors import AuditFailed, Infeasible, PreconditionFailed, TooLarge
from coarsekit.covers import Cover, ball_cover, extension
from coarsekit.dimension import (
    CSV_HEADER,
    DimensionProfile,
    greedy_min_multiplicity,
    gromov_profile,
    growth_curve,
    independent_audit,
    oracle_min_multiplicity,
)
from coarsekit.groups import ball_space, zn_spec
from coarsekit.metric import FiniteMetricSpace
from oracles import masks_of


def z_window(radius):
    return ball_space(zn_spec(1), radius)


def z_segment_space(n):
    pts = [(k,) for k in range(n)]
    d = np.abs(np.subtract.outer(range(n), range(n)))
    return FiniteMetricSpace(pts, d)


def test_oracle_examples_on_a_short_segment():
    space = z_segment_space(5)
    witness = oracle_min_multiplicity(space, 1, 2)
    assert witness.multiplicity() == 2
    assert witness.exact_lebesgue_at_least(1)
    assert oracle_min_multiplicity(space, 1, 4).multiplicity() == 1  # budget >= diameter
    witness = oracle_min_multiplicity(space, 0, 0)
    assert witness.multiplicity() == 1
    assert len(witness) == 5


def test_oracle_refuses_large_or_impossible_inputs():
    with pytest.raises(TooLarge):
        oracle_min_multiplicity(z_segment_space(10), 1, 2)
    with pytest.raises(Infeasible):
        oracle_min_multiplicity(z_segment_space(5), 2, 1)


def test_greedy_trivial_cases():
    space = z_segment_space(1)
    assert greedy_min_multiplicity(space, 1, 0).multiplicity() == 1
    space = z_segment_space(5)
    assert greedy_min_multiplicity(space, 2, 4).multiplicity() == 1  # whole space fits
    cover = greedy_min_multiplicity(space, 0, 0)
    assert cover.multiplicity() == 1 and len(cover) == 5


def test_greedy_chain_matches_oracle_on_segments():
    for n in (5, 7, 9):
        for lam, D in ((1, 2), (1, 3), (2, 5)):
            space = z_segment_space(n)
            g_cover = greedy_min_multiplicity(space, lam, D)
            g_mult = g_cover.multiplicity()
            assert g_mult == oracle_min_multiplicity(space, lam, D).multiplicity(), (n, lam, D)
            audit_mult, audit_lam, audit_diam = independent_audit(g_cover)
            assert audit_mult == g_mult
            assert audit_diam <= D


def test_greedy_plane_uses_three_colors():
    space = ball_space(zn_spec(2), 7)
    cover = greedy_min_multiplicity(space, 2, 12)
    assert cover.multiplicity() <= 3
    _, _, diam = independent_audit(cover)
    assert diam <= 12
    assert cover.exact_lebesgue_at_least(2)


def test_independent_audit_recomputes_cover_facts():
    space = z_segment_space(10)
    cover = Cover(space, masks_of(space, [[(k,) for k in range(6)], [(k,) for k in range(4, 10)]]))
    mult, lam, diam = independent_audit(cover)
    assert mult == cover.multiplicity() == 2
    assert lam == cover.pointwise_lebesgue() == 2
    assert diam == cover.max_diameter() == 5


# growth rows (ball, greedy, oracle on 9 points), lattice gromov rows and
# an extension gromov row all re-audit their covers, each of the three
# statistics (the Lebesgue surrogate first, then the other two)
@pytest.mark.parametrize(
    "profile",
    [
        lambda: growth_curve("zn:1", [1], [0, 4], 4),
        lambda: gromov_profile("zn:2", 3, [1], 6),
        lambda: gromov_profile("heisenberg", 6, [1], 7),
    ],
)
def test_profiles_refuse_a_lebesgue_surrogate_the_cover_disagrees_with(monkeypatch, profile):
    audit = dimension.independent_audit
    profile()
    for k, name in ((1, "Lebesgue surrogate"), (0, "multiplicity"), (2, "diameter")):

        def shifted(cover, k=k):
            values = list(audit(cover))
            values[k] += 1
            return tuple(values)

        monkeypatch.setattr(dimension, "independent_audit", shifted)
        with pytest.raises(AuditFailed, match=f"independent {name} disagrees") as err:
            profile()
        assert err.value.context["independent"] == err.value.context["cover"] + 1


def test_gromov_audits_the_projection_once(monkeypatch):
    audit, calls = extension._audit_projection, []

    def counting(*args):
        calls.append(args)
        return audit(*args)

    monkeypatch.setattr(extension, "_audit_projection", counting)
    gromov_profile("heisenberg", 6, [1, 2], 9)
    assert len(calls) == 1


def test_wreath_profile_lists_its_window_once(monkeypatch):
    windows = []

    def counting(spec, radius, cap=None):
        if spec.factors is not None:
            windows.append(radius)
        return ball_space(spec, radius, cap)

    for module in (dimension, extension):
        monkeypatch.setattr(module, "ball_space", counting)
    growth_curve("lamplighter", [1, 2], [0, 4], 5)
    assert windows == [5]


def test_growth_curve_builds_one_ball_cover_per_lambda(monkeypatch):
    built = []

    def counting(space, lam):
        built.append(lam)
        return ball_cover(space, lam)

    monkeypatch.setattr(dimension, "ball_cover", counting)
    profile = growth_curve("zn:2", [1, 2, 3], [0, 4], 6)
    assert built == [1, 2, 3]
    # every lambda has 2 lam <= D(lam) = 4 lam, so each ball cover served
    # both its own row and the greedy search
    assert sum(row["method"] == "ball" for row in profile.rows) == 3


def test_greedy_refuses_a_ball_cover_of_another_radius():
    space = z_window(6)
    with pytest.raises(PreconditionFailed):
        greedy_min_multiplicity(space, 1, 4, ball=ball_cover(space, 2))


def test_growth_curve_flat_on_the_line():
    profile = growth_curve("zn:1", [1, 2, 3], [0, 4], 8)
    assert profile.kind == "growth"
    assert profile.policy == "D=0,4"
    best = profile.best()
    for lam in (1, 2, 3):
        assert best[(lam, 4 * lam)] == 2
    greedy_rows = [r for r in profile.rows if r["method"] == "greedy"]
    assert {r["multiplicity"] for r in greedy_rows} == {2}
    ball_rows = [r for r in profile.rows if r["method"] == "ball"]
    for r in ball_rows:
        assert r["multiplicity"] <= r["theoretical_envelope"]
    json.dumps(profile.to_json())  # witness strings stay serializable


def test_growth_curve_includes_oracle_on_tiny_windows():
    profile = growth_curve("zn:1", [1], [0, 4], 4)  # 9 points
    methods = {r["method"] for r in profile.rows}
    assert "oracle" in methods
    oracle_mult = min(r["multiplicity"] for r in profile.rows if r["method"] == "oracle")
    for r in profile.rows:
        assert r["multiplicity"] >= oracle_mult


def test_growth_curve_on_a_wreath_token():
    profile = growth_curve("lamplighter", [1], [0, 8], 4)
    rows = [r for r in profile.rows if r["method"] == "construction"]
    assert len(rows) == 1
    assert rows[0]["multiplicity"] <= rows[0]["theoretical_envelope"]
    # the witness has diameter 8, so a budget of 4 emits no construction row
    profile = growth_curve("lamplighter", [1], [0, 4], 4)
    assert [r for r in profile.rows if r["method"] == "construction"] == []


def test_growth_csv_shape():
    profile = growth_curve("zn:1", [2, 1], [0, 4], 6)
    text = profile.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(CSV_HEADER)
    assert CSV_HEADER == (
        "group", "lambda", "diam_budget", "multiplicity",
        "method", "theoretical_envelope", "boundary_margin",
    )
    lams = [int(line.split(",")[1]) for line in lines[1:]]
    assert lams == sorted(lams)


def test_gromov_profile_linear_on_the_line():
    profile = gromov_profile("zn:1", 2, [0, 1, 2, 3], 12)
    assert profile.policy == "cap=2"
    for row in profile.rows:
        lam = row["lambda"]
        assert row["multiplicity"] <= 2
        if lam == 0:
            assert row["diam_budget"] == 0
        else:
            # achieved diameter, linear in lambda
            assert row["diam_budget"] <= 4 * lam
            assert row["diam_budget"] >= lam


def test_gromov_profile_plane_and_caps():
    profile = gromov_profile("zn:2", 3, [1, 2], 5)
    for row in profile.rows:
        assert row["multiplicity"] <= 3
        assert row["diam_budget"] <= row["theoretical_envelope"]
    with pytest.raises(Infeasible):
        gromov_profile("zn:1", 1, [1], 8)
    with pytest.raises(Infeasible):
        gromov_profile("heisenberg", 5, [1], 6)
    with pytest.raises(Infeasible):
        gromov_profile("free:2", 6, [1], 4)


def test_gromov_profile_heisenberg_extension():
    profile = gromov_profile("heisenberg", 6, [0, 1], 6)
    by_lam = {r["lambda"]: r for r in profile.rows}
    assert by_lam[0]["multiplicity"] == 1
    assert by_lam[1]["multiplicity"] <= 6
    assert by_lam[1]["method"] == "construction"


def test_gromov_extension_audits_its_singletons_row(monkeypatch):
    audit, audited = dimension.independent_audit, []

    def spy(cover):
        audited.append(cover.meta.get("method"))
        return audit(cover)

    monkeypatch.setattr(dimension, "independent_audit", spy)
    profile = gromov_profile("heisenberg", 6, [0, 1], 5)
    assert audited == ["singletons", "extension"]
    row = profile.rows[0]
    assert (row["lambda"], row["diam_budget"], row["multiplicity"]) == (0, 0, 1)
    assert row["method"] == row["witness"] == "singletons"


# every profile runs its monotonicity audit, gromov's extension rows included
@pytest.mark.parametrize(
    "profile",
    [
        lambda: growth_curve("zn:1", [1], [0, 4], 4),
        lambda: gromov_profile("zn:2", 3, [1], 6),
        lambda: gromov_profile("heisenberg", 6, [0, 1], 6),
    ],
)
def test_profiles_audit_their_monotonicity(monkeypatch, profile):
    audit, audited = DimensionProfile.assert_monotone, []

    def spy(self):
        audited.append(self)
        return audit(self)

    monkeypatch.setattr(DimensionProfile, "assert_monotone", spy)
    result = profile()
    assert len(audited) == 1 and audited[0] is result


def test_profile_monotonicity_audit():
    profile = DimensionProfile("zn:1", "growth", "D=0,4")
    profile.add_row(1, 4, 3, "greedy", None, 0)
    profile.add_row(1, 6, 5, "greedy", None, 0)
    with pytest.raises(AuditFailed):
        profile.assert_monotone()
    profile = DimensionProfile("zn:1", "growth", "D=0,4")
    profile.add_row(1, 4, 5, "greedy", None, 0)
    profile.add_row(2, 4, 3, "greedy", None, 0)
    with pytest.raises(AuditFailed):
        profile.assert_monotone()
