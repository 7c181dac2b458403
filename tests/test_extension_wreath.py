"""Extension covers along a projection, wreath covers keyed by lamp class,
and the polynomial diameter policies."""

import json

import numpy as np
import pytest

from coarsekit.cli import main
from coarsekit.errors import (
    LebesgueTooSmall,
    PreconditionFailed,
    WindowTooSmall,
)
from coarsekit.covers import (
    Cover,
    coordinate_interval_cover,
    eval_polynomial,
    extension_cover,
    extension_split,
    interval_cover_z,
    split_along,
    wreath_cover,
)
from coarsekit.covers.base import _brick_keys
from coarsekit.dimension import independent_audit
from coarsekit.groups import (
    ball_elements,
    ball_space,
    cyclic_spec,
    group_from_token,
    wreath_spec,
    zn_spec,
)
from coarsekit.metric import FiniteMetricSpace, point_label
from oracles import masks_of, sets_of


Z = zn_spec(1)


def test_extension_with_trivial_quotient_reproduces_kernel_cover():
    # constant projection: the whole window is one fiber, so the output
    # is exactly the kernel cover
    split = split_along(Z, ball_space(Z, 6), Z, ball_space(Z, 0), lambda e: (0,))
    U = Cover(split.quotient, masks_of(split.quotient, [list(split.quotient.points)]), ["Q"])
    V = interval_cover_z(split.kernel, 2)
    result = extension_cover(split, U, V, 1, 0)
    assert sorted(sets_of(result)) == sorted(sets_of(V))
    assert result.meta["conclusions"]["multiplicity"] == V.multiplicity()


def test_extension_with_trivial_kernel_reproduces_quotient_cover():
    # identity projection: fibers are single points, so the output pulls
    # the quotient cover straight back
    split = split_along(Z, ball_space(Z, 12), Z, ball_space(Z, 12), lambda e: e)
    U = interval_cover_z(split.quotient, 2)
    V = Cover(split.kernel, masks_of(split.kernel, [[(0,)]]), ["K"])
    R = U.max_diameter()
    result = extension_cover(split, U, V, 2, R)
    assert sorted(sets_of(result)) == sorted(sets_of(U))
    assert result.meta["conclusions"]["diameter_bound"] == 2 * R


def test_extension_cover_takes_covers_of_the_split_windows():
    split = split_along(Z, ball_space(Z, 12), Z, ball_space(Z, 12), lambda e: e)
    U = interval_cover_z(split.quotient, 2)
    V = Cover(split.kernel, masks_of(split.kernel, [[(0,)]]), ["K"])
    R = U.max_diameter()
    other_kernel = split.kernel.subspace(range(len(split.kernel)))
    stranger = Cover(other_kernel, masks_of(other_kernel, [[(0,)]]), ["K"])
    for u, v in [(interval_cover_z(ball_space(Z, 12), 2), V), (U, stranger)]:
        with pytest.raises(PreconditionFailed) as err:
            extension_cover(split, u, v, 2, R)
        assert "split" in str(err.value)
    assert extension_cover(split, U, V, 2, R).meta["R"] == R


def plane_extension(radius, lam, kernel_lam=None):
    G = zn_spec(2)
    split = split_along(G, ball_space(G, radius), Z, ball_space(Z, radius), lambda e: (e[0],))
    U = interval_cover_z(split.quotient, lam)
    R = U.max_diameter()
    V = coordinate_interval_cover(split.kernel, 1, kernel_lam if kernel_lam else 6 * R)
    return extension_cover(split, U, V, lam, R)


def as_uint8(space):
    return FiniteMetricSpace(
        space.points, space.d.astype(np.uint8), center=space.center, window_radius=space.window_radius
    )


def test_unsigned_windows_get_signed_complement_distances_and_the_same_extension_cover():
    G = zn_spec(2)
    window, quotient = ball_space(G, 20), ball_space(Z, 20)
    # _anchors ranks by negated depth, which an unsigned type would wrap
    assert (-interval_cover_z(as_uint8(quotient), 2).complement_distances() <= 0).all()
    covers = []
    for w, q in [(window, quotient), (as_uint8(window), as_uint8(quotient))]:
        split = split_along(G, w, Z, q, lambda e: (e[0],))
        U = interval_cover_z(split.quotient, 2)
        R = U.max_diameter()
        V = coordinate_interval_cover(split.kernel, 1, 6 * R)
        covers.append(extension_cover(split, U, V, 2, R))
    signed, unsigned = covers
    assert np.array_equal(unsigned.masks, signed.masks)
    assert unsigned.labels == signed.labels
    assert unsigned.meta == signed.meta


def test_cli_extension_cover_equals_the_hand_built_one(tmp_path, capsys):
    out = tmp_path / "cover.json"
    code = main([
        "cover", "--method", "extension", "--group", "zn:2",
        "--radius", "20", "--lambda", "2", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    expected = [[point_label(p) for p in members] for members in sets_of(plane_extension(20, 2))]
    assert json.loads(out.read_text())["sets"] == expected


def test_extension_over_plane_conclusions():
    cover = plane_extension(20, 2)
    got = cover.meta["conclusions"]
    assert got["multiplicity"] <= got["multiplicity_bound"]
    assert got["diameter"] <= got["diameter_bound"]
    assert got["lebesgue_safe"] >= 2
    assert got["safe_points"] > 0
    # every safe point really is covered
    margins = cover.space.margins()
    covered = cover.covered_mask()
    for i in range(len(cover.space.points)):
        if margins[i] >= cover.meta["safe_margin"]:
            assert covered[i]


def test_extension_rejects_thin_kernel_cover():
    with pytest.raises(LebesgueTooSmall) as err:
        plane_extension(20, 2, kernel_lam=1)
    assert err.value.context["needed"] == 42  # 6R with R = 7


def test_extension_window_too_small():
    with pytest.raises(WindowTooSmall) as err:
        plane_extension(6, 7)
    assert err.value.context["margin"] == 7
    assert err.value.exit_code == 2


def test_extension_audits_the_projection():
    window = ball_space(Z, 4)
    quotient = ball_space(Z, 8)
    with pytest.raises(PreconditionFailed) as err:
        split_along(Z, window, Z, quotient, lambda e: (2 * e[0],))
    assert "Lipschitz" in str(err.value)
    with pytest.raises(PreconditionFailed) as err:
        split_along(Z, window, Z, quotient, lambda e: (abs(e[0]),))
    assert "homomorphism" in str(err.value)


def test_wreath_cover_lamplighter():
    stats = wreath_cover(extension_split(wreath_spec(Z, cyclic_spec(2)), 5), 1).meta["conclusions"]
    assert stats["envelope"] == 2 * 1 * len(ball_elements(Z, 6))
    assert stats["multiplicity"] <= stats["envelope"]
    assert stats["lebesgue_safe"] >= 1
    assert stats["uncovered_boundary_points"] < stats["window_points"]


def test_wreath_cover_integer_lamps():
    stats = wreath_cover(extension_split(wreath_spec(Z, Z), 3), 1).meta["conclusions"]
    assert stats["envelope"] == 4 * len(ball_elements(Z, 6))
    assert stats["multiplicity"] <= stats["multiplicity_bound"]
    assert stats["lebesgue_safe"] >= 1
    assert stats["r"] == 6 * stats["R"]


# lamplighter r9 and wreath:zn:1:zn:1 r6 cover the same way, but their
# window fills alone take seconds
WREATH_GRID = [("lamplighter", r, (0, 1, 2, 3)) for r in range(4, 9)] + [
    ("wreath:zn:1:zn:1", r, (0, 1, 2)) for r in (4, 5)
]


@pytest.mark.parametrize("token, radius, lams", WREATH_GRID, ids=[f"{t}-r{r}" for t, r, _ in WREATH_GRID])
def test_wreath_cover_keys_the_whole_window(token, radius, lams):
    split = extension_split(group_from_token(token), radius)
    for lam in lams:
        cover = wreath_cover(split, lam)
        stats = cover.meta["conclusions"]
        assert cover.covered_mask().all()
        assert stats["uncovered_boundary_points"] == 0
        assert stats["safe_points"] == stats["window_points"] == len(split.window)
        assert stats["multiplicity"] <= min(stats["multiplicity_bound"], stats["envelope"])
        assert stats["diameter"] <= stats["diameter_bound"]
        assert stats["lebesgue_safe"] >= lam
        assert independent_audit(cover) == (stats["multiplicity"], stats["lebesgue_safe"], stats["diameter"])


@pytest.mark.parametrize("lam", [0, 1])
def test_wreath_cover_bricks_every_lamp_coordinate(lam):
    G = group_from_token("wreath:zn:1:zn:2")
    split = extension_split(G, 3)
    cover = wreath_cover(split, lam)
    stats = cover.meta["conclusions"]
    R = stats["R"]
    inside = ball_elements(Z, 6 * R)
    width = 2 * len(inside)
    # at lambda 0 the bricks are the singletons, so a member is one point
    side = 2 * (width + 1) * 6 * R or 1
    assert stats["multiplicity_bound"] == (2 if lam else 1) * (width + 1)
    assert stats["diameter_bound"] == 2 * (len(inside) - 1) + len(inside) * 2 * (side - 1) + 2 * R
    # each member holds one brick of the full inside lamp vector of z^{-1} w
    points = {point_label(p): p for p in split.window.points}
    for members, (u_label, outside, j, bricks) in zip(sets_of(cover), cover.meta["keys"]):
        z_inv = G.inverse(points[cover.meta["z_points"][u_label]])
        for w in members:
            lamps = dict(G.multiply(z_inv, w).config)
            vec = np.array([c for p in inside for c in lamps.get(p, (0, 0))])
            assert tuple(_brick_keys(vec, 6 * R, side, j).tolist()) == bricks


@pytest.mark.parametrize("lamp", ["heisenberg", "free:1"])
def test_wreath_cover_refuses_lamps_without_a_recipe(capsys, lamp):
    code = main(
        ["cover", "--method", "wreath", "--group", f"wreath:zn:1:{lamp}", "--radius", "3", "--lambda", "1"]
    )
    body = json.loads(capsys.readouterr().out)
    assert code == 2
    assert body["type"] == "PreconditionFailed"
    assert body["error"] == "no kernel cover recipe for this lamp group"
    assert body["lamp"] == lamp


def test_eval_polynomial_contract():
    assert eval_polynomial([1, 2, 3], 2) == 17
    assert eval_polynomial([], 5) == 0
    with pytest.raises(PreconditionFailed):
        eval_polynomial([1, -1], 2)
