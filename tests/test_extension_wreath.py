"""Extension covers along a projection, the wreath kernel spread, and the
polynomial diameter policies."""

import json

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
    wreath_kernel_cover,
)
from coarsekit.covers.wreath import wreath_lamp_bricks
from coarsekit.groups import (
    ball_elements,
    ball_space,
    cyclic_spec,
    lamplighter_spec,
    wreath_spec,
    zn_spec,
)
from coarsekit.metric import point_label


Z = zn_spec(1)


def test_extension_with_trivial_quotient_reproduces_kernel_cover():
    # constant projection: the whole window is one fiber, so the output
    # is exactly the kernel cover
    split = split_along(Z, ball_space(Z, 6), Z, ball_space(Z, 0), lambda e: (0,))
    U = Cover(split.quotient, [list(split.quotient.points)], ["Q"])
    V = interval_cover_z(split.kernel, 2)
    result = extension_cover(split, U, V, 1, 0)
    assert sorted(map(tuple, result.sets())) == sorted(map(tuple, V.sets()))
    assert result.meta["conclusions"]["multiplicity"] == V.multiplicity()


def test_extension_with_trivial_kernel_reproduces_quotient_cover():
    # identity projection: fibers are single points, so the output pulls
    # the quotient cover straight back
    split = split_along(Z, ball_space(Z, 12), Z, ball_space(Z, 12), lambda e: e)
    U = interval_cover_z(split.quotient, 2)
    V = Cover(split.kernel, [[(0,)]], ["K"])
    R = U.max_diameter()
    result = extension_cover(split, U, V, 2, R)
    assert sorted(map(tuple, result.sets())) == sorted(map(tuple, U.sets()))
    assert result.meta["conclusions"]["diameter_bound"] == 2 * R


def test_extension_cover_takes_covers_of_the_split_windows():
    split = split_along(Z, ball_space(Z, 12), Z, ball_space(Z, 12), lambda e: e)
    U = interval_cover_z(split.quotient, 2)
    V = Cover(split.kernel, [[(0,)]], ["K"])
    R = U.max_diameter()
    other_kernel = split.kernel.subspace(split.kernel.points)
    for u, v in [(interval_cover_z(ball_space(Z, 12), 2), V), (U, Cover(other_kernel, [[(0,)]], ["K"]))]:
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


def test_cli_extension_cover_equals_the_hand_built_one(tmp_path, capsys):
    out = tmp_path / "cover.json"
    code = main([
        "cover", "--method", "extension", "--group", "zn:2",
        "--radius", "20", "--lambda", "2", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    expected = [[point_label(p) for p in members] for members in plane_extension(20, 2).sets()]
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


def lamplighter_kernel_window(radius):
    W = lamplighter_spec()
    window = ball_space(W, radius)
    pts = [w for w in window.points if w.head == (0,)]
    return window.subspace(pts)


def test_wreath_kernel_cover_spreads_inside_cover():
    kernel = lamplighter_kernel_window(5)
    r = 1
    positions = ball_elements(Z, r)
    inside = kernel.subspace(
        [w for w in kernel.points if all(k in set(positions) for k, _ in w.config)]
    )
    V = Cover(inside, [list(inside.points)], ["K"])
    cover = wreath_kernel_cover(Z, zn_spec(1), r, kernel, V)
    assert cover.multiplicity() == 1
    assert cover.pointwise_lebesgue() >= r
    assert cover.covered_mask().all()
    assert cover.meta["classes"] == len(cover)


def test_wreath_kernel_cover_rejects_thin_inside_cover():
    kernel = lamplighter_kernel_window(5)
    positions = ball_elements(Z, 1)
    inside = kernel.subspace(
        [w for w in kernel.points if all(k in set(positions) for k, _ in w.config)]
    )
    singletons = Cover(inside, [[p] for p in inside.points])
    with pytest.raises(LebesgueTooSmall):
        wreath_kernel_cover(Z, zn_spec(1), 2, kernel, singletons)


def test_wreath_cover_lamplighter():
    cover, stats = wreath_cover(extension_split(wreath_spec(Z, cyclic_spec(2)), 5), 1)
    assert stats["envelope"] == 2 * 1 * len(ball_elements(Z, 6))
    assert stats["multiplicity"] <= stats["envelope"]
    assert stats["lebesgue_safe"] >= 1
    assert stats["uncovered_boundary_points"] < stats["window_points"]


def test_wreath_cover_integer_lamps():
    cover, stats = wreath_cover(extension_split(wreath_spec(Z, Z), 3), 1)
    assert stats["envelope"] == 4 * len(ball_elements(Z, 6))
    assert stats["multiplicity"] <= stats["multiplicity_bound"]
    assert stats["lebesgue_safe"] >= 1
    assert stats["r"] == 6 * stats["R"]


def test_wreath_lamp_bricks_direct():
    W = wreath_spec(Z, Z)
    window = ball_space(W, 3)
    kernel_pts = [w for w in window.points if w.head == (0,)]
    kernel = window.subspace(kernel_pts)
    positions = ball_elements(Z, 1)
    inside = kernel.subspace(
        [w for w in kernel.points if all(k in set(positions) for k, _ in w.config)]
    )
    lam = 2
    cover = wreath_lamp_bricks(inside, positions, lam)
    assert cover.pointwise_lebesgue() >= lam
    assert cover.multiplicity() <= len(positions) + 1


def test_eval_polynomial_contract():
    assert eval_polynomial([1, 2, 3], 2) == 17
    assert eval_polynomial([], 5) == 0
    with pytest.raises(PreconditionFailed):
        eval_polynomial([1, -1], 2)
