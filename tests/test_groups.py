"""Group specs, BFS norms, ball windows, wreath and Heisenberg structure."""

import dataclasses
import random

import numpy as np
import pytest

from coarsekit.errors import BallTooLarge, PreconditionFailed
from coarsekit.groups import (
    ball_elements,
    ball_space,
    cyclic_spec,
    distortion_profile,
    free_spec,
    group_from_token,
    heisenberg_center,
    heisenberg_spec,
    lamplighter_spec,
    log_log_slope,
    validate_group_axioms,
    word_norm_table,
    wreath_spec,
    zn_spec,
)
from coarsekit.covers import ball_cover
from coarsekit.metric import point_label
from oracles import NotInKernel, dist, free_ball_cover_audit, project_pi_A, wreath_element


def test_word_norm_table_on_z():
    table = word_norm_table(zn_spec(1), 3)
    expected = {(0,): 0, (1,): 1, (-1,): 1, (2,): 2, (-2,): 2, (3,): 3, (-3,): 3}
    assert table == expected


def test_free_group_ball_sizes():
    table = word_norm_table(free_spec(2), 2)
    assert len(table) == 17  # 1 + 4 + 12
    assert sum(1 for n in table.values() if n == 2) == 12


def test_heisenberg_commutator_norm():
    spec = heisenberg_spec()
    table = word_norm_table(spec, 4)
    assert table[(0, 0, 1)] == 4


def test_ball_space_z_is_a_segment():
    space = ball_space(zn_spec(1), 2)
    assert len(space) == 5
    # isometric to {0..4}: sorted eccentricities match
    xs = sorted(p[0] for p in space.points)
    assert xs == [-2, -1, 0, 1, 2]
    assert dist(space, (-2,), (2,)) == 4


def test_ball_space_z2_restricted_metric():
    space = ball_space(zn_spec(2), 1)
    assert len(space) == 5
    assert dist(space, (1, 0), (0, 1)) == 2


def test_ball_space_free_group_radius_one():
    space = ball_space(free_spec(2), 1)
    assert len(space) == 5
    gens = [p for p in space.points if p != ()]
    for i in range(len(gens)):
        for j in range(i + 1, len(gens)):
            assert dist(space, gens[i], gens[j]) == 2


# a window distance is at most 2r and validation adds two: int8 while
# 4r <= 127, int16 while 4r <= 32767; the wreath fill follows the same rule
@pytest.mark.parametrize(
    "token, radius, dtype",
    [
        ("zn:1", 31, np.int8), ("zn:1", 32, np.int16), ("zn:1", 90, np.int16),
        ("lamplighter", 2, np.int8), ("heisenberg", 9, np.int8),
    ],
)
def test_window_dtype_holds_a_sum_of_two_distances(token, radius, dtype):
    assert ball_space(group_from_token(token), radius).d.dtype == dtype


def test_heisenberg_polynomial_laws():
    spec = heisenberg_spec()
    assert spec.multiply((1, 0, 0), (0, 1, 0)) == (1, 1, 1)
    rng = random.Random(3)
    for _ in range(50):
        g = tuple(rng.randint(-5, 5) for _ in range(3))
        a, b, c = g
        assert spec.inverse(g) == (-a, -b, a * b - c)
        assert spec.multiply(g, spec.inverse(g)) == (0, 0, 0)
    x, y = (1, 0, 0), (0, 1, 0)
    commutator = spec.multiply(
        spec.multiply(x, y), spec.multiply(spec.inverse(x), spec.inverse(y))
    )
    assert commutator == (0, 0, 1)


def test_group_axioms_per_spec():
    for spec in (
        zn_spec(1),
        zn_spec(2),
        cyclic_spec(5),
        free_spec(2),
        heisenberg_spec(),
        lamplighter_spec(),
        wreath_spec(zn_spec(1), zn_spec(1)),
    ):
        validate_group_axioms(spec)


def bfs_parents(spec, radius):
    """Each element of the radius ball mapped to the element BFS first
    reached it from (None for the unit)."""
    parent = {spec.unit: None}
    frontier = [spec.unit]
    for _ in range(radius):
        nxt = []
        for g in frontier:
            for s in spec.generators:
                h = spec.multiply(g, s)
                if h not in parent:
                    parent[h] = g
                    nxt.append(h)
        frontier = nxt
    return parent


def first_tree_mismatch(spec, radius=4, trials=300):
    """A sorted subset Q of B_radius whose cyclic sum of ``distances``
    differs from twice the edge count of the subtree of the BFS tree that
    spans Q, or None when ``trials`` random subsets show none."""
    parent = bfs_parents(spec, radius)
    elements = sorted(parent)
    d = spec.distances(elements)(slice(None), slice(None))
    rng = random.Random(0)
    for _ in range(trials):
        q = sorted(rng.sample(range(len(elements)), rng.randint(1, min(6, len(elements)))))
        cyclic = sum(int(d[a, b]) for a, b in zip(q, q[1:] + q[:1]))
        paths = []
        for i in q:
            path, e = [], elements[i]
            while e is not None:
                path.append(e)
                e = parent[e]
            paths.append(path[::-1])
        edges = {(p[j - 1], p[j]) for p in paths for j in range(1, len(p))}
        # the root paths share the edges above the deepest common ancestor
        shared = 0
        while all(len(p) > shared + 1 for p in paths) and len({p[shared + 1] for p in paths}) == 1:
            shared += 1
        if cyclic != 2 * (len(edges) - shared):
            return [elements[i] for i in q]
    return None


@pytest.mark.parametrize("token", [
    "zn:1", "zn:2", "zn:3", "cyclic:2", "cyclic:3", "cyclic:7", "free:0", "free:1", "free:2", "free:3",
    "heisenberg", "lamplighter",
])
def test_tree_declaration_matches_the_cyclic_sum(token):
    # over a tree listed depth-first the cyclic sum walks each spanning edge
    # twice; any other Cayley graph shows a subset where it does not
    spec = group_from_token(token)
    assert spec.tree == (first_tree_mismatch(spec) is None)


def test_group_axioms_reject_a_non_associative_product():
    # (a0 + b0, a1 + b1 + a0^2 b0 (a0 + b0)) keeps the unit and the inverse
    # laws; the radius-3 ball has 25 elements, so 1,500 triples are sampled
    twisted = dataclasses.replace(
        zn_spec(2), multiply=lambda a, b: (a[0] + b[0], a[1] + b[1] + a[0] ** 2 * b[0] * (a[0] + b[0]))
    )
    with pytest.raises(PreconditionFailed, match="associativity fails"):
        validate_group_axioms(twisted)


def test_wreath_over_a_free_base_is_a_group():
    # lamp supports translate on the left, so a non-abelian base works too
    spec = group_from_token("wreath:free:2:cyclic:2")
    validate_group_axioms(spec)
    space = ball_space(spec, 3)
    assert len(space) == 106
    x = wreath_element({(1,): 1}, (), 0)
    assert spec.multiply(wreath_element({}, (2,), 0), x) == wreath_element({(2, 1): 1}, (2,), 0)


def test_specs_declare_their_structure():
    assert zn_spec(2).lattice_rank == 2
    assert cyclic_spec(5).lattice_rank is None and cyclic_spec(5).factors is None
    base, lamp = lamplighter_spec().factors
    assert base.lattice_rank == 1 and lamp.name == "cyclic:2"
    assert heisenberg_spec().factors is None and free_spec(2).extension is None
    quotient, pi, kernel_gens = heisenberg_spec().extension
    assert quotient.lattice_rank == 2 and pi((3, -1, 7)) == (3, -1)
    member, gens = heisenberg_center()
    assert gens == kernel_gens and member((0, 0, 4)) and not member((1, 0, 0))
    # Z^n splits off its last axis over Z^(n-1)
    assert zn_spec(1).extension is None
    quotient, pi, kernel_gens = zn_spec(3).extension
    assert quotient.lattice_rank == 2 and pi((4, -1, 7)) == (4, -1)
    assert kernel_gens == ((0, 0, 1), (0, 0, -1))


def test_left_invariance_on_lamplighter():
    spec = lamplighter_spec()
    table = word_norm_table(spec, 6)
    pts = ball_elements(spec, 2)
    shifts = ball_elements(spec, 2)
    rng = random.Random(11)
    for _ in range(300):
        g = rng.choice(shifts)
        x = rng.choice(pts)
        y = rng.choice(pts)
        base = table[spec.multiply(spec.inverse(x), y)]
        moved = table[
            spec.multiply(spec.inverse(spec.multiply(g, x)), spec.multiply(g, y))
        ]
        assert moved == base


def test_ball_space_agrees_with_norm_table():
    spec = lamplighter_spec()
    space = ball_space(spec, 3)
    table = word_norm_table(spec, 6)
    for i, x in enumerate(space.points):
        for j, y in enumerate(space.points):
            assert space.d[i, j] == table[spec.multiply(spec.inverse(x), y)]


def test_lamplighter_single_lamp_norm():
    spec = lamplighter_spec()
    table = word_norm_table(spec, 4)
    lamp_at_one = wreath_element({(1,): 1}, (0,), 0)
    assert table[lamp_at_one] == 3  # t s t^-1


def test_wreath_shift_moves_lamp_support():
    spec = lamplighter_spec()
    t = wreath_element({}, (1,), 0)
    s = wreath_element({(0,): 1}, (0,), 0)
    shifted = spec.multiply(t, s)
    assert shifted == wreath_element({(1,): 1}, (1,), 0)
    assert spec.unit.config == () and spec.unit.head == (0,)


def test_wreath_labels_are_compact_and_injective():
    spec = lamplighter_spec()
    lamp, shift = spec.generators[0], spec.generators[1]
    assert point_label(spec.unit) == "{}@(0)"
    assert point_label(lamp) == "{(0):1}@(0)"
    assert point_label(shift) == "{}@(1)"
    assert point_label(wreath_element({(-3,): 1, (0,): 1}, (-3,), 0)) == "{(-3):1,(0):1}@(-3)"
    assert point_label(wreath_element({(0,): (2,)}, (-1,), (0,))) == "{(0):(2)}@(-1)"
    for token, radius in [("lamplighter", 6), ("wreath:zn:1:zn:1", 4)]:
        points = ball_elements(group_from_token(token), radius)
        assert len({point_label(p) for p in points}) == len(points)


def test_kernel_projection():
    w = wreath_element({(0,): 1, (2,): 1}, (0,), 0)
    assert project_pi_A(w, [(0,)]) == wreath_element({(0,): 1}, (0,), 0)
    assert project_pi_A(w, []) == wreath_element({}, (0,), 0)
    off_kernel = wreath_element({(0,): 1}, (1,), 0)
    with pytest.raises(NotInKernel):
        project_pi_A(off_kernel, [(0,)])


def test_distortion_profile_undistorted_axis():
    spec = zn_spec(2)

    def on_axis(e):
        return e[1] == 0

    pairs = distortion_profile(spec, on_axis, ((1, 0), (-1, 0)), 5)
    assert all(inner == ambient for inner, ambient in pairs)
    assert max(a for _, a in pairs) == 5



def test_distortion_names_the_members_the_subgroup_misses():
    # the first axis reaches 7 of the 25 points of the radius-3 ball of Z^2
    with pytest.raises(PreconditionFailed) as err:
        distortion_profile(zn_spec(2), lambda e: True, ((1, 0), (-1, 0)), 3)
    assert (str(err.value), err.value.context) == (
        "subgroup BFS did not reach every member in the ball",
        {"missing": 18, "inner_cap": 36},
    )

def test_heisenberg_center_distortion():
    spec = heisenberg_spec()
    member, sub_gens = heisenberg_center()
    pairs = distortion_profile(spec, member, sub_gens, 14)
    assert (1, 4) in pairs  # the commutator itself
    slope = log_log_slope(pairs)
    assert 0.40 <= slope <= 0.60


def test_free_ball_cover_audit_matches_materialized_window():
    audit = free_ball_cover_audit(2, 1, 4)
    space = ball_space(free_spec(2), 4)
    cover = ball_cover(space, 1)
    counts = cover.counts()
    norms = space.d[:, space.index(())]
    for shell, entry in enumerate(audit["shells"]):
        at_shell = counts[norms == shell]
        assert at_shell.size and int(at_shell.max()) == entry["multiplicity"]
    assert audit["interior_multiplicity"] == 5  # |B_1| in F_2
    assert audit["lebesgue_pointwise"] >= 2


def test_ball_cap_enforced():
    with pytest.raises(BallTooLarge) as err:
        word_norm_table(free_spec(2), 10, cap=100)
    assert err.value.exit_code == 3
    assert "radius_reached" in err.value.context
    # windows are listed by BFS, which stops in the first layer past the
    # cap: |B_21| = 925 and |B_22| = 1013 in Z^2
    with pytest.raises(BallTooLarge) as err:
        ball_space(zn_spec(2), 50, cap=1000)
    assert err.value.context["radius_reached"] == 21


def test_heisenberg_cap_counts_the_window():
    # the closed-form fill needs no radius-2r table, so the cap meets only
    # the window's own BFS: |B_6| = 593 and |B_7| = 1069
    assert len(ball_space(heisenberg_spec(), 6, cap=1000).points) == 593
    with pytest.raises(BallTooLarge) as err:
        ball_space(heisenberg_spec(), 9, cap=1000)
    assert err.value.context["radius_reached"] == 6


def test_group_token_grammar():
    assert group_from_token("zn:3").name == "zn:3"
    assert group_from_token("lamplighter").name == "wreath:zn:1:cyclic:2"
    assert group_from_token("wreath:zn:1:zn:1").name == "wreath:zn:1:zn:1"
    with pytest.raises(PreconditionFailed):
        group_from_token("zn:2:junk")
    with pytest.raises(PreconditionFailed):
        group_from_token("so3")
