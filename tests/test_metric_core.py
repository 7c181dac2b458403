"""Metric substrate: distances, neighborhoods, l_p distances."""

import math
import random

import numpy as np
import pytest

from coarsekit.errors import PreconditionFailed
from coarsekit.metric import (
    INF,
    FiniteMetricSpace,
    inner_neighborhood,
    lp_distance,
    neighborhood,
    set_distance,
)


def z_segment(n):
    pts = list(range(n))
    d = np.abs(np.subtract.outer(pts, pts))
    return FiniteMetricSpace(pts, d)


def test_space_validation_rejects_broken_metrics():
    pts = [0, 1, 2]
    asym = np.array([[0, 1, 2], [2, 0, 1], [2, 1, 0]])
    with pytest.raises(PreconditionFailed):
        FiniteMetricSpace(pts, asym)
    no_triangle = np.array([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
    with pytest.raises(PreconditionFailed):
        FiniteMetricSpace(pts, no_triangle)
    degenerate = np.array([[0, 0], [0, 0]])
    with pytest.raises(PreconditionFailed):
        FiniteMetricSpace([0, 1], degenerate)


def test_set_distance_examples():
    space = z_segment(10)
    assert set_distance(space, {0, 1}, {5}) == 4
    assert set_distance(space, {3}, {3}) == 0
    assert set_distance(space, {0}, set()) == INF
    assert set_distance(space, set(), set()) == INF


def test_neighborhood_examples():
    space = z_segment(10)
    assert set(neighborhood(space, {4, 5}, 2)) == set(range(2, 8))
    assert set(neighborhood(space, {4, 5}, 0)) == {4, 5}
    assert set(neighborhood(space, set(space.points), 3)) == set(space.points)


def test_inner_neighborhood_examples():
    space = z_segment(10)
    assert set(inner_neighborhood(space, set(range(2, 8)), 1)) == set(range(3, 7))
    assert set(inner_neighborhood(space, set(range(2, 8)), 0)) == set(range(2, 8))
    assert set(inner_neighborhood(space, {4}, 1)) == set()


def test_neighborhood_monotonicity_sweep():
    # r1 <= r2 nesting plus the inner/outer adjunction, over every
    # interval-shaped subset of a segment
    space = z_segment(9)
    subsets = [set(range(a, b)) for a in range(9) for b in range(a + 1, 10)]
    for A in subsets:
        for r1 in range(4):
            r2 = r1 + 1
            assert set(neighborhood(space, A, r1)) <= set(neighborhood(space, A, r2))
            inner2 = set(inner_neighborhood(space, A, r2))
            inner1 = set(inner_neighborhood(space, A, r1))
            assert inner2 <= inner1
            grown = set(neighborhood(space, inner1, r1)) if inner1 else set()
            assert grown <= A


def test_lp_distance_examples():
    # coordinates a, b
    u = np.array([1.0, 0.0])
    assert lp_distance(u, u, 2) == 0
    v = np.array([0.0, 1.0])
    # disjoint unit supports give 2^(1/p)
    assert abs(lp_distance(u, v, 2) - math.sqrt(2)) < 1e-12
    assert abs(lp_distance(u, v, 1) - 2.0) < 1e-12
    assert lp_distance(u, v, INF) == 1.0


def random_vector(rng, size=6):
    vec = np.zeros(20)
    for i in rng.sample(range(20), size):
        vec[i] = rng.uniform(-2, 2)
    return vec


def test_lp_triangle_inequality_random_triples():
    rng = random.Random(7)
    for p in (1, 2, 3, INF):
        for _ in range(200):
            u, v, w = (random_vector(rng) for _ in range(3))
            duw = lp_distance(u, w, p)
            duv = lp_distance(u, v, p)
            dvw = lp_distance(v, w, p)
            assert duw <= duv + dvw + 1e-9


def test_space_json_round_trip():
    space = z_segment(5)
    back = FiniteMetricSpace.from_json(space.to_json())
    assert np.array_equal(back.d, space.d)
    assert len(back.points) == 5


def test_subspace_inherits_metric_and_window():
    pts = [(i,) for i in range(-3, 4)]
    d = np.abs(np.subtract.outer(range(-3, 4), range(-3, 4)))
    space = FiniteMetricSpace(pts, d, center=(0,), window_radius=3)
    sub = space.subspace([(-1,), (0,), (2,)])
    assert sub.dist((-1,), (2,)) == 3
    assert sub.boundary_margin((2,)) == 1
    no_center = space.subspace([(1,), (2,)])
    assert no_center.boundary_margin((1,)) == INF
