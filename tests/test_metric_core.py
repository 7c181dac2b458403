"""Metric substrate: distances and l_p distances."""

import math
import random
import tracemalloc

import numpy as np
import pytest

from coarsekit.errors import PreconditionFailed
from coarsekit.groups import ball_space, zn_spec
from coarsekit import metric
from coarsekit.metric import INF, FiniteMetricSpace, blocks, lp_distance
from oracles import dist, indices


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


def test_only_integer_distances_are_accepted():
    pts = [0, 1, 2]
    d = np.abs(np.subtract.outer(pts, pts))
    for dtype in (np.int8, np.int64, np.uint8):
        assert FiniteMetricSpace(pts, d.astype(dtype)).d.dtype == dtype
    # a bool matrix of a two-point space is a valid metric but for its type
    for matrix in (d.astype(np.float64), np.eye(2, dtype=bool) == 0, d.astype(object)):
        with pytest.raises(PreconditionFailed) as err:
            FiniteMetricSpace(pts[: len(matrix)], matrix)
        assert str(err.value) == "distances must be integers"
        assert err.value.context == {"dtype": str(matrix.dtype)}


def test_integer_validation_allocates_no_float_temporaries():
    space = ball_space(zn_spec(2), 14)
    tracemalloc.start()
    try:
        space._validate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * space.d.nbytes


def test_blocks_cut_a_range_into_consecutive_slices(monkeypatch):
    rows = metric.block_rows(8)
    assert list(blocks(2 * rows + 1, 8)) == [slice(0, rows), slice(rows, 2 * rows), slice(2 * rows, 2 * rows + 1)]
    # the budget is read at each call
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 12)
    assert list(blocks(0, 4)) == []
    assert list(blocks(6, 4)) == [slice(0, 3), slice(3, 6)]
    assert list(blocks(7, 4)) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    # a row wider than the budget is a block of its own
    assert list(blocks(3, 100)) == [slice(0, 1), slice(1, 2), slice(2, 3)]


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


def test_subspace_inherits_metric_and_window():
    pts = [(i,) for i in range(-3, 4)]
    d = np.abs(np.subtract.outer(range(-3, 4), range(-3, 4)))
    space = FiniteMetricSpace(pts, d, center=(0,), window_radius=3)
    sub = space.subspace(indices(space, [(-1,), (0,), (2,)]))
    assert dist(sub, (-1,), (2,)) == 3
    assert sub.boundary_margin() == 1  # (2,), one step inside the radius-3 window
    no_center = space.subspace(indices(space, [(1,), (2,)]))
    assert no_center.boundary_margin() == INF
