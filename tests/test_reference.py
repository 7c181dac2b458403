"""Differential check of the array scans against a dict-free reference.

The reference below uses lists and explicit loops over pairs only: tents
and distance-to-complement rows come straight from their definitions,
and every sup, slack and conversion gap is a plain loop.  The library's
variation reports, embedding audit and conversion gaps must agree with it
to 1e-12 on small windows of four groups.  Two more array paths have a
plain reference here: the packed-table fill of Heisenberg windows (a loop
over pairs looking norms up in the BFS table) and the emission of integer
arrays (the same payload with every array turned into lists first).
"""

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coarsekit import groups
from coarsekit._jsonutil import canonical_json
from coarsekit.covers import ball_cover, shrink_to_irreducible
from coarsekit.errors import AuditFailed, SubsequenceUnavailable
from coarsekit.groups import ball_space, group_from_token, heisenberg_spec, word_norm_table
from coarsekit.metric import INF
from coarsekit.property_a import (
    CERT_TOL,
    a_infinity_family,
    coarse_embedding,
    family_from_covers,
    holder_conversion_gap,
    power_conversion_gap,
    variation_report,
)

TOL = 1e-12
RADII = {"zn:1": 12, "zn:2": 4, "free:2": 2, "heisenberg": 2}
TOKENS = sorted(RADII)
SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=20)


@functools.lru_cache(maxsize=None)
def window(token):
    return ball_space(group_from_token(token), RADII[token])


@functools.lru_cache(maxsize=None)
def shrunk_cover(token, n):
    space = window(token)
    return shrink_to_irreducible(ball_cover(space, 2 * n), n)


# -- the reference -------------------------------------------------------------


def ref_norm(u, p):
    if p == INF:
        return max((abs(x) for x in u), default=0.0)
    return sum(abs(x) ** p for x in u) ** (1.0 / p)


def ref_dist(u, v, p):
    return ref_norm([a - b for a, b in zip(u, v)], p)


def ref_unit(u, p):
    scale = 1.0 / ref_norm(u, p)
    return [scale * x for x in u]


def ref_tents(space, n, p):
    """Row z, column x: max(1 - d(x, z)/n, 0), then made unit for finite p."""
    rows = []
    for z in space.points:
        row = [max(1.0 - space.dist(x, z) / n, 0.0) for x in space.points]
        rows.append(row if p == INF else ref_unit(row, p))
    return rows


def ref_cover_rows(cover, p):
    """Row z carries d(z, X minus U) at the private point of each member U."""
    space = cover.space
    pts = space.points
    injection = cover.meta["injection"]
    rows = []
    for z in pts:
        row = [0.0] * len(pts)
        for label, members in zip(cover.labels, cover.sets()):
            outside = [x for x in pts if x not in members]
            depth = min(space.dist(z, x) for x in outside) if outside else space.diameter() + 1
            row[pts.index(injection[label])] = float(depth)
        rows.append(ref_unit(row, p))
    return rows


def ref_distances(spec, points, radius):
    """d(x, y) = |x^{-1} y|, one pair at a time, from the radius-2r BFS table."""
    table = word_norm_table(spec, 2 * radius)
    inverses = [spec.inverse(x) for x in points]
    return [[table[spec.multiply(xi, y)] for y in points] for xi in inverses]


def ref_lists(value):
    """The payload with every array replaced by its nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: ref_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [ref_lists(v) for v in value]
    return value


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


def ref_embedding(space, rows, radius, base, budget, p, safe_margin):
    """Selection, vectors and band audit of the coarse embedding, or None
    when no level meets a slot's threshold."""
    order = sorted(rows)
    picked, cursor = [], 0
    for k in range(1, budget + 1):
        for pos in range(cursor, len(order)):
            n = order[pos]
            if ref_variation(space, rows[n], k, p) ** p < 2.0 ** (-k):
                picked.append(n)
                cursor = pos + 1
                break
        else:
            return None
    radii, running = [], 0
    for n in picked:
        running = max(running, radius[n])
        radii.append(running)
    b = space.index(base)
    vectors = []
    for z in range(len(space.points)):
        vec = []
        for n in picked:
            vec += [x - y for x, y in zip(rows[n][z], rows[n][b])]
        vectors.append(vec)

    def S(t):
        return sum(1 for r in radii if r <= t)

    margin = radii[-1] if safe_margin is None else safe_margin
    safe = [i for i, z in enumerate(space.points) if space.boundary_margin(z) >= margin]
    checked, upper, lower, buckets = 0, 0.0, 0.0, {}
    for a in range(len(safe)):
        for c in range(a + 1, len(safe)):
            i, j = safe[a], safe[c]
            t = space.dist(space.points[i], space.points[j])
            gap = ref_dist(vectors[i], vectors[j], p)
            lo = max(0.0, 2.0 * S(t / 2.0) - 2.0) ** (1.0 / p)
            hi = (2.0 * t + 1.0) ** (1.0 / p)
            checked += 1
            upper = max(upper, gap - hi)
            lower = max(lower, lo - gap)
            low, high = buckets.get(t, (INF, -INF))
            buckets[t] = (min(low, gap), max(high, gap))
    return {
        "levels": picked,
        "pairs_checked": checked,
        "safe_points": len(safe),
        "max_upper_slack": upper,
        "max_lower_slack": lower,
        "buckets": buckets,
    }


# -- the checks ------------------------------------------------------------------


levels_strategy = st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True).map(sorted)


@SETTINGS
@given(
    token=st.sampled_from(TOKENS),
    p=st.sampled_from([1, 2, 3, INF]),
    levels=levels_strategy,
    K=st.integers(1, 3),
)
def test_tent_variation_matches_reference(token, p, levels, K):
    space = window(token)
    report = variation_report(a_infinity_family(space, levels, p), [K])
    for n in levels:
        expected = ref_variation(space, ref_tents(space, n, p), K, p)
        assert abs(report.measured[K][n] - expected) <= TOL


@SETTINGS
@given(
    token=st.sampled_from(TOKENS),
    p=st.sampled_from([1, 2, 3]),
    levels=st.lists(st.integers(1, 3), min_size=1, max_size=3, unique=True).map(sorted),
    K=st.integers(1, 3),
)
def test_cover_variation_matches_reference(token, p, levels, K):
    space = window(token)
    covers = {n: shrunk_cover(token, n) for n in levels}
    report = variation_report(family_from_covers(covers, p), [K])
    for n in levels:
        expected = ref_variation(space, ref_cover_rows(covers[n], p), K, p)
        assert abs(report.measured[K][n] - expected) <= TOL


@settings(SETTINGS, max_examples=40)
@given(
    token=st.sampled_from(TOKENS),
    p=st.sampled_from([1, 2, 3]),
    levels=st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True).map(sorted),
    budget=st.integers(1, 3),
    safe_margin=st.sampled_from([None, 0, 1, 2]),
)
def test_embedding_audit_matches_reference(token, p, levels, budget, safe_margin):
    space = window(token)
    base = space.center
    family = a_infinity_family(space, levels, p)
    rows = {n: ref_tents(space, n, p) for n in levels}
    expected = ref_embedding(space, rows, family.support_radius, base, budget, p, safe_margin)
    try:
        result = coarse_embedding(family, base, budget, safe_margin=safe_margin)
    except SubsequenceUnavailable:
        assert expected is None
        return
    except AuditFailed:
        assert expected is not None
        assert max(expected["max_upper_slack"], expected["max_lower_slack"]) > CERT_TOL
        return
    assert expected is not None
    assert [e["level"] for e in result.selected] == expected["levels"]
    for key in ("pairs_checked", "safe_points"):
        assert result.audit[key] == expected[key]
    for key in ("max_upper_slack", "max_lower_slack"):
        assert abs(result.audit[key] - expected[key]) <= TOL
    assert sorted(result.displacement) == sorted(expected["buckets"])
    for t, (low, high) in expected["buckets"].items():
        assert abs(result.displacement[t][0] - low) <= TOL
        assert abs(result.displacement[t][1] - high) <= TOL


@SETTINGS
@given(
    token=st.sampled_from(TOKENS),
    p=st.sampled_from([1, 2, 3]),
    m=st.sampled_from([1, 2, 3, 4]),
    n=st.integers(1, 4),
)
def test_conversion_gaps_match_reference(token, p, m, n):
    space = window(token)
    rows = a_infinity_family(space, [n], p).levels[n]
    ref_rows = ref_tents(space, n, p)
    pairs = np.array(ref_pairs(space))
    u, v = rows[pairs[:, 0]], rows[pairs[:, 1]]
    power_lhs, power_rhs = power_conversion_gap(u, v, p, m)
    if p > 1:
        holder_lhs, holder_rhs = holder_conversion_gap(u, v, p)
    e = p / m
    q = p / (p - 1.0) if p > 1 else None
    for k, (i, j) in enumerate(pairs):
        a, b = ref_rows[i], ref_rows[j]
        powered = ref_dist([x**e for x in a], [y**e for y in b], m) ** m
        assert abs(power_lhs[k] - powered) <= TOL
        assert abs(power_rhs[k] - ref_dist(a, b, p) ** p) <= TOL
        if p > 1:
            assert abs(holder_lhs[k] - ref_dist([x**p for x in a], [y**p for y in b], 1)) <= TOL
            assert abs(holder_rhs[k] - 2.0 ** (1.0 / q) * p * ref_dist(a, b, p)) <= TOL


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_heisenberg_fill_matches_reference(radius):
    spec = heisenberg_spec()
    space = ball_space(spec, radius)
    assert space.d.dtype == np.int16
    assert space.d.tolist() == ref_distances(spec, space.points, radius)


@pytest.mark.parametrize("chunk", [1, 4 * 53])  # 53 points at r=3: one row per block; 13 blocks of 4, then 1
def test_fill_does_not_depend_on_block_size(monkeypatch, chunk):
    spec = heisenberg_spec()
    whole = ball_space(spec, 3).d
    monkeypatch.setattr(groups, "_CHUNK_ELEMENTS", chunk)
    assert np.array_equal(ball_space(spec, 3).d, whole)


def test_fill_rejects_differences_that_leave_the_table():
    spec = heisenberg_spec()
    shifted = dataclasses.replace(spec, differences=lambda x, y: spec.differences(x, y) + (0, 0, 1000))
    with pytest.raises(AuditFailed):
        ball_space(shifted, 2)


int_arrays = st.sampled_from([np.int16, np.int32, np.int64]).flatmap(
    lambda dtype: st.sampled_from([3, int(np.iinfo(dtype).max)]).flatmap(
        lambda bound: arrays(
            dtype,
            array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
            elements=st.integers(-bound, bound),
        )
    )
)
other_arrays = st.one_of(
    arrays(np.bool_, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)),
    arrays(np.float64, array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3),
           elements=st.floats(-1e6, 1e6)),
)
payloads = st.recursive(
    st.one_of(int_arrays, other_arrays, st.integers(-9, 9), st.text("abc", max_size=3)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text("xyz", min_size=1, max_size=2), children, max_size=3),
    ),
    max_leaves=8,
)


@settings(SETTINGS, max_examples=200)
@given(obj=payloads)
def test_array_emission_matches_lists(obj):
    assert canonical_json(obj) == canonical_json(ref_lists(obj))


def test_array_emission_refuses_a_string_that_looks_like_a_slot():
    with pytest.raises(ValueError):
        canonical_json({"a": np.arange(2), "b": "\x00array0\x00"})
