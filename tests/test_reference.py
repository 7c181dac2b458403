"""Differential check of the array scans against a dict-free reference.

The reference below uses lists and explicit loops over pairs only: tents
and distance-to-complement rows come straight from their definitions,
and every sup, slack and conversion gap is a plain loop.  The library's
variation reports, embedding audit and conversion gaps must agree with it
to 1e-12 on small windows of four groups, and the blocked scan for
close pairs must list the loop's pairs, strided alike.  Two more array
paths have a plain reference here: the window fill of every group (the
closed forms of Z^n, cyclic, free, Heisenberg and wreath groups, against
a loop over pairs looking norms up in the BFS table) and the emission of
integer arrays (the same payload with every array turned into lists
first).  The cover audits have one too: `independent_audit` and the
subset oracle must return exactly what their full-row and per-cell forms
return, and the cityblock metrics of Z^k and cyclic windows match a loop
over pairs.  The extension cover built by each of its callers must have
the masks and z points of a per-point loop over the same inputs, which
tests membership in the BFS table of the R-ball where the library reads
the declared metric; the lamplighter cover keyed by lamp class must have
the members and z points of the same loop, which reads each point's
class off the kernel points within R of it in that table; and
`shrink_to_irreducible` must keep the cores its old restart loop kept.
Every cover construction keeps its point-list form: the bricks,
intervals, chains, rotated bricks, grown families and lamp-class
members built from integer keys must have the masks, labels, set order
and meta of the same points grouped one at a time into lists and
deduplicated as frozensets.
The dense passes keep their earlier forms as oracles: the int64
`np.select` Heisenberg kernel, full rows for the half-triangle fill, the
`np.ix_` gathers for complement distances and diameters, the
whole-matrix symmetry test with the int64-widened triangle loop, which
must name the same error and witness (a float matrix is refused before
either runs), and the points x points Gram matrix of a partition of
unity, whose weights the blocked scan must match bit for bit.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from coarsekit import _jsonutil, cli, dimension, groups, metric, property_a
from coarsekit._jsonutil import SCHEMA, canonical_json
from coarsekit.covers import (
    Cover,
    ball_cover,
    brick_cover_zl,
    brick_families_zl,
    coordinate_interval_cover,
    extension_cover,
    extension_split,
    families_to_cover,
    partition_of_unity,
    shrink_to_irreducible,
    split_along,
    wreath_cover,
)
from coarsekit.covers.base import _drop_nested
from coarsekit.dimension import gromov_profile, independent_audit
from coarsekit.errors import (
    AuditFailed,
    DegenerateDenominator,
    NotCovering,
    NotDisjoint,
    PreconditionFailed,
    SubsequenceUnavailable,
    TooLarge,
)
from coarsekit.groups import (
    ball_elements,
    ball_space,
    cyclic_spec,
    free_spec,
    group_from_token,
    heisenberg_spec,
    lamplighter_spec,
    within,
    word_norm_table,
    zn_spec,
)
from coarsekit.metric import INF, FiniteMetricSpace, point_label
from coarsekit.property_a import (
    CERT_TOL,
    a_infinity_family,
    coarse_embedding,
    convert_down_to_1,
    convert_up,
    family_from_covers,
    holder_conversion_gap,
    power_conversion_gap,
    variation_report,
)
from oracles import (
    dist,
    indices,
    masks_of,
    ref_close_pair,
    ref_dist,
    ref_norm,
    ref_pairs,
    ref_partition_of_unity,
    ref_variation,
    sets_of,
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


def ref_unit(u, p):
    scale = 1.0 / ref_norm(u, p)
    return [scale * x for x in u]


def ref_tents(space, n, p):
    """Row z, column x: max(1 - d(x, z)/n, 0), then made unit for finite p."""
    rows = []
    for z in space.points:
        row = [max(1.0 - dist(space, x, z) / n, 0.0) for x in space.points]
        rows.append(row if p == INF else ref_unit(row, p))
    return rows


def ref_cover_rows(cover, p):
    """Row z carries d(z, X minus U) at the private point of each member U."""
    space = cover.space
    pts = space.points
    private = cover.meta["private"]
    rows = []
    for z in pts:
        row = [0.0] * len(pts)
        for k, members in zip(private, sets_of(cover)):
            outside = [x for x in pts if x not in members]
            depth = min(dist(space, z, x) for x in outside) if outside else space.diameter() + 1
            row[k] = float(depth)
        rows.append(ref_unit(row, p))
    return rows


def ref_distances(spec, points, radius):
    """d(x, y) = |x^{-1} y|, one pair at a time, from the radius-2r BFS table."""
    table = word_norm_table(spec, 2 * radius)
    inverses = [spec.inverse(x) for x in points]
    return [[table[spec.multiply(xi, y)] for y in points] for xi in inverses]


def ref_shrink_survivors(cover, n):
    """Labels of the cores kept by dropping the first core whose every
    point another kept core also covers, then starting over."""
    cores = cover.masks & (ref_complement_distances(cover) > n)
    kept = [i for i in range(len(cover)) if cores[i].any()]
    changed = True
    while changed:
        changed = False
        counts = cores[kept].sum(axis=0)
        for i in kept:
            if (counts[cores[i]] >= 2).all():
                kept.remove(i)
                changed = True
                break
    return [cover.labels[i] for i in kept]


def ref_heisenberg_rows(points):
    """Blachère's word length in int64 with np.select, which evaluates all
    three cases on every cell of a block of rows against every column."""
    x = np.array(points)

    def rows(block):
        ai, bi, ci = (x[block, None, k] for k in range(3))
        a, b = x[:, 0] - ai, x[:, 1] - bi
        c = x[:, 2] - ci - ai * b
        c = np.where((a < 0) != (b < 0), -c, c)
        a, b = np.abs(a), np.abs(b)
        c = np.maximum(c, a * b - c)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return np.select(
            [c <= lo * hi, c <= hi * hi],
            [lo + hi, 2 * -(-c // np.maximum(hi, 1)) + hi - lo],
            2 * np.ceil(np.sqrt(4 * c)).astype(np.int64) - lo - hi,
        )

    return rows


def ref_complement_distances(cover):
    """d(x, X minus U) through one np.ix_ gather of U's rows and the
    complement's columns per member; inf rows for whole-space members."""
    comp = np.zeros(cover.masks.shape)
    for i, row in enumerate(cover.masks):
        inside, outside = np.flatnonzero(row), np.flatnonzero(~row)
        if outside.size == 0:
            comp[i] = INF
        else:
            comp[i, inside] = cover.space.d[np.ix_(inside, outside)].min(axis=1)
    return comp


def ref_validate(points, d):
    """(message, witness) of the first failed check of the whole-matrix
    symmetry test and the triangle loop, or None.  The integer matrix is
    widened to int64 first, so no sum wraps; sampled triples are the
    little-endian 32-bit words of one ``random.Random(0).randbytes`` call,
    mod n."""
    d = d.astype(np.int64)
    if not np.array_equal(d, d.T):
        return "distance matrix not symmetric", None
    if np.any(np.diagonal(d) != 0):
        return "nonzero diagonal", None
    if d.min() < 0:
        return "negative distance", None
    if np.count_nonzero(d <= 0) > len(points):
        return "distinct points at distance 0", None
    n = len(points)
    if n <= 500:
        for k in range(n):
            through_k = d[:, k : k + 1] + d[k : k + 1, :]
            if np.any(d > through_k):
                i, j = np.argwhere(d > through_k)[0]
                return "triangle inequality fails", [str(points[i]), str(points[k]), str(points[j])]
    else:
        words = np.frombuffer(random.Random(0).randbytes(12 * 100_000), dtype="<u4")
        ijk = words.reshape(-1, 3) % n
        lhs = d[ijk[:, 0], ijk[:, 2]]
        rhs = d[ijk[:, 0], ijk[:, 1]] + d[ijk[:, 1], ijk[:, 2]]
        if np.any(lhs > rhs):
            return "triangle inequality fails", [str(points[i]) for i in ijk[np.argmax(lhs > rhs)]]
    return None


def ref_lists(value):
    """The payload with every array replaced by its nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {k: ref_lists(v) for k, v in value.items()}
    if isinstance(value, list):
        return [ref_lists(v) for v in value]
    return value


def ref_independent_audit(cover):
    """(multiplicity, Lebesgue surrogate, diameter) with every point's
    distance to every complement, on a float copy of the whole matrix."""
    d = cover.space.d.astype(float)
    masks = cover.masks
    mult = int(masks.sum(axis=0).max())
    depth = np.zeros(len(cover.space.points))
    for row in masks:
        comp = ~row
        dist = d[:, comp].min(axis=1) if comp.any() else np.full(len(row), INF)
        np.maximum(depth, dist, out=depth)
    lam = float(depth.min())
    diam = 0.0
    for row in masks:
        idx = np.flatnonzero(row)
        if len(idx):
            diam = max(diam, float(d[np.ix_(idx, idx)].max()))
    return mult, lam, diam


def ref_find_uncovered_subset(cover, lam, cap):
    """The subset oracle's DFS reading one matrix cell and one mask cell at
    a time (integer windows, so no tolerance); returns (witness or None,
    nodes visited)."""
    d = cover.space.d
    n = len(cover.space.points)
    point_bits = []
    for x in range(n):
        b = 0
        for i in range(len(cover)):
            if cover.masks[i, x]:
                b |= 1 << i
        point_bits.append(b)
    nodes = 0

    def dfs(chosen, mask, candidates):
        nonlocal nodes
        nodes += 1
        if nodes > cap:
            raise TooLarge("subset enumeration exceeded cap", cap=cap, lam=lam)
        if mask == 0:
            return chosen
        remaining = mask
        for c in candidates:
            remaining &= point_bits[c]
        if remaining:
            return None
        for k, c in enumerate(candidates):
            narrowed = [c2 for c2 in candidates[k + 1 :] if d[c, c2] <= lam]
            hit = dfs(chosen + [c], mask & point_bits[c], narrowed)
            if hit is not None:
                return hit
        return None

    for x in range(n):
        cand = [y for y in range(x + 1, n) if d[x, y] <= lam]
        hit = dfs([x], point_bits[x], cand)
        if hit is not None:
            return tuple(cover.space.points[i] for i in hit), nodes
    return None, nodes


def ref_cityblock(points, m=None):
    """Sum of coordinate gaps per pair; folded to min(g, m - g) for Z/m."""
    out = []
    for x in points:
        row = []
        for y in points:
            gap = sum(abs(a - b) for a, b in zip(x, y)) if m is None else abs(x - y)
            row.append(gap if m is None else min(gap, m - gap))
        out.append(row)
    return out


def ref_anchors(G, window, pi, U):
    """(i, strip, z) per U member with a nonempty preimage, z the deepest
    strip point by comparing (-depth, norm, key) tuples."""
    quotient, comp_u = U.space, ref_complement_distances(U)
    unit = window._index.get(G.unit)
    for i in range(len(U)):
        strip = [w for w in window.points if U.masks[i, quotient.index(pi(w))]]
        if strip:
            z = min(
                strip,
                key=lambda w: (
                    -comp_u[i, quotient.index(pi(w))],
                    0 if unit is None else window.d[window.index(w), unit],
                    w,
                ),
            )
            yield i, strip, z


def ref_extension(G, window, pi, U, V, R):
    """Sets and z points of the extension cover, by per-point loops: the
    deepest preimage of each U member by comparing (-depth, norm, key)
    tuples, and each strip point tested against every core element by
    looking s^{-1} z^{-1} w up in the BFS table of the R-ball."""
    kernel = V.space
    small_ball = set(word_norm_table(G, R))
    comp_v = ref_complement_distances(V)
    cores = [
        [s for k, s in enumerate(kernel.points) if V.masks[j, k] and comp_v[j, k] > 2 * R]
        for j in range(len(V))
    ]
    sets, z_points = [], {}
    for i, strip, z in ref_anchors(G, window, pi, U):
        z_points[U.labels[i]] = point_label(z)
        for core in cores:
            members = tuple(
                w for w in strip
                if any(G.multiply(G.inverse(s), G.multiply(G.inverse(z), w)) in small_ball for s in core)
            )
            if members:
                sets.append(members)
    return sets, z_points


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
    safe = [i for i, z in enumerate(space.points) if space.window_radius - dist(space, z, space.center) >= margin]
    checked, upper, lower, buckets = 0, 0.0, 0.0, {}
    for a in range(len(safe)):
        for c in range(a + 1, len(safe)):
            i, j = safe[a], safe[c]
            t = dist(space, space.points[i], space.points[j])
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
    family = family_from_covers(covers, p)
    report = variation_report(family, [K])
    expected_rows = {n: ref_cover_rows(covers[n], p) for n in levels}
    for n in levels:
        expected = ref_variation(space, expected_rows[n], K, p)
        assert abs(report.measured[K][n] - expected) <= TOL
    # each level, scattered back to one coordinate per window point, is the
    # dense reference, also after either exponent conversion
    converted = [(family, 1), (convert_up(family, 3), p / 3)]
    if p >= 2:
        converted.append((convert_down_to_1(family), p))
    for each, power in converted:
        for n in levels:
            dense = np.zeros((len(space), len(space)))
            dense[:, each.columns[n]] = each.levels[n]
            assert np.abs(dense - np.array(expected_rows[n]) ** power).max() <= TOL


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


@pytest.mark.parametrize("rows_per_block", [1, 3, 1000])
@pytest.mark.parametrize("pair_cap", [7, 20_000_000])
def test_pairs_within_match_reference(monkeypatch, rows_per_block, pair_cap):
    monkeypatch.setattr(property_a, "PAIR_CAP", pair_cap)
    for token in TOKENS:
        space = window(token)
        monkeypatch.setattr(metric, "_BLOCK_BYTES", rows_per_block * len(space))
        for K in (1, 2, 3):
            expected = ref_pairs(space, K)
            stride = max(1, -(-len(expected) // pair_cap))
            idx, got = property_a._pairs_within(space, K)
            assert got == stride
            assert idx.tolist() == [list(pair) for pair in expected[::stride]]


def test_pairs_within_temporaries_stay_bounded():
    # 3,001 points in int16: an 18 MB matrix, against blocks of 128 KiB
    space = ball_space(zn_spec(1), 1500)
    tracemalloc.start()
    try:
        idx, stride = property_a._pairs_within(space, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stride == 1 and len(idx) == 3000
    assert peak < 0.1 * space.d.nbytes


FILL_CASES = [
    ("zn:1", 3), ("zn:2", 3), ("zn:3", 2),
    # radius below and above m // 2
    ("cyclic:2", 0), ("cyclic:2", 2), ("cyclic:3", 0), ("cyclic:3", 2), ("cyclic:7", 2), ("cyclic:7", 4),
    ("free:0", 2), ("free:1", 3), ("free:2", 3), ("free:3", 2),
    # wreath products over each tree base, with finite, integer, free and
    # wreath lamps
    ("lamplighter", 4), ("lamplighter", 6), ("wreath:zn:1:zn:1", 4), ("wreath:free:2:cyclic:2", 3),
    ("wreath:zn:1:free:2", 3), ("wreath:free:1:cyclic:2", 4), ("wreath:zn:1:cyclic:3", 4),
    ("wreath:cyclic:2:zn:1", 4), ("wreath:zn:1:lamplighter", 3),
]


@pytest.mark.parametrize("token, radius", FILL_CASES)
def test_fill_matches_bfs_reference(token, radius):
    spec = group_from_token(token)
    space = ball_space(spec, radius)
    # the narrowest signed type that holds 4r, a sum of two window distances
    assert space.d.dtype == (np.int8 if 4 * radius <= 127 else np.int16)
    assert space.d.tolist() == ref_distances(spec, space.points, radius)


@pytest.mark.parametrize("radius", [1, 2, 3, 4, 5])
def test_heisenberg_fill_matches_reference(radius):
    test_fill_matches_bfs_reference("heisenberg", radius)


# At r=3 Heisenberg and free:2 have 53 points, zn:2 25, cyclic:7 7, the
# lamplighter 22 and wreath:free:2:cyclic:2 106.  A strip of the upper
# triangle holds the budget over 8 bytes a kernel cell, so strips widen as
# their rows shorten.  Chunk 1 fills one row per strip; chunk 21 does too
# until the last rows (cyclic:7 takes 3 and then 4); chunk 212 takes strips
# of 4 to 12 rows and then 5 in Heisenberg and free:2, 8, 12 and 5 in zn:2,
# all 7 in cyclic:7, 9 and 13 in the lamplighter, and 2 to 13 in
# wreath:free:2:cyclic:2.
@pytest.mark.parametrize("chunk", [1, 3 * 7, 4 * 53])
def test_fill_does_not_depend_on_block_size(monkeypatch, chunk):
    wreaths = (lamplighter_spec(), group_from_token("wreath:free:2:cyclic:2"))
    for spec in (heisenberg_spec(), free_spec(2), zn_spec(2), cyclic_spec(7), *wreaths):
        whole = ball_space(spec, 3).d
        with monkeypatch.context() as patched:
            patched.setattr(metric, "_BLOCK_BYTES", 8 * chunk)
            assert np.array_equal(ball_space(spec, 3).d, whole)


def test_fill_rejects_distances_that_disagree_with_bfs():
    # l1 on Hall coordinates agrees with the word norm up to (-1,-1,0) and
    # first disagrees at (-1,-1,1) = x^-1 y^-1, of norm 2 but l1 norm 3
    wrong = dataclasses.replace(heisenberg_spec(), distances=zn_spec(3).distances)
    with pytest.raises(AuditFailed) as err:
        ball_space(wrong, 2)
    assert err.value.context["point"] == "(-1,-1,1)"


@pytest.mark.parametrize(
    "token, radius", [("lamplighter", 5), ("wreath:free:2:cyclic:2", 3), ("wreath:zn:1:lamplighter", 3)]
)
def test_wreath_kernel_matches_reference_on_any_points_and_order(token, radius):
    # membership tests hand the kernel translated cores, not a ball in order
    spec = group_from_token(token)
    points = ball_elements(spec, radius)
    rng = random.Random(radius)
    for _ in range(10):
        sub = rng.sample(points, rng.randint(1, 30))
        ref = ref_distances(spec, sub, radius)
        block = rng.sample(range(len(sub)), rng.randint(1, len(sub)))
        cols = rng.sample(range(len(sub)), rng.randint(1, len(sub)))
        d = spec.distances(sub)(np.array(block), np.array(cols))
        assert d.tolist() == [[ref[i][j] for j in cols] for i in block]


def test_heisenberg_closed_form_matches_bfs_both_ways():
    """Every element of the radius-24 BFS table gets its BFS norm, and no
    element outside it gets a norm of 24 or less.  A word of length n has
    |a| + |b| <= n and |c| <= (n/2)^2 (each y letter moves c by at most the
    number of x letters), so that box holds every element the closed form
    could put inside the ball."""
    n, top = 24, 12 * 12
    table = word_norm_table(heisenberg_spec(), n)
    axes = (np.arange(-n, n + 1), np.arange(-n, n + 1), np.arange(-top, top + 1))
    box = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    # the unit first, so row 0 holds the norm of every element of the box
    norms = heisenberg_spec().distances(np.vstack(([0, 0, 0], box)))(slice(0, 1), slice(None))[0, 1:]
    keys = np.array(list(table))
    assert (np.abs(keys).max(axis=0) <= (n, n, top)).all()
    at = np.ravel_multi_index(tuple((keys + (n, n, top)).T), [len(a) for a in axes])
    assert norms[at].tolist() == list(table.values())
    outside = np.ones(len(box), dtype=bool)
    outside[at] = False
    assert norms[outside].min() > n


@pytest.mark.parametrize("radius", range(7))
def test_heisenberg_kernel_matches_the_select_kernel(radius):
    points = ball_elements(heisenberg_spec(), radius)
    new = heisenberg_spec().distances(points)(slice(None), slice(None))
    assert new.tolist() == ref_heisenberg_rows(points)(slice(None)).tolist()


hall_triples = st.lists(
    st.tuples(st.integers(-1000, 1000), st.integers(-1000, 1000), st.integers(-20_000_000, 20_000_000)),
    min_size=1,
    max_size=40,
    unique=True,
)


@settings(SETTINGS, max_examples=200)
@given(points=hall_triples)
def test_heisenberg_kernel_matches_the_select_kernel_on_hall_triples(points):
    # one row against all columns and a strip of rows against the rest
    rows, ref = heisenberg_spec().distances(points), ref_heisenberg_rows(points)
    whole = ref(slice(None))
    assert rows(slice(None), slice(None)).tolist() == whole.tolist()
    half = len(points) // 2
    assert rows(slice(half, None), slice(half, None)).tolist() == whole[half:, half:].tolist()


# 8 (3 A^2 + C) is 32,760 at A = 36, C = 207, the last window the int16
# kernel takes, and 2^15 one step of C past it
@pytest.mark.parametrize("A, C, dtype", [(36, 207, np.int16), (36, 208, np.int32)])
def test_heisenberg_kernel_types_match_the_select_kernel(A, C, dtype):
    rng = random.Random(C)
    corners = [(a, b, c) for a in (-A, 0, A) for b in (-A, 0, A) for c in (-C, 0, C)]
    inner = [(rng.randint(-A, A), rng.randint(-A, A), rng.randint(-C, C)) for _ in range(300)]
    points = sorted(set(corners + inner))
    d = heisenberg_spec().distances(points)(slice(None), slice(None))
    assert d.dtype == dtype
    assert d.tolist() == ref_heisenberg_rows(points)(slice(None)).tolist()


def test_heisenberg_kernel_refuses_coordinates_that_overflow_int32():
    with pytest.raises(PreconditionFailed):
        heisenberg_spec().distances([(0, 0, 0), (0, 0, 300_000_000)])


def spy_on_tables(monkeypatch):
    """The (points, box shape) of every Heisenberg length table built."""
    built, build = [], groups._heisenberg_table

    def spy(x, side, depth):
        table, index = build(x, side, depth)
        built.append((len(x), table.shape))
        return table, index

    monkeypatch.setattr(groups, "_heisenberg_table", spy)
    return built


# a budget of one byte builds the table one a-plane at a time, 2^24 bytes
# in one block
@pytest.mark.parametrize("budget", [1, None, 1 << 24])
@pytest.mark.parametrize("radius, n, box", [(7, 1069, (29, 29, 245)), (8, 1793, (33, 33, 321))])
def test_heisenberg_table_matches_the_select_kernel(monkeypatch, radius, n, box, budget):
    built = spy_on_tables(monkeypatch)
    points = ball_elements(heisenberg_spec(), radius)
    with monkeypatch.context() as patched:
        if budget is not None:
            patched.setattr(metric, "_BLOCK_BYTES", budget)
        rows = heisenberg_spec().distances(points)
    ref = ref_heisenberg_rows(points)
    assert built == [(n, box)]
    for start in range(0, n, 256):
        block = slice(start, start + 256)
        d = rows(block, slice(None))
        assert d.dtype == np.int16
        assert d.tolist() == ref(block).tolist()
    assert np.array_equal(ball_space(heisenberg_spec(), radius).d, rows(slice(None), slice(None)))


@pytest.mark.parametrize("radius", [7, 8])
def test_heisenberg_table_index_names_each_pair_inside_the_box(radius):
    points = ball_elements(heisenberg_spec(), radius)
    x = np.array(points)
    A, C = np.abs(x[:, :2]).max(), np.abs(x[:, 2]).max()
    side, depth = 2 * A, 2 * (C + A * A)
    table, index = groups._heisenberg_table(x.astype(np.int16), side, depth)
    at = index(slice(None), slice(None))
    assert at.dtype == np.int32
    assert 0 <= at.min() and at.max() < table.size
    # the position decodes to x_i^{-1} x_j, computed in int64
    a, b, c = np.unravel_index(at, table.shape)
    ai, bi, ci = x[:, None, 0], x[:, None, 1], x[:, None, 2]
    assert np.array_equal(a - side, x[:, 0] - ai)
    assert np.array_equal(b - side, x[:, 1] - bi)
    assert np.array_equal(c - depth, x[:, 2] - ci - ai * (x[:, 1] - bi))


def test_heisenberg_lengths_take_the_table_only_when_it_is_small(monkeypatch):
    built = spy_on_tables(monkeypatch)
    for radius in range(7):
        ball_space(heisenberg_spec(), radius)
    # Hall triples as wide as the hypothesis test draws
    rng = random.Random(0)
    wide = [
        (rng.randint(-1000, 1000), rng.randint(-1000, 1000), rng.randint(-20_000_000, 20_000_000)) for _ in range(40)
    ]
    heisenberg_spec().distances(wide)(slice(None), slice(None))
    # a membership test shaped like gromov r9's: 9 sources against the
    # 1,793-point r8 ball read 16,137 cells, so no 349,569-element box,
    # which a gate on all 1,802^2 ordered pairs would build
    sources = [(0, 0, c) for c in range(-4, 5)]
    targets = ball_elements(heisenberg_spec(), 8)
    near = within(heisenberg_spec(), 3)(sources, targets)
    assert built == []
    d = ref_heisenberg_rows(sources + targets)(slice(0, len(sources)))[:, len(sources) :]
    assert near.tolist() == (d <= 3).any(axis=0).tolist()
    ball_space(heisenberg_spec(), 7)
    assert built == [(1069, (29, 29, 245))]


# central points (0, 0, c): a box of 4C + 1 elements, so 300 points take the
# table; 8 (3 A^2 + C) is 32,760 at C = 4095 and 2^15 at C = 4096
@pytest.mark.parametrize("C, dtype", [(4095, np.int16), (4096, np.int32)])
def test_heisenberg_table_types_match_the_select_kernel(monkeypatch, C, dtype):
    built = spy_on_tables(monkeypatch)
    rng = random.Random(C)
    points = [(0, 0, c) for c in sorted({-C, 0, C, *(rng.randint(-C, C) for _ in range(300))})]
    d = heisenberg_spec().distances(points)(slice(None), slice(None))
    assert built == [(len(points), (1, 1, 4 * C + 1))]
    assert d.dtype == dtype
    assert d.tolist() == ref_heisenberg_rows(points)(slice(None)).tolist()


SYMMETRIC_FILL_CASES = [
    ("zn:1", 5), ("zn:2", 3), ("zn:3", 2), ("cyclic:2", 1), ("cyclic:7", 3),
    ("free:0", 2), ("free:1", 3), ("free:2", 2), ("free:3", 2), ("heisenberg", 3),
]


# the first strip takes 1 row (and so does every later one), 7 rows, or all n
@pytest.mark.parametrize("first_strip", [1, 7, "n"])
@pytest.mark.parametrize("token, radius", SYMMETRIC_FILL_CASES)
def test_symmetric_fill_matches_full_rows(monkeypatch, token, radius, first_strip):
    spec = group_from_token(token)
    points = ball_elements(spec, radius)
    n = len(points)
    full = spec.distances(points)(slice(None), slice(None))
    chunk = 1 if first_strip == 1 else n * (n if first_strip == "n" else first_strip)
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 8 * chunk)  # 8 bytes a kernel cell
    d = ball_space(spec, radius).d
    assert d.tolist() == full.tolist()


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


json_payloads = st.recursive(
    st.one_of(
        int_arrays, other_arrays, st.integers(), st.floats(allow_nan=False), st.text(max_size=3),
        st.booleans(), st.none(),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(max_size=2), children, max_size=3),
    ),
    max_leaves=8,
)


# the writer against json.dumps, on the values the canonical pass leaves
@settings(SETTINGS, max_examples=200)
@given(obj=json_payloads)
def test_emission_matches_json_dumps(obj):
    plain = ref_lists(_jsonutil._canonical(obj))
    assert canonical_json(obj) == json.dumps(plain, sort_keys=True, indent=1, separators=(", ", ": "))


def test_a_string_next_to_an_array_round_trips():
    obj = {"a": np.arange(2), "b": "\x00array0\x00"}
    assert json.loads(canonical_json(obj)) == {"a": [0, 1], "b": "\x00array0\x00"}


def streamed(obj):
    writes = []
    canonical_json(obj, writes.append)
    return writes


# batches from one character up to the default
@settings(SETTINGS, max_examples=200)
@given(obj=payloads, batch=st.sampled_from([1, 7, 1 << 20]))
def test_streamed_emission_matches_the_returned_text(obj, batch):
    with mock.patch.object(_jsonutil, "_BATCH_CHARS", batch):
        writes = streamed(obj)
        assert "".join(writes) == canonical_json(obj) + "\n"
    assert max(map(len, writes)) <= batch


@pytest.mark.parametrize(
    "obj",
    [
        {"plain": [1, 2.5, "x", None, {"inf": float("inf")}]},
        np.arange(24, dtype=np.int16).reshape(2, 3, 4),
        [np.zeros(0, dtype=int), np.zeros((2, 0), dtype=int), np.zeros((0, 3), dtype=np.int8)],
        {"a": {"b": [np.arange(-3, 3), {"c": np.arange(6).reshape(3, 2)}]}, "d": np.array([7])},
    ],
)
def test_streamed_emission_of_nested_and_empty_arrays(obj):
    for batch in (1, 5, 1 << 20):
        with mock.patch.object(_jsonutil, "_BATCH_CHARS", batch):
            assert "".join(streamed(obj)) == canonical_json(ref_lists(obj)) + "\n"


def first_difference(got, want):
    """None for equal texts, else the offset and the 40 characters from
    there of each: a cheap report where a diff of long texts is not."""
    if got == want:
        return None
    at = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
    return at, got[at : at + 40], want[at : at + 40]


def spanning(shape, lo, span, dtype):
    """A seeded array of ``shape`` whose values fill [lo, lo + span) and
    reach both ends."""
    values = np.random.default_rng(span).integers(lo, lo + span, size=shape, dtype=np.int64)
    flat = values.reshape(-1)
    flat[0], flat[-1] = lo, lo + span - 1
    return values.astype(dtype)


# Rows over a range of V values are read in k-grams, k the largest with
# 64 V^k <= size (at most 3): at V = 3, triples from 1,728 elements, pairs
# from 576.  Rows of 9, 10 and 11 values leave tails of 0, 1 and 2 values
# after the triples, rows of 10 and 11 tails of 0 and 1 after the pairs.
KGRAM_CASES = [
    ((192, 9), 0, 3, 3), ((173, 10), -1, 3, 3), ((158, 11), -2, 3, 3),
    ((4, 48, 9), -128, 3, 3), ((2, 87, 10), 5, 3, 3), ((3, 53, 11), -32768, 3, 3),
    ((60, 10), -1, 3, 2), ((55, 11), 0, 3, 2), ((2, 30, 10), -3, 3, 2), ((5, 11, 11), 125, 3, 2),
    # one value (V = 1) in triples, with a tail of 1 and of 2
    ((10, 7), 5, 1, 3), ((2, 4, 8), -7, 1, 3), ((64,), 0, 1, 3),
    # single values, V above size / 64; v - lo wraps in int8 and in int16
    ((16, 20), -128, 256, 1), ((30, 31), -400, 900, 1), ((200, 200), -32768, 40_000, 1),
    # a range wider than the array, written value by value
    ((8, 5), -1000, 2001, None), ((2, 3, 4), -32768, 65536, None), ((3, 4), -128, 256, None),
]


@pytest.mark.parametrize(
    "shape, lo, span, k, dtype",
    [
        (*case, dtype)
        for case in KGRAM_CASES
        for dtype in (np.int8, np.int16)
        if np.iinfo(dtype).min <= case[1] and case[1] + case[2] - 1 <= np.iinfo(dtype).max
    ],
)
def test_integer_rows_match_json_dumps(shape, lo, span, k, dtype):
    array = spanning(shape, lo, span, dtype)
    if k is not None:
        assert _jsonutil._gram_width(span, array.size) == k
    obj = {"m": array, "n": [array[:1]]}
    text = json.dumps(ref_lists(obj), sort_keys=True, indent=1, separators=(", ", ": "))
    assert first_difference(canonical_json(obj), text) is None
    bare = json.dumps(array.tolist(), indent=1, separators=(", ", ": "))
    assert first_difference(canonical_json(array), bare) is None
    for batch in (1, 7, 1 << 20):
        with mock.patch.object(_jsonutil, "_BATCH_CHARS", batch):
            writes = streamed(obj)
        assert first_difference("".join(writes), text + "\n") is None
        assert max(map(len, writes)) <= batch


@pytest.mark.parametrize(
    "obj",
    [
        {"a": np.arange(3), "b": float("nan")},
        [np.arange(2), {"c": np.array([1.0, float("nan")])}],
        {"a": np.arange(2), "b": [1, {2, 3}]},
    ],
)
def test_streamed_emission_writes_nothing_before_it_raises(obj):
    writes = []
    with pytest.raises(ValueError):
        canonical_json(obj, writes.append)
    assert writes == []


class HashingSink:
    """A stdout that keeps only the length and the digest of its text."""

    def __init__(self):
        self.chars, self.digest = 0, hashlib.sha256()

    def write(self, text):
        self.chars += len(text)
        self.digest.update(text.encode())


def test_emit_streams_the_r8_ball_within_a_few_mb():
    # the payload of `ball --group heisenberg --radius 8`: 1,793 points,
    # 24 MB of text from a 3.2 MB matrix
    space = ball_space(heisenberg_spec(), 8)
    payload = {"schema": SCHEMA, "group": "heisenberg", "radius": 8, **space.to_json()}
    sink = HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            cli._emit(payload)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
    text = canonical_json(payload) + "\n"
    assert sink.chars == len(text) > 24_000_000
    assert sink.digest.hexdigest() == hashlib.sha256(text.encode()).hexdigest()


AUDIT_TOKENS = ["heisenberg", "zn:1", "zn:2"]


@st.composite
def member_masks(draw, token):
    """Random members of a window: arbitrary sets (leaving points uncovered
    unless something covers them), singletons, possibly the whole space,
    and repeats of earlier members, in a drawn order."""
    n = len(window(token))
    rows = draw(st.lists(arrays(np.bool_, n).filter(np.any), min_size=1, max_size=5))
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        rows.append(np.arange(n) == i)
    if draw(st.booleans()):
        rows.append(np.ones(n, dtype=bool))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))
    return draw(st.permutations(rows))


def cover_from_masks(space, rows):
    return Cover(space, np.array(rows), require_total=False)


def test_independent_audit_matches_reference(monkeypatch):
    seen = set()

    @settings(SETTINGS, max_examples=80)
    @given(data=st.data(), token=st.sampled_from(AUDIT_TOKENS))
    def check(data, token):
        cover = cover_from_masks(window(token), data.draw(member_masks(token)))
        assert independent_audit(cover) == ref_independent_audit(cover)
        rows = {row.tobytes() for row in cover.masks}
        seen.update(
            name
            for name, hit in [
                ("uncovered", not cover.covered_mask().all()),
                ("whole space", cover.masks.all(axis=1).any()),
                ("singleton", (cover.masks.sum(axis=1) == 1).any()),
                ("duplicate", len(rows) < len(cover)),
            ]
            if hit
        )

    # at the default block size, then one row per block, so every member
    # of more than one point takes the multi-block path
    check()
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 1)
    check()
    assert seen == {"uncovered", "whole space", "singleton", "duplicate"}


@pytest.mark.parametrize("rows_per_chunk", [1, 2, 7])
def test_independent_audit_chunks_match_reference(monkeypatch, rows_per_chunk):
    space = window("zn:2")
    monkeypatch.setattr(metric, "_BLOCK_BYTES", rows_per_chunk * len(space) * space.d.itemsize)
    pts = space.points
    two, whole = (Cover(space, masks_of(space, sets)) for sets in ([pts[:-1], pts[-2:]], [pts]))
    for cover in (ball_cover(space, 1), two, whole):
        assert independent_audit(cover) == ref_independent_audit(cover)


def test_independent_audit_temporaries_stay_bounded():
    # 3,001 points in int16: an 18 MB matrix, against member-row chunks of
    # at most 2**20 cells
    space = ball_space(zn_spec(1), 1500)
    pts = space.points
    cover = Cover(space, masks_of(space, [pts[:-1], pts[-2:]]))
    tracemalloc.start()
    try:
        result = independent_audit(cover)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * space.d.nbytes
    assert result == (2, 1.0, 3000.0)


def test_independent_audit_calls_no_cover_statistic(monkeypatch):
    cover = ball_cover(window("zn:2"), 1)
    expected = ref_independent_audit(cover)

    def refuse(*args, **kwargs):
        raise AssertionError("independent_audit must not reuse Cover statistics")

    for name in ("complement_distances", "depth", "stats", "diameters"):
        monkeypatch.setattr(Cover, name, refuse)
    assert independent_audit(cover) == expected


def assert_same_search(cover, lam):
    """Same witness (or None) as the reference, after exactly as many nodes."""
    witness, nodes = ref_find_uncovered_subset(cover, lam, cap=1_000_000)
    assert cover.find_uncovered_subset(lam, cap=nodes) == witness
    with pytest.raises(TooLarge):
        cover.find_uncovered_subset(lam, cap=nodes - 1)


@settings(SETTINGS, max_examples=80)
@given(data=st.data(), token=st.sampled_from(AUDIT_TOKENS))
def test_complement_distances_match_the_ix_gather(data, token):
    space = window(token)
    n = len(space)
    rows = list(data.draw(member_masks(token)))
    # members larger than half the space: all but one point
    rows += [np.arange(n) != i for i in data.draw(st.lists(st.integers(0, n - 1), max_size=2))]
    expected = ref_complement_distances(cover_from_masks(space, rows))
    whole = np.isinf(expected).all(axis=1)
    diameters = tuple(space.d[np.ix_(idx, idx)].max().item() for idx in map(np.flatnonzero, rows))
    # whole members in one block of rows, and one row per block
    for budget in (metric._BLOCK_BYTES, 1):
        with mock.patch.object(metric, "_BLOCK_BYTES", budget):
            cover = cover_from_masks(space, rows)
            comp = cover.complement_distances()
            # a signed type holding twice the largest distance; whole-space
            # rows read its maximum, every other row the reference
            top = np.iinfo(comp.dtype).max
            assert comp.dtype.kind == "i" and 2 * space.d.max() <= top
            assert (comp[whole] == top).all()
            assert np.array_equal(comp[~whole], expected[~whole])
            assert cover.diameters() == diameters


@pytest.mark.parametrize("whole", [False, True])
@settings(SETTINGS, max_examples=40)
@given(data=st.data(), token=st.sampled_from(AUDIT_TOKENS))
def test_cores_shrink_by_the_reference_complement_distances(whole, data, token):
    space = window(token)
    n = len(space)
    rows = [row for row in data.draw(member_masks(token)) if not row.all()] or [np.arange(n) == 0]
    if whole:
        rows.append(np.ones(n, dtype=bool))
    cover = cover_from_masks(space, rows)
    expected = ref_complement_distances(cover)
    top = np.iinfo(cover.complement_distances().dtype).max
    for t in (0, 1, top - 1, top, 10**6):
        assert np.array_equal(cover.cores(t), cover.masks & (expected > t))


def assert_same_partition(cover):
    """The dense formula's weights bit for bit and its Lipschitz constant to
    1e-12 relative, or its ``DegenerateDenominator`` payload, under the
    default budget and one row per block."""
    try:
        phi, measured = ref_partition_of_unity(cover)
    except DegenerateDenominator as err:
        phi, expected = None, (str(err), err.context)
    for budget in (metric._BLOCK_BYTES, 1):
        with mock.patch.object(metric, "_BLOCK_BYTES", budget):
            if phi is None:
                with pytest.raises(DegenerateDenominator) as raised:
                    partition_of_unity(cover)
                assert (str(raised.value), raised.value.context) == expected
                continue
            pou, got = partition_of_unity(cover)
            assert pou.matrix.dtype == phi.dtype and pou.matrix.tobytes() == phi.tobytes()
            assert got == pytest.approx(measured, rel=TOL, abs=0)


@pytest.mark.parametrize(
    "token, radius, build, size",
    [("zn:1", 12, "ball", 4), ("zn:2", 14, "ball", 4), ("zn:2", 14, "brick", 2),
     ("heisenberg", 3, "ball", 2), ("free:2", 3, "ball", 1),
     ("zn:1", 5, "ball", 400)],  # every ball is the whole space
)
def test_partition_of_unity_matches_the_dense_formula(token, radius, build, size):
    construct = {"ball": ball_cover, "brick": brick_cover_zl}[build]
    assert_same_partition(construct(ball_space(group_from_token(token), radius), size))


@settings(SETTINGS, max_examples=60)
@given(data=st.data(), token=st.sampled_from(AUDIT_TOKENS))
def test_partition_of_unity_of_drawn_covers_matches_the_dense_formula(data, token):
    # drawn members leave points uncovered (no member has positive
    # complement distance there) unless a whole-space member is drawn
    assert_same_partition(cover_from_masks(window(token), list(data.draw(member_masks(token)))))


# one row (or one pair, or one triple) per block, against the default budget
@pytest.mark.parametrize(
    "argv",
    [
        ["gromov", "--group", "heisenberg", "--cap", "6", "--lambda", "1..2", "--radius", "5"],
        ["certify-a", "--group", "zn:2", "--radius", "6", "--p", "2", "--n", "2..4", "--K", "1,2"],
        ["embed", "--group", "zn:1", "--radius", "40", "--p", "2", "--levels", "3,7,15,28", "--budget", "4"],
    ],
)
def test_outputs_do_not_depend_on_the_block_budget(monkeypatch, capsys, argv):
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(metric, "_BLOCK_BYTES", 1)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole


def assert_same_validation(points, d):
    expected = ref_validate(points, d)
    if expected is None:
        FiniteMetricSpace(points, d)
        return None
    with pytest.raises(PreconditionFailed) as err:
        FiniteMetricSpace(points, d)
    assert (str(err.value), err.value.context.get("witness")) == expected
    return expected


def planted(d, cells, value):
    d = d.copy()
    for i, j in cells:
        d[i, j] = value
    return d


# zn:1 at r=10 and r=200 (21 and 401 points, one and two symmetry tiles)
# and r=300 (601 points, sampled triples)
@pytest.mark.parametrize(
    "radius, case",
    [
        (10, "metric"), (10, "triangle"), (10, "two-triangles"), (10, "diagonal"), (10, "zero"),
        (200, "metric"), (200, "triangle"), (200, "asymmetric-first"),
        (200, "asymmetric-late"), (200, "asymmetric-off-diagonal"),
        (300, "metric"), (300, "triangle-wide"),
    ],
)
def test_validation_matches_the_reference_loop(radius, case):
    points = list(range(-radius, radius + 1))
    d = np.abs(np.subtract.outer(points, points)).astype(np.int16)
    n = len(points)
    d = {
        "metric": lambda: d,
        "triangle": lambda: planted(d, [(2, n - 3), (n - 3, 2)], 2 * n),
        "two-triangles": lambda: planted(d, [(1, 5), (5, 1), (3, 4), (4, 3)], 9),
        "diagonal": lambda: planted(d, [(3, 3)], 1),
        "zero": lambda: planted(d, [(3, 4), (4, 3)], 0),
        "asymmetric-late": lambda: planted(d, [(n - 1, 300)], d[n - 1, 300] + 1),
        "asymmetric-off-diagonal": lambda: planted(d, [(n - 1, 10)], d[n - 1, 10] + 1),
        "asymmetric-first": lambda: planted(d, [(0, 1)], 2),
        "triangle-wide": lambda: np.where(d > 300, 1000, d).astype(d.dtype),
    }[case]()
    expected = assert_same_validation(points, d)
    assert (expected is None) == (case == "metric")


@pytest.mark.parametrize(
    "dtype, points",
    [(np.int16, [0, 20000, 30000]), (np.int8, [0, 60, 100]), (np.uint8, [0, 100, 200])],
)
def test_validation_accepts_lines_whose_sums_overflow_the_dtype(dtype, points):
    d = np.abs(np.subtract.outer(points, points)).astype(dtype)
    assert assert_same_validation(points, d) is None
    # the longest distance one more than the path through the middle point
    expected = ("triangle inequality fails", [str(points[0]), str(points[1]), str(points[2])])
    assert assert_same_validation(points, planted(d, [(0, 2), (2, 0)], points[2] + 1)) == expected


def wide_metric(n, dtype, lo):
    """Off-diagonal distances in [lo, 2 lo], which makes any such matrix a
    metric; with lo near half the dtype's maximum most sums of two exceed it."""
    i = np.arange(n)
    d = lo + 7 * np.add.outer(i, i) % (lo + 1)
    np.fill_diagonal(d, 0)
    return d.astype(dtype)


# 9 points (every triple) and 601 (sampled triples); "planted" moves point
# n // 3 to distance lo // 2 from all others, so every pair through it breaks
@pytest.mark.parametrize("n", [9, 601])
@pytest.mark.parametrize("dtype, lo", [(np.int8, 63), (np.uint8, 127), (np.int16, 16383)])
@pytest.mark.parametrize("case", ["metric", "planted"])
def test_validation_of_wide_integer_metrics_matches_reference(n, dtype, lo, case):
    d = wide_metric(n, dtype, lo)
    if case == "planted":
        m = n // 3
        d[m, :] = d[:, m] = lo // 2
        d[m, m] = 0
    expected = assert_same_validation(list(range(n)), d)
    assert (expected is None) == (case == "metric")
    if expected is not None:
        assert expected[1][1] == str(n // 3)


@settings(SETTINGS, max_examples=60)
@given(
    data=st.data(),
    token=st.sampled_from(AUDIT_TOKENS),
    lam=st.integers(0, 4),
    radius=st.sampled_from([None, 0, 1, 2]),
)
def test_subset_oracle_matches_reference(data, token, lam, radius):
    space = window(token)
    if radius is None:
        cover = cover_from_masks(space, data.draw(member_masks(token)))
    else:
        cover = ball_cover(space, radius)
    assert_same_search(cover, lam)


# searches that go deep on the radius-4 plane window (nodes visited noted)
@pytest.mark.parametrize(
    "build, size, lam",
    [
        ("ball", 2, 3),  # 1,075
        ("ball", 3, 4),  # 2,447
        ("ball", 3, 5),  # 180,639
        ("brick", 1, 2),  # 112
        ("brick", 1, 3),  # 252, then a witness
    ],
)
def test_subset_oracle_matches_reference_on_deep_searches(build, size, lam):
    construct = {"ball": ball_cover, "brick": brick_cover_zl}[build]
    assert_same_search(construct(window("zn:2"), size), lam)


# the four covers of the certify-a benchmark (zn:2 r14, n = 2..5) and more
SHRINK_CASES = pytest.mark.parametrize(
    "token, radius, build, size, n",
    [("zn:2", 14, "ball", 2 * n, n) for n in (2, 3, 4, 5)]
    + [("zn:1", 12, "ball", 4, 1), ("zn:1", 12, "ball", 6, 3), ("zn:2", 14, "brick", 2, 0),
       ("heisenberg", 3, "ball", 2, 0), ("free:2", 3, "ball", 2, 1)],
)


@SHRINK_CASES
def test_shrink_keeps_the_cores_of_the_restart_loop(token, radius, build, size, n):
    construct = {"ball": ball_cover, "brick": brick_cover_zl}[build]
    cover = construct(ball_space(group_from_token(token), radius), size)
    assert shrink_to_irreducible(cover, n).labels == ref_shrink_survivors(cover, n)


@SHRINK_CASES
def test_each_private_point_lies_in_its_own_core_alone(token, radius, build, size, n):
    construct = {"ball": ball_cover, "brick": brick_cover_zl}[build]
    shrunk = shrink_to_irreducible(construct(ball_space(group_from_token(token), radius), size), n)
    cores = shrunk.masks & (ref_complement_distances(shrunk) > n)
    private = shrunk.meta["private"]
    assert private.dtype == np.intp and len(private) == len(shrunk)
    for i, k in enumerate(private):
        assert cores[:, k].tolist() == [j == i for j in range(len(shrunk))]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_lattice_metric_matches_reference(k):
    points = ball_elements(zn_spec(k), 4)
    d = zn_spec(k).distances(points)(slice(None), slice(None))
    assert np.issubdtype(d.dtype, np.integer)
    assert d.tolist() == ref_cityblock(points)


@pytest.mark.parametrize("m", [2, 3, 7])
def test_cyclic_metric_matches_reference(m):
    points = list(range(m))
    d = cyclic_spec(m).distances(points)(slice(None), slice(None))
    assert np.issubdtype(d.dtype, np.integer)
    assert d.tolist() == ref_cityblock(points, m)


# a sign flip beyond |e| = 2 keeps every distance to the unit, so the first
# stretched pair sits in row 1 ((-1) against (-3)); blocks of 17 int8 cells
# (the quotient window's width) take one row each, 34 two rows, 153 all nine
@pytest.mark.parametrize("cells", [17, 34, 153])
def test_projection_audit_names_the_first_stretched_pair(monkeypatch, cells):
    Z = zn_spec(1)
    window, quotient = ball_space(Z, 4), ball_space(Z, 8)

    def flip(e):
        return e if abs(e[0]) <= 2 else (-e[0],)

    idx = indices(quotient, [flip(w) for w in window.points])
    i, j = np.argwhere(quotient.d[np.ix_(idx, idx)] > window.d)[0]
    assert quotient.d.itemsize == 1
    monkeypatch.setattr(metric, "_BLOCK_BYTES", cells)
    with pytest.raises(PreconditionFailed) as err:
        split_along(Z, window, Z, quotient, flip)
    assert err.value.context["pair"] == (point_label(window.points[i]), point_label(window.points[j]))
    assert err.value.context["pair"] == ("(-1)", "(-3)")


# caller -> the module whose extension_cover it reads when it runs (the
# cover command imports it from coarsekit.covers at call time); gromov
# picks its own margin (a retry at r9), which leaves the sets as they are
EXTENSION_CALLERS = {
    "cli-zn:2": (
        "coarsekit.covers",
        lambda: cli.main(["cover", "--method", "extension", "--group", "zn:2", "--radius", "12", "--lambda", "1"]),
    ),
    "cli-zn:3": (
        "coarsekit.covers",
        lambda: cli.main(["cover", "--method", "extension", "--group", "zn:3", "--radius", "6", "--lambda", "1"]),
    ),
    "gromov-heisenberg": ("coarsekit.dimension", lambda: gromov_profile("heisenberg", 6, [1, 2], 7)),
    "gromov-heisenberg-r9": ("coarsekit.dimension", lambda: gromov_profile("heisenberg", 6, [1, 2], 9)),
}


@pytest.mark.parametrize("caller", sorted(EXTENSION_CALLERS))
def test_extension_cover_matches_reference(monkeypatch, capsys, caller):
    module, run = EXTENSION_CALLERS[caller]
    original = extension_cover
    built = []

    def recording(split, U, V, lam, R, *args, **kwargs):
        cover = original(split, U, V, lam, R, *args, **kwargs)
        built.append((cover, ref_extension(split.spec, split.window, split.pi, U, V, R)))
        return cover

    monkeypatch.setattr(f"{module}.extension_cover", recording)
    run()
    capsys.readouterr()
    assert built
    for cover, (sets, z_points) in built:
        masks = np.zeros((len(sets), len(cover.space)), dtype=bool)
        for k, members in enumerate(sets):
            masks[k, indices(cover.space, members)] = True
        assert np.array_equal(cover.masks, masks)
        assert cover.meta["z_points"] == z_points


# membership reads the declared metric, so no ball is listed
@pytest.mark.parametrize("spec, bfs_runs", [(heisenberg_spec(), 0), (zn_spec(2), 0)])
def test_extension_membership_lists_a_ball_only_without_a_declared_metric(monkeypatch, spec, bfs_runs):
    split = extension_split(spec, 5)
    U = split.quotient_cover(1)
    R = U.max_diameter()
    V = Cover(split.kernel, masks_of(split.kernel, [list(split.kernel.points)]), ["K"])
    tables = []

    def counting(spec, radius, cap=None):
        tables.append(radius)
        return word_norm_table(spec, radius, cap)

    monkeypatch.setattr(groups, "word_norm_table", counting)
    extension_cover(split, U, V, 1, R)
    assert len(tables) == bfs_runs


@functools.lru_cache(maxsize=None)
def lamplighter_split(radius):
    return extension_split(lamplighter_spec(), radius)


def ref_wreath(G, split, U, R):
    """Members and z points of the lamp-class cover, by per-point loops: x =
    z^{-1} w lies within R of the kernel points x b^{-1} (b in the R-ball
    of the BFS table with the head of x), which must show one pattern of
    lamps outside B_{6R}(e); the members are the points over each U
    member grouped by that pattern, keyed (U label, pattern)."""
    base = G.factors[0]
    inside = set(ball_elements(base, 6 * R))
    near_kernel = {}
    for b in word_norm_table(G, R):
        near_kernel.setdefault(b.head, []).append(G.inverse(b))
    sets, keys, z_points = [], [], {}
    for i, strip, z in ref_anchors(G, split.window, split.pi, U):
        z_points[U.labels[i]] = point_label(z)
        classes = {}
        for w in strip:
            x = G.multiply(G.inverse(z), w)
            patterns = {
                tuple((p, v) for p, v in G.multiply(x, b_inv).config if p not in inside)
                for b_inv in near_kernel[x.head]
            }
            assert len(patterns) == 1
            classes.setdefault(patterns.pop(), []).append(w)
        for pattern in sorted(classes):
            sets.append(classes[pattern])
            keys.append((U.labels[i], pattern))
    return sets, keys, z_points


@pytest.mark.parametrize("lam", [1, 2])
@pytest.mark.parametrize("radius", [4, 5, 6])
def test_lamplighter_keys_match_the_bfs_oracle(radius, lam):
    G, split = lamplighter_spec(), lamplighter_split(radius)
    cover = wreath_cover(split, lam)
    U = split.quotient_cover(lam)
    R = U.max_diameter()
    sets, keys, z_points = ref_wreath(G, split, U, R)
    masks = np.zeros((len(sets), len(cover.space)), dtype=bool)
    for k, members in enumerate(sets):
        masks[k, indices(cover.space, members)] = True
    assert np.array_equal(cover.masks, masks)
    assert cover.meta["z_points"] == z_points
    assert [(u, outside.config) for u, outside, _, _ in cover.meta["keys"]] == keys


def dedupe_nested(groups):
    """Sorted (key, frozenset) pairs of groups, skipping every set nested
    inside another: the point-list form of ``_drop_nested``."""
    picked = []
    for key in sorted(groups):
        members = frozenset(groups[key])
        if any(members <= other for _, other in picked):
            continue
        picked = [(k, m) for k, m in picked if not m <= members]
        picked.append((key, members))
    return picked


def grouped(points, key):
    """The points sharing each key, keys in sorted order."""
    groups = {}
    for p in points:
        groups.setdefault(key(p), []).append(p)
    return sorted(groups.items())


def ref_brick(space, lam):
    """Sets, labels and meta of the staggered brick cover, grouped per point."""
    if lam == 0:
        labels = [f"pt{point_label(p)}" for p in space.points]
        return [[p] for p in space.points], labels, {"method": "brick", "lam": 0, "families": [0] * len(space)}
    l = len(space.points[0])
    side = 2 * (l + 1) * lam
    sets, labels, owner = [], [], []
    for j in range(l + 1):
        for key, members in grouped(space.points, lambda p: tuple((c - j * 2 * lam) // side for c in p)):
            sets.append(members)
            labels.append(f"brick{j}." + ",".join(map(str, key)))
            owner.append(j)
    return sets, labels, {"method": "brick", "lam": lam, "side": side, "families": owner}


def ref_interval(space, axis, lam):
    b, offsets = (1, [0]) if lam == 0 else (2, [0, 1]) if lam == 1 else (4 * lam, [0, 2 * lam])
    sets, labels = [], []
    for oi, off in enumerate(offsets):
        for key, members in grouped(space.points, lambda p: (p[axis] - off) // b):
            sets.append(members)
            labels.append(f"I{oi}.{key}")
    return sets, labels, {"method": "interval", "lam": lam, "block": b}


def ref_families(space, families, r, lam):
    """Each member grown by lam, by a min over its points per window point."""
    sets, labels, owner = [], [], []
    for fi, family in enumerate(families):
        for si, row in enumerate(family):
            s = [space.points[k] for k in np.flatnonzero(row)]
            sets.append([p for p in space.points if min(dist(space, p, q) for q in s) <= lam])
            labels.append(f"F{fi}.{si}")
            owner.append(fi)
    return sets, labels, {"method": "families", "family": owner, "r": r, "lam": lam}


def ref_chain(space, lam, D):
    step = D + 1 - lam
    if step <= 0:
        return None
    lo, hi = min(p[0] for p in space.points), max(p[0] for p in space.points)
    groups = {}
    for k in range((hi - lo) // step + 1):
        start = lo + k * step
        members = [p for p in space.points if start <= p[0] <= start + D]
        if members:
            groups[k] = members
    return [list(m) for _, m in dedupe_nested(groups)], None, {"method": "chain", "length": D + 1, "step": step}


def ref_rotated(space, lam, D):
    """The first side whose three rotated square families pass the same
    validity check, each point keyed (family, cell) one at a time."""
    for s in range(3 * (lam + 1), D + 2):
        t = s // 3
        groups = {}
        for x, y in space.points:
            for j in range(3):
                groups.setdefault((j, (x + y + j * t) // s, (x - y + j * t) // s), []).append((x, y))
        sets = [list(m) for _, m in dedupe_nested(groups)]
        meta = {"method": "rotated_bricks", "side": s, "shift": t}
        if dimension._cover_is_valid(Cover(space, masks_of(space, sets), meta=meta), lam, D):
            return sets, None, meta
    return None


def ref_wreath_groupings(split, lam):
    """Members of the lamp-class cover grouped per point: each strip point
    keyed by (outside lamps, family, brick of its inside lamp vector) for
    every family, then each class deduplicated on its own."""
    G, window = split.spec, split.window
    N, lamp = G.factors
    U = split.quotient_cover(lam)
    R = U.max_diameter()
    slot = {p: s for s, p in enumerate(ball_elements(N, 6 * R))}
    k = 0 if lamp.asdim == 0 else lamp.lattice_rank
    width = k * len(slot)
    side = max(1, 2 * (width + 1) * 6 * R)
    sets, labels, keys, z_points = [], [], [], {}
    for i, strip, z in ref_anchors(G, window, split.pi, U):
        z_points[U.labels[i]] = point_label(z)
        by_class = {}
        for w in strip:
            x = G.multiply(G.inverse(z), w)
            outside = groups.WreathElement(tuple(c for c in x.config if c[0] not in slot), N.unit)
            vec = [0] * width
            for p, v in x.config:
                if k and p in slot:
                    vec[k * slot[p] : k * slot[p] + k] = v
            for j in range(width + 1):
                bricks = tuple((v - j * 2 * 6 * R) // side for v in vec)
                by_class.setdefault(outside, {}).setdefault((j, bricks), []).append(w)
        for outside in sorted(by_class):
            for (j, bricks), members in dedupe_nested(by_class[outside]):
                sets.append(list(members))
                brick = f",brick{j}." + ",".join(map(str, bricks)) if width else ""
                labels.append(f"W({U.labels[i]},{point_label(outside)}{brick})")
                keys.append((U.labels[i], outside, j, bricks))
    return sets, labels, {"method": "wreath", "keys": keys, "z_points": z_points, "safe_margin": 0}


def assert_same_cover(cover, ref):
    """Same masks, labels and meta (compared by repr, so a numpy scalar
    standing in for an int shows) as the cover of the reference lists."""
    sets, labels, meta = ref
    expected = Cover(cover.space, masks_of(cover.space, sets), labels, meta=meta)
    assert np.array_equal(cover.masks, expected.masks)
    assert cover.labels == expected.labels
    built = {key: value for key, value in cover.meta.items() if key != "conclusions"}
    assert repr(built) == repr(expected.meta)


@settings(SETTINGS, max_examples=200)
@given(
    rows=arrays(np.bool_, array_shapes(min_dims=2, max_dims=2, max_side=10)),
    repeats=st.lists(st.integers(0, 9)),
)
def test_drop_nested_keeps_the_sets_of_the_point_list_dedupe(rows, repeats):
    rows = rows[rows.any(axis=1)]
    rows = np.concatenate([rows, rows[[i for i in repeats if i < len(rows)]]])
    kept = [key for key, _ in dedupe_nested({i: frozenset(np.flatnonzero(row)) for i, row in enumerate(rows)})]
    assert _drop_nested(rows).tolist() == kept


# the constructions that also take a diameter budget D, by lattice rank
BUDGETED = {1: (dimension._chain_cover, ref_chain), 2: (dimension._rotated_brick_cover, ref_rotated)}


@pytest.mark.parametrize("rank, radius", [(1, 14), (2, 6), (3, 3)])
def test_lattice_covers_match_the_point_list_groupings(rank, radius):
    space = ball_space(zn_spec(rank), radius)
    for lam in range(5):
        assert_same_cover(brick_cover_zl(space, lam), ref_brick(space, lam))
        for axis in range(rank):
            assert_same_cover(coordinate_interval_cover(space, axis, lam), ref_interval(space, axis, lam))
        if lam:
            families = brick_families_zl(space, lam)
            r = 2 * lam + 1
            assert_same_cover(families_to_cover(space, families, r, lam), ref_families(space, families, r, lam))
        if rank not in BUDGETED:
            continue
        built, ref = BUDGETED[rank]
        for D in range(4 * lam + 3):
            cover, expected = built(space, lam, D), ref(space, lam, D)
            assert (cover is None) == (expected is None)
            if cover is not None:
                assert_same_cover(cover, expected)


@st.composite
def drawn_families(draw):
    """(space, families, r, lam) on a segment of Z (plain integer points) or
    a zn:2 window of radius <= 4.  Each family labels every point by one of
    up to four members or by none, so its members are disjoint but may lie
    close; drawn rows may then be added to them, so members overlap.  A
    family whose every member is empty has no rows, and a last family of
    one whole-space member may be appended, so that the families cover."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 12))
        space = FiniteMetricSpace(list(range(n)), np.abs(np.subtract.outer(range(n), range(n))))
    else:
        space = ball_space(zn_spec(2), draw(st.integers(0, 4)))
    n = len(space)
    families = []
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, 4))
        labels = draw(arrays(np.int8, n, elements=st.integers(-1, k - 1)))
        family = labels == np.arange(k)[:, None]
        if draw(st.booleans()):
            family |= draw(arrays(np.bool_, family.shape))
        families.append(family[family.any(axis=1)])
    if draw(st.booleans()):
        families.append(np.ones((1, n), dtype=bool))
    lam = draw(st.integers(0, 2))
    return space, families, 2 * lam + 1 + draw(st.integers(0, 2)), lam


@settings(SETTINGS, max_examples=200)
@given(drawn=drawn_families())
def test_families_to_cover_matches_the_pairwise_reference(drawn):
    # the first close pair in (family, a, b) order, as a loop over every
    # pair of members finds it, at the default block budget and at one row
    # per block
    space, families, r, lam = drawn
    close = ref_close_pair(space, families, r)
    covered = np.any([family.any(axis=0) for family in families], axis=0)
    for budget in (metric._BLOCK_BYTES, 1):
        with mock.patch.object(metric, "_BLOCK_BYTES", budget):
            if close is not None:
                with pytest.raises(NotDisjoint) as err:
                    families_to_cover(space, families, r, lam)
                fi, pair, distance = close
                assert repr(err.value.context) == repr({"family": fi, "pair": pair, "distance": distance})
            elif not covered.all():
                with pytest.raises(NotCovering) as err:
                    families_to_cover(space, families, r, lam)
                assert err.value.context == {"witness": point_label(space.points[np.argmin(covered)])}
            else:
                cover = families_to_cover(space, families, r, lam)
                assert_same_cover(cover, ref_families(space, families, r, lam))


@pytest.mark.parametrize(
    "token, radius, lam", [("lamplighter", 5, 1), ("lamplighter", 5, 2), ("wreath:zn:1:zn:1", 4, 1)]
)
def test_wreath_members_match_the_point_list_groupings(token, radius, lam):
    split = extension_split(group_from_token(token), radius)
    cover = wreath_cover(split, lam)
    assert_same_cover(cover, ref_wreath_groupings(split, lam))

