"""Acceptance gate: thirteen criteria, one verdict line each.

Every test prints exactly one `criterion N: pass|FAIL` line; tolerances and
time budgets are pinned in place, not imported from anywhere."""

import json
import random
import subprocess
import sys
import time

import numpy as np

from coarsekit.covers import (
    ball_cover,
    brick_families_zl,
    coordinate_interval_cover,
    extension_cover,
    extension_split,
    families_to_cover,
    interval_cover_z,
    partition_of_unity,
    shrink_to_irreducible,
    wreath_cover,
)
from coarsekit.dimension import greedy_min_multiplicity, oracle_min_multiplicity
from coarsekit.errors import Infeasible
from coarsekit.groups import (
    ball_space,
    distortion_profile,
    free_ball_cover_audit,
    free_spec,
    heisenberg_center,
    heisenberg_spec,
    lamplighter_spec,
    log_log_slope,
    project_pi_A,
    word_norm_table,
    zn_spec,
)
from coarsekit.metric import FiniteMetricSpace, lp_distance
from coarsekit.property_a import (
    a_infinity_family,
    coarse_embedding,
    family_from_covers,
    holder_conversion_gap,
    power_conversion_gap,
    variation_report,
)

TOL = 1e-9


def verdict(criterion, failures, started, budget):
    elapsed = time.perf_counter() - started
    if elapsed > budget:
        failures.append(f"took {elapsed:.1f}s, budget {budget}s")
    ok = not failures
    print(f"criterion {criterion}: {'pass' if ok else 'FAIL'}")
    assert ok, failures


def test_01_ball_covers_meet_envelope_and_depth():
    started = time.perf_counter()
    failures = []
    for spec in (zn_spec(1), zn_spec(2)):
        for lam in (1, 2, 3):
            space = ball_space(spec, 4 * lam)
            cover = ball_cover(space, lam)
            envelope = int((space.d <= lam).sum(axis=1).max())
            if cover.multiplicity() > envelope:
                failures.append(f"{spec.name} lam={lam}: multiplicity over envelope")
            if cover.pointwise_lebesgue() < lam:
                failures.append(f"{spec.name} lam={lam}: depth below lam")
    free_window = ball_space(free_spec(2), 4)
    cover = ball_cover(free_window, 1)
    if cover.multiplicity() > 5 or cover.pointwise_lebesgue() < 1:
        failures.append("free group lam=1 window failed")
    for lam in (2, 3):
        # radius-4*lam windows of the tree are too big to materialize;
        # sphere transitivity gives the same numbers shell by shell
        audit = free_ball_cover_audit(2, lam, 4 * lam)
        if audit["multiplicity"] > 2 * 3**lam - 1:
            failures.append(f"free group lam={lam}: multiplicity over ball size")
        if audit["interior_multiplicity"] != 2 * 3**lam - 1:
            failures.append(f"free group lam={lam}: interior short of full ball")
        if audit["lebesgue_pointwise"] < lam:
            failures.append(f"free group lam={lam}: depth below lam")
    verdict(1, failures, started, 10)


def test_02_shrunk_brick_families_on_the_plane():
    started = time.perf_counter()
    failures = []
    for lam in (1, 2, 4):
        space = ball_space(zn_spec(2), 6 * lam)
        families = brick_families_zl(space, lam)
        cover = families_to_cover(space, families, 2 * lam + 1, lam)
        if cover.multiplicity() > 3:
            failures.append(f"lam={lam}: multiplicity {cover.multiplicity()} > 3")
        if cover.pointwise_lebesgue() < lam:
            failures.append(f"lam={lam}: depth below lam")
    verdict(2, failures, started, 5)


def test_03_partition_lipschitz_bound():
    started = time.perf_counter()
    failures = []
    jobs = []
    for spec in (zn_spec(1), zn_spec(2)):
        for lam in (1, 2, 3):
            jobs.append((f"{spec.name} balls lam={lam}", ball_cover(ball_space(spec, 4 * lam), lam)))
    jobs.append(("free balls lam=1", ball_cover(ball_space(free_spec(2), 4), 1)))
    for lam in (1, 2, 4):
        space = ball_space(zn_spec(2), 6 * lam)
        jobs.append(
            (f"bricks lam={lam}",
             families_to_cover(space, brick_families_zl(space, lam), 2 * lam + 1, lam))
        )
    for name, cover in jobs:
        pou, measured = partition_of_unity(cover)
        n = cover.multiplicity() - 1
        bound = (2 * n + 3) ** 2 / cover.pointwise_lebesgue()
        if measured > bound + TOL:
            failures.append(f"{name}: measured {measured} over bound {bound}")
        sums = pou.matrix.sum(axis=0)
        if np.abs(sums - 1.0).max() > TOL:
            failures.append(f"{name}: weights do not sum to one")
    verdict(3, failures, started, 30)


def test_04_cover_families_variation_decay():
    started = time.perf_counter()
    failures = []
    levels = range(2, 9)
    Ks = (1, 2, 4)
    for spec, radius in ((zn_spec(1), 40), (zn_spec(2), 12)):
        space = ball_space(spec, radius)
        covers = {n: shrink_to_irreducible(ball_cover(space, 2 * n), n) for n in levels}
        for p in (1, 2):
            family = family_from_covers(covers, p)
            report = variation_report(family, Ks)
            for K in Ks:
                for n in levels:
                    m = family.meta["multiplicity"][n]
                    bound = 8.0 * K * m ** (1.0 / p) / n
                    if report.measured[K][n] > bound + TOL:
                        failures.append(f"{spec.name} p={p} K={K} n={n}: over bound")
                if not report.decay[K]:
                    failures.append(f"{spec.name} p={p} K={K}: variation not decaying")
    verdict(4, failures, started, 120)


def test_05_tent_variation_bound():
    started = time.perf_counter()
    failures = []
    space = ball_space(zn_spec(1), 20)
    family = a_infinity_family(space, range(2, 9))
    report = variation_report(family, (1, 2, 4))
    for K in (1, 2, 4):
        for n in range(2, 9):
            if report.measured[K][n] > K / n + 1e-12:
                failures.append(f"K={K} n={n}: {report.measured[K][n]} over {K / n}")
    verdict(5, failures, started, 10)


def random_sparse_unit(rng, p):
    vec = np.zeros(8)
    for c in range(8):
        if rng.random() < 0.5:
            vec[c] = rng.random()
    if not vec.any():
        vec[rng.randrange(8)] = 1.0
    return vec * (1.0 / lp_distance(vec, 0.0, p))


def test_06_conversion_inequalities_bulk():
    started = time.perf_counter()
    failures = []
    rng = random.Random(5)
    plans = (
        (1, 2, power_conversion_gap),
        (2, 4, power_conversion_gap),
        (2, 1, holder_conversion_gap),
        (3, 1, holder_conversion_gap),
    )
    for p, m, gap in plans:
        worst = 0.0
        for _ in range(10_000):
            u = random_sparse_unit(rng, p)
            v = random_sparse_unit(rng, p)
            lhs, rhs = gap(u, v, p, m) if gap is power_conversion_gap else gap(u, v, p)
            worst = max(worst, lhs - rhs)
        if worst > TOL:
            failures.append(f"(p={p}, m={m}): inequality violated by {worst}")
    verdict(6, failures, started, 10)


def test_07_line_embedding_band():
    started = time.perf_counter()
    failures = []
    space = ball_space(zn_spec(1), 60)
    family = a_infinity_family(space, [3, 7, 15, 28], p=2)
    result = coarse_embedding(family, (0,), 4)
    if not result.audit["pass"]:
        failures.append("embedding audit failed")
    safe = result.audit["safe_points"]
    if result.audit["pairs_checked"] != safe * (safe - 1) // 2:
        failures.append("not every safe pair was checked")
    if lp_distance(result.vectors[space.index((0,))], 0.0, 2) != 0.0:
        failures.append("base point moved")
    verdict(7, failures, started, 60)


def test_08_lamplighter_kernel_norms():
    started = time.perf_counter()
    failures = []
    W = lamplighter_spec()
    table = word_norm_table(W, 6)
    base_unit = (0,)
    kernel = [w for w in table if w.head == base_unit]
    positions = [(-2,), (-1,), (0,), (1,), (2,)]
    subsets = []
    for bits in range(1 << len(positions)):
        subsets.append([positions[i] for i in range(len(positions)) if bits >> i & 1])
    for w in kernel:
        for A in subsets:
            proj = project_pi_A(w, A, base_unit)
            if proj not in table or table[proj] > table[w]:
                failures.append(f"projection grew the norm at {w}")
                break
        else:
            continue
        break
    for w in kernel:
        if len(w.config) == 1:
            pos = abs(w.config[0][0][0])
            if table[w] < pos:
                failures.append(f"single lamp at {pos} cheaper than its position")
    if len(kernel) < 10:
        failures.append("kernel sample suspiciously small")
    verdict(8, failures, started, 60)


def test_09_plane_to_line_extension_conclusions():
    started = time.perf_counter()
    failures = []
    lam, R = 2, 8
    split = extension_split(zn_spec(2), 24)
    U = interval_cover_z(split.quotient, lam)
    V = coordinate_interval_cover(split.kernel, 1, 6 * R)
    cover = extension_cover(split, U, V, lam, R)
    got = cover.meta["conclusions"]
    if got["multiplicity"] > got["multiplicity_bound"]:
        failures.append("multiplicity conclusion failed")
    if got["diameter"] > got["diameter_bound"]:
        failures.append("diameter conclusion failed")
    if got["lebesgue_safe"] < lam:
        failures.append("safe-region depth conclusion failed")
    verdict(9, failures, started, 30)


def test_10_lamplighter_cover_pipeline():
    started = time.perf_counter()
    failures = []
    cover, stats = wreath_cover(extension_split(lamplighter_spec(), 5), 1)
    if stats["envelope"] != 26:
        failures.append(f"envelope {stats['envelope']} != 26")
    if stats["multiplicity"] > 26:
        failures.append("multiplicity over envelope")
    if stats["lebesgue_safe"] < 1:
        failures.append("safe depth below 1")
    verdict(10, failures, started, 120)


def test_11_center_distortion_slope():
    started = time.perf_counter()
    failures = []
    member, gens = heisenberg_center()
    pairs = distortion_profile(heisenberg_spec(), member, gens, 22)
    if max(a for _, a in pairs) < 14:
        failures.append("profile never reaches ambient norm 14")
    slope = log_log_slope(pairs)
    if not 0.40 <= slope <= 0.60:
        failures.append(f"slope {slope:.4f} outside [0.40, 0.60]")
    verdict(11, failures, started, 120)


def test_12_greedy_never_beats_oracle():
    started = time.perf_counter()
    failures = []
    for size in range(1, 10):
        pts = [(k,) for k in range(size)]
        d = np.abs(np.subtract.outer(range(size), range(size)))
        space = FiniteMetricSpace(pts, d)
        for lam in (0, 1, 2):
            for D in range(0, 7):
                try:
                    o_mult, _ = oracle_min_multiplicity(space, lam, D)
                except Infeasible:
                    o_mult = None
                try:
                    g_mult, _ = greedy_min_multiplicity(space, lam, D)
                except Infeasible:
                    g_mult = None
                if (o_mult is None) != (g_mult is None):
                    failures.append(f"size={size} lam={lam} D={D}: feasibility split")
                elif o_mult is not None and g_mult != o_mult:
                    failures.append(
                        f"size={size} lam={lam} D={D}: greedy {g_mult} vs oracle {o_mult}"
                    )
    verdict(12, failures, started, 120)


def cli_bytes(argv):
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from coarsekit.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        capture_output=True,
    )
    return proc.returncode, proc.stdout


def test_13_cli_reruns_are_byte_identical():
    started = time.perf_counter()
    failures = []
    configs = {
        "ball cover": ["cover", "--method", "ball", "--group", "zn:1",
                       "--radius", "4", "--lambda", "1"],
        "certificate": ["certify-a", "--group", "zn:1", "--radius", "40",
                        "--p", "2", "--n", "2..8", "--K", "1,2,4"],
        "wreath cover": ["cover", "--method", "wreath", "--group", "lamplighter",
                         "--radius", "5", "--lambda", "1"],
    }
    for name, argv in configs.items():
        code_a, out_a = cli_bytes(argv)
        code_b, out_b = cli_bytes(argv)
        if code_a != 0 or code_b != 0:
            failures.append(f"{name}: nonzero exit")
            continue
        if out_a != out_b:
            failures.append(f"{name}: reruns differ")
        json.loads(out_a)
    verdict(13, failures, started, 120)
