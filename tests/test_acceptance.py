"""End-to-end acceptance suite.

Each criterion prints one PASS/FAIL line.  Trial counts follow the
stated budgets; the whole file is expected to run in well under two
minutes.
"""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from polyspace import bending, frames, polygon as pg, polytope as pt, \
    reconstruct as rec, verify
from polyspace.errors import TriangleViolation
from polyspace.reconstruct import LDPoint

SEED = 20260823


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_hopf_suite():
    r = verify.suite_hopf(10_000, SEED)
    report(1, "hopf equivariance/fiber/radius", r.ok, str(r.failures[:3]))


def test_criterion_02_gc_identity():
    r = verify.suite_gc(1_000, SEED)
    report(2, "Gel'fand-Cetlin eigenvalue identity", r.ok,
           str(r.failures[:3]))


def test_criterion_03_moment_map_identity():
    worst = 0.0
    for k in range(1_000):
        rng = verify.trial_rng(SEED, k)
        f = frames.random_frame(3 + k % 8, rng)
        ell = pg.side_lengths(frames.frame_to_polygon(f))
        worst = max(worst, float(np.abs(frames.moment_mu(f) - ell).max()))
    report(3, "moment map equals side lengths", worst < 1e-12,
           f"max dev {worst:.2e}")


def test_criterion_04_bending_is_hamiltonian_flow():
    r = verify.suite_bend(20, SEED)
    flow_failures = [f for f in r.failures if f[0].startswith("flow")]
    report(4, "bending = flow of the diagonal length", r.ok,
           str(flow_failures[:3]))


def test_criterion_05_commutation():
    rng = verify.trial_rng(SEED, 77)
    worst_nested = 0.0
    for _ in range(20):
        p = verify.random_prodigal_polygon(rng, 6)
        for i, j in itertools.combinations(range(2, 6), 2):
            d = bending.commute_defect(p, (1, i), (1, j), 0.9, 1.7)
            worst_nested = max(worst_nested, d)
    hexagon = verify.random_prodigal_polygon(rng, 6)
    linked = bending.commute_defect(hexagon, (2, 4), (3, 5), 1.0, 1.0)
    ok = worst_nested < 1e-9 and linked > 1e-3
    report(5, "standard bends commute, linked pair does not", ok,
           f"nested {worst_nested:.2e}, linked {linked:.2e}")


def test_criterion_06_kahler_factor():
    r = verify.suite_kahler(1_000, SEED)
    anchor_ok = True
    for radius in (0.5, 1.0, 2.3):
        row = np.array([math.sqrt(radius), 0.0], dtype=complex)
        u = np.array([0.0, 1.0], dtype=complex)
        v = np.array([0.0, 1j], dtype=complex)
        num, den = verify.kahler_probe_terms(row, u, v)
        anchor_ok &= abs(num - 4.0) < 1e-9 and abs(den - 1.0) < 1e-9
    report(6, "pushforward form is 4x the flat form", r.ok and anchor_ok,
           str(r.failures[:3]))


def _random_ld(rng, m):
    return rec.sample_ld(verify.random_rational_lengths(rng, m), rng)


def _expected_violation(ld, j, rng):
    """Perturb free diagonal d_j out of range; return (ld', step, name)."""
    d = list(ld.full_diagonals())
    alpha = ld.alpha
    eps = float(rng.uniform(1e-3, 1e-1))
    upper_c = alpha[j - 1] + d[j - 1]   # C at step j-1
    upper_b = alpha[j] + d[j + 1]       # B at step j
    lower_b = d[j - 1] - alpha[j - 1]   # B at step j-1
    lower_a1 = alpha[j - 1] - d[j - 1]  # A at step j-1
    lower_a2 = alpha[j] - d[j + 1]      # A at step j
    lower = max(lower_b, lower_a1, lower_a2)
    if rng.random() < 0.5 and lower - eps >= 0.0:
        new_d = lower - eps
        if new_d < lower_a1:
            expected = (j - 1, "A")
        elif new_d < lower_b:
            expected = (j - 1, "B")
        else:
            expected = (j, "A")
    else:
        new_d = min(upper_c, upper_b) + eps
        expected = (j - 1, "C") if new_d > upper_c else (j, "B")
    delta = list(ld.delta)
    delta[j - 2] = new_d
    return LDPoint(ld.alpha, tuple(delta)), expected


def test_criterion_07_gamma_surjectivity():
    worst = 0.0
    for k in range(10_000):
        rng = verify.trial_rng(SEED, k)
        m = 4 + k % 3
        ld = _random_ld(rng, m)
        target_d = ld.full_diagonals()[1:m + 1]
        for dim in (2, 3):
            p = rec.reconstruct(ld, dim)
            dev = max(np.abs(pg.side_lengths(p) - ld.alpha).max(),
                      np.abs(pg.diagonals(p) - target_d).max())
            worst = max(worst, float(dev))
    ok = worst < 1e-9
    bad = 0
    for k in range(1_000):
        rng = verify.trial_rng(SEED + 1, k)
        m = 4 + k % 3
        ld = _random_ld(rng, m)
        j = int(rng.integers(2, m - 1))
        broken, expected = _expected_violation(ld, j, rng)
        try:
            rec.reconstruct(broken, 2)
            bad += 1
        except TriangleViolation as err:
            if (err.index, err.inequality) != expected:
                bad += 1
    report(7, "reconstruction surjectivity and violation reporting",
           ok and bad == 0, f"max dev {worst:.2e}, misreported {bad}")


def test_criterion_08_hypersimplex_section():
    worst = 0.0
    for k in range(10_000):
        rng = verify.trial_rng(SEED, k)
        m = 3 + k % 6
        while True:
            nums = [int(n) for n in rng.integers(1, 30, size=m)]
            total = sum(nums)
            alpha = tuple(F(2 * n, total) for n in nums)
            if all(a <= 1 for a in alpha):
                break
        p = rec.section_sigma(alpha)
        dev = np.abs(pg.side_lengths(p)
                     - np.array([float(a) for a in alpha])).max()
        worst = max(worst, float(dev))
    report(8, "planar section inverts the length map", worst < 1e-12,
           f"max dev {worst:.2e}")


TABLE_ROWS = [
    ((2, 1, 5, 1, 2), 3, "3", False, 1,
     ("CP^2", "RP^2", "S^2")),
    ((3, 2, 5, 1, 2), 4, "4a", False, 0,
     ("CP^2 # CP^2-bar", "Klein bottle", "T^2")),
    ((3, 1, 3, 1, 3), 4, "4b", True, 0,
     ("S^2 x S^2", "T^2", "T^2 u T^2")),
    ((2, 1, 3, 1, 2), 5, "5", False, -1,
     ("(S^2 x S^2) # CP^2-bar", "T^2 # RP^2", "Sigma_2")),
    ((4, 2, 2, 2, 4), 6, "6", False, -2,
     ("(S^2 x S^2) # 2 CP^2-bar", "T^2 # 2 RP^2", "Sigma_3")),
    pytest.param((4, 2, 4, 2, 4), 7, "7", False, -3,
                 ("(S^2 x S^2) # 3 CP^2-bar", "T^2 # 3 RP^2", "Sigma_4"),
                 marks=pytest.mark.xfail(
                     strict=True,
                     reason="these lengths satisfy 4-2+4-2-4 = 0, so they "
                            "lie on a wall and the region is the full box "
                            "with 4 sides; see README and the (4,3,4,3,4) "
                            "check below for a 7-sided instance")),
]


@pytest.mark.parametrize("alpha,sides,row,orientable,chi,labels", TABLE_ROWS)
def test_criterion_09_table_rows(alpha, sides, row, orientable, chi, labels):
    r = pt.classify_pentagon(alpha)
    names = r["labels"]
    got = (r["sides"], r["row"], r["orientable"], r["euler_planar"],
           (names["spatial_rotation"], names["planar"],
            names["planar_rotation"]))
    want = (sides, row, orientable, chi, labels)
    report(9, f"classification row {row} at {alpha}", got == want,
           f"got {got}")


def test_criterion_09_seven_sided_instance():
    # a generic length vector that does realize the last table row
    r = pt.classify_pentagon((4, 3, 4, 3, 4))
    got = (r["sides"], r["row"], r["euler_planar"],
           r["labels"]["spatial_rotation"])
    want = (7, "7", -3, "(S^2 x S^2) # 3 CP^2-bar")
    report(9, "seven-sided instance (4,3,4,3,4)", got == want, f"got {got}")


def test_criterion_10_dh_interval_equality():
    r = verify.suite_dh(1_000, SEED)
    rng = verify.trial_rng(SEED, 4242)
    mc_ok = True
    detail = []
    alpha = (F(1), F(2), F(3), F(4))
    for rolled in (alpha, alpha[1:] + alpha[:1]):
        lo, hi = pt.quad_interval(rolled)["interval"]
        seen_lo, seen_hi = math.inf, -math.inf
        for _ in range(100_000):
            ld = rec.sample_ld(rolled, rng)
            seen_lo = min(seen_lo, ld.delta[0])
            seen_hi = max(seen_hi, ld.delta[0])
        mc_ok &= seen_lo < float(lo) + 1e-2 and seen_hi > float(hi) - 1e-2
        detail.append(f"[{seen_lo:.4f},{seen_hi:.4f}] vs [{lo},{hi}]")
    report(10, "equal diagonal variation intervals", r.ok and mc_ok,
           "; ".join(detail))


def test_criterion_11_lined_hexagon_count():
    count = len(pg.enumerate_lined((1,) * 6))
    brute = sum(1 for eps in itertools.product((1, -1), repeat=6)
                if sum(eps) == 0)
    report(11, "ten lined hexagons", count == 10 and brute == 2 * count,
           f"count {count}, brute {brute}")


def test_criterion_12_frame_polygon_loop():
    r = verify.suite_roundtrip(1_000, SEED)
    report(12, "frame <-> polygon round trip", r.ok, str(r.failures[:3]))
