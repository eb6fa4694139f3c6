"""Randomized verification suites behind the ``verify`` CLI command.

Each suite draws its per-trial randomness from a 64-bit mix of the base
seed and the trial index, so trial k is reproducible in isolation and
results do not depend on execution order.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bending, frames, polytope, quat, reconstruct
from .errors import EmptyPolytope, RetryLimit
from .polygon import (Polygon, diagonals, enumerate_lined,
                      is_feasible_lengths, normalize, perimeter, side_lengths)

MASK64 = (1 << 64) - 1
# Draws a rejection sampler makes before giving up; every sampler below
# accepts more than 80% of its draws.
MAX_DRAWS = 1000


def mix_seed(seed: int, index: int) -> int:
    """splitmix64 finalizer on seed + golden-ratio stride * index."""
    z = (seed + 0x9E3779B97F4A7C15 * (index + 1)) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(mix_seed(seed, index))


@dataclass
class RunReport:
    suite: str
    trials: int
    failures: list = field(default_factory=list)
    wall_clock: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, case_id: str, deviation: float, tolerance: float):
        if not (deviation <= tolerance):
            self.failures.append((case_id, float(deviation), float(tolerance)))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "ok": self.ok,
            "failures": [
                {"case": c, "deviation": d, "tolerance": t}
                for c, d, t in self.failures
            ],
            "wall_clock": self.wall_clock,
        }


def _timed(fn):
    def wrapper(trials: int, seed: int) -> RunReport:
        start = time.perf_counter()
        report = fn(trials, seed)
        report.wall_clock = time.perf_counter() - start
        return report

    return wrapper


def random_unitary2(rng) -> np.ndarray:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@_timed
def suite_hopf(trials: int, seed: int) -> RunReport:
    report = RunReport("hopf", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        w, x, y, z = rng.standard_normal(4)
        u, v = complex(w, x), complex(y, z)   # the quaternion u + v j
        norm2 = w * w + x * x + y * y + z * z
        P = random_unitary2(rng)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        hq = quat.hopf_complex(u, v)
        equiv = np.linalg.norm(quat.hopf_complex(*quat.act_right((u, v), P))
                               - quat.conjugate_vector(P, hq))
        report.record(f"equivariance[{k}]", equiv, 1e-11)
        phase = complex(math.cos(theta), math.sin(theta))
        fiber = np.linalg.norm(quat.hopf_complex(phase * u, phase * v) - hq)
        report.record(f"fiber[{k}]", fiber, 1e-12 * max(1.0, norm2))
        radius = abs(np.linalg.norm(hq) - norm2)
        report.record(f"radius[{k}]", radius, 1e-12 * max(1.0, norm2))
    return report


@_timed
def suite_gc(trials: int, seed: int) -> RunReport:
    report = RunReport("gc", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        m = 3 + k % 8
        f = frames.random_frame(m, rng)
        poly = frames.frame_to_polygon(f)
        ell = side_lengths(poly)
        d = diagonals(poly)
        pattern = frames.gc_pattern(f)
        sum_dev = np.abs(pattern.sums - np.cumsum(ell)).max()
        diff_dev = np.abs(pattern.diffs - d).max()
        report.record(f"sums[{k}]", sum_dev, 1e-10)
        report.record(f"diffs[{k}]", diff_dev, 1e-10)
        report.record(f"interlacing[{k}]", -pattern.interlacing_slack(), 1e-9)
        mu_dev = np.abs(frames.moment_mu(f) - ell).max()
        report.record(f"moment[{k}]", mu_dev, 1e-12)
    return report


def random_prodigal_polygon(rng, m: int) -> Polygon:
    """Closed m-gon in R^3 whose diagonals stay well away from zero."""
    for _ in range(MAX_DRAWS):
        edges = rng.standard_normal((m, 3))
        edges -= edges.mean(axis=0)
        poly = Polygon(3, edges)
        d = diagonals(poly)[: m - 1]
        if d.min() > 0.15 * perimeter(poly) / m:
            return poly
    raise RetryLimit(f"no prodigal {m}-gon in {MAX_DRAWS} draws")


@_timed
def suite_bend(trials: int, seed: int) -> RunReport:
    report = RunReport("bend", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        m = 5 + k % 2
        poly = random_prodigal_polygon(rng, m)
        i = int(rng.integers(2, m - 1))
        w = bending.SphereProductPoint.from_polygon(poly)
        H = bending.diagonal_hamiltonian(i)
        X = bending.diagonal_field(i)
        for t in (0.1, 1.0, math.pi, 2.0 * math.pi):
            flowed = bending.hamiltonian_flow(w, H, t, field=X).to_polygon()
            target = bending.bend(poly, i, bending.BENDING_FLOW_SIGN * t)
            dev = np.abs(flowed.edges - target.edges).max()
            report.record(f"flow[{k},i={i},t={t:.3g}]", dev, 1e-6)
            drift = abs(H(flowed.edges) - H(poly.edges))
            report.record(f"drift[{k},t={t:.3g}]", drift, 1e-8)
        r1 = bending.DiagonalRange(1, 2)
        r2 = bending.DiagonalRange(1, 3)
        defect = bending.commute_defect(poly, r1, r2, 0.7, 1.3)
        report.record(f"commute[{k}]", defect, 1e-9)
    # a linked pair of ranges must fail to commute on a generic hexagon
    hexagon = random_prodigal_polygon(trial_rng(seed, trials + 1), 6)
    linked = bending.commute_defect(hexagon, bending.DiagonalRange(2, 4),
                                    bending.DiagonalRange(3, 5), 1.0, 1.0)
    if not linked > 1e-3:
        report.failures.append(("linked-pair-commutes", linked, 1e-3))
    return report


def random_kahler_probe(rng):
    """A random Hopf row together with a horizontal tangent pair."""
    u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    scale = math.sqrt(rng.uniform(0.3, 2.0)) / math.hypot(abs(u), abs(v))
    u, v = u * scale, v * scale
    z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    row = np.array([u, v])
    return row, bending.horizontal_tangent(u, v, z1), \
        bending.horizontal_tangent(u, v, z2)


@_timed
def suite_kahler(trials: int, seed: int) -> RunReport:
    report = RunReport("kahler", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        row, tu, tv = random_kahler_probe(rng)
        try:
            ratio = bending.kahler_factor_probe(row, tu, tv)
        except bending.DegeneratePair:
            continue
        report.record(f"ratio[{k}]", abs(ratio - 4.0), 1e-6)
        # complex structures intertwine: J~ after the differential
        x = quat.hopf_complex(row[0], row[1])
        push = bending._hopf_differential(row, tu)
        push_j = bending._hopf_differential(row, 1j * tu)
        dev = np.linalg.norm(bending.km_complex(x, push) - push_j)
        report.record(f"complex[{k}]", dev,
                      1e-6 * max(1.0, float(np.linalg.norm(push))))
    return report


def random_quad_lengths(rng) -> tuple[Fraction, ...]:
    den = int(rng.integers(1, 12))
    for _ in range(MAX_DRAWS):
        nums = rng.integers(1, 40, size=4)
        alpha = tuple(Fraction(int(n), den) for n in nums)
        try:
            polytope.quad_interval(alpha)
        except EmptyPolytope:
            continue
        return alpha
    raise RetryLimit(f"no closing quadrilateral in {MAX_DRAWS} draws")


@_timed
def suite_dh(trials: int, seed: int) -> RunReport:
    report = RunReport("dh", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        alpha = random_quad_lengths(rng)
        try:
            len1, len2 = polytope.dh_interval_equality(alpha)
        except EmptyPolytope:
            continue
        if len1 != len2:
            report.failures.append(
                (f"dh[{k}]{alpha}", float(abs(len1 - len2)), 0.0))
    return report


@_timed
def suite_hexcount(trials: int, seed: int) -> RunReport:
    report = RunReport("hexcount", 1)
    ones = (Fraction(1),) * 6
    count = len(enumerate_lined(ones))
    brute = sum(1 for eps in itertools.product((1, -1), repeat=6)
                if sum(eps) == 0) // 2
    if count != 10:
        report.failures.append(("enumerate_lined", float(count), 10.0))
    if brute != count:
        report.failures.append(("brute-force-crosscheck", float(brute),
                                float(count)))
    return report


def random_rational_lengths(rng, m: int) -> tuple[Fraction, ...]:
    """Normalized (sum 2) positive rational lengths with a nonempty slice."""
    for _ in range(MAX_DRAWS):
        nums = [int(n) for n in rng.integers(1, 30, size=m)]
        total = sum(nums)
        alpha = tuple(Fraction(2 * n, total) for n in nums)
        if is_feasible_lengths(alpha):
            return alpha
    raise RetryLimit(f"no closing {m}-gon lengths in {MAX_DRAWS} draws")


@_timed
def suite_roundtrip(trials: int, seed: int) -> RunReport:
    report = RunReport("roundtrip", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        m = 4 + k % 3
        alpha = random_rational_lengths(rng, m)
        poly = reconstruct.sample_moduli(alpha, 3, 1, mix_seed(seed, k))[0]
        ell = side_lengths(poly)
        d = diagonals(poly)
        norm_poly = normalize(poly)
        f = frames.frame_from_polygon(norm_poly)
        back = frames.frame_to_polygon(f)
        dev = np.abs(back.edges - norm_poly.edges).max()
        report.record(f"edges[{k}]", dev, 1e-9)
        scale = 2.0 / perimeter(poly)
        pattern = frames.gc_pattern(f)
        ell_dev = np.abs(pattern.sums - np.cumsum(ell) * scale).max()
        d_dev = np.abs(pattern.diffs - d * scale).max()
        report.record(f"lengths[{k}]", ell_dev, 1e-9)
        report.record(f"diagonals[{k}]", d_dev, 1e-9)
    return report


SUITES = {
    "hopf": suite_hopf,
    "gc": suite_gc,
    "bend": suite_bend,
    "kahler": suite_kahler,
    "dh": suite_dh,
    "hexcount": suite_hexcount,
    "roundtrip": suite_roundtrip,
}

DEFAULT_TRIALS = {
    "hopf": 1000,
    "gc": 200,
    "bend": 4,
    "kahler": 200,
    "dh": 200,
    "hexcount": 1,
    "roundtrip": 100,
}


def run_suite(name: str, trials: int | None = None, seed: int = 0) -> RunReport:
    if name not in SUITES:
        raise KeyError(name)
    if trials is None:
        trials = DEFAULT_TRIALS[name]
    return SUITES[name](trials, seed)
