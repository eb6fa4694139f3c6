"""Randomized verification suites behind the ``verify`` CLI command.

Each suite draws its per-trial randomness from a 64-bit mix of the base
seed and the trial index, so trial k is reproducible in isolation and
results do not depend on execution order.  Consecutive draws of one kind
from a trial's generator may be merged into one call, which gives the
same values; they are never reordered.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import bending, frames, polytope, quat, reconstruct
from .errors import InputError, PolyspaceError
from .polygon import (Polygon, diagonals, enumerate_lined,
                      is_feasible_lengths, perimeter)

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
    """default_rng(mix_seed(seed, index)), built without its dispatch."""
    return np.random.Generator(np.random.PCG64(mix_seed(seed, index)))


def _nearness(deviation: float, tolerance: float) -> float:
    return deviation / tolerance if tolerance else deviation


@dataclass
class RunReport:
    suite: str
    trials: int
    failures: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)  # nearest (dev, tol) by check
    wall_clock: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, case_id: str, deviation, tolerance):
        failed = not (deviation <= tolerance)   # exact for Fractions too
        deviation, tolerance = float(deviation), float(tolerance)
        name = case_id.split("[", 1)[0]
        # keep the trial nearest to failing: the largest deviation per unit
        # of tolerance, or the largest deviation where the tolerance is 0
        worst = self.margins.get(name)
        if (worst is None or math.isnan(deviation)
                or _nearness(deviation, tolerance) > _nearness(*worst)):
            self.margins[name] = (deviation, tolerance)
        if failed:
            self.failures.append((case_id, deviation, tolerance))

    def to_json_dict(self) -> dict:
        def num(x):   # JSON has no NaN or infinity
            return x if math.isfinite(x) else None
        return {
            "suite": self.suite,
            "trials": self.trials,
            "ok": self.ok,
            "failures": [
                {"case": c, "deviation": num(d), "tolerance": t}
                for c, d, t in self.failures
            ],
            "margins": {
                name: {"deviation": num(d), "tolerance": t}
                for name, (d, t) in self.margins.items()
            },
            "wall_clock": self.wall_clock,
        }


def suite_hopf(trials: int, seed: int) -> RunReport:
    report = RunReport("hopf", trials)
    # per trial: (w, x, y, z), Re g and Im g row by row, then theta
    normals, theta = np.empty((trials, 12)), np.empty(trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        rng.standard_normal(out=normals[k])
        theta[k] = rng.uniform(0.0, 2.0 * math.pi)
    wxyz, re_g, im_g = np.split(normals, 3, axis=1)
    g = (re_g + 1j * im_g).reshape(trials, 2, 2)
    q, r = np.linalg.qr(g)   # P: the unitary factor, R's diagonal made > 0
    d = np.diagonal(r, axis1=-2, axis2=-1)
    P = q * (d / np.abs(d))[..., None, :]
    u, v = wxyz.view(complex).T   # the quaternions u + v j
    w, x, y, z = wxyz.T
    norm2 = w * w + x * x + y * y + z * z
    hq = quat.hopf_complex(u, v)
    equiv = np.linalg.norm(quat.hopf_complex(*quat.act_right((u, v), P))
                           - quat.conjugate_vector(P, hq), axis=-1)
    phase = np.cos(theta) + 1j * np.sin(theta)
    fiber = np.linalg.norm(quat.hopf_complex(phase * u, phase * v) - hq,
                           axis=-1)
    radius = abs(np.linalg.norm(hq, axis=-1) - norm2)
    tol = 1e-12 * np.maximum(1.0, norm2)
    for k, (eq, fib, rad, tol_k) in enumerate(zip(
            equiv.tolist(), fiber.tolist(), radius.tolist(), tol.tolist())):
        report.record(f"equivariance[{k}]", eq, 1e-11)
        report.record(f"fiber[{k}]", fib, tol_k)
        report.record(f"radius[{k}]", rad, tol_k)
    return report


def suite_gc(trials: int, seed: int) -> RunReport:
    report = RunReport("gc", trials)
    drawn = [frames.random_frame(3 + k % 8, trial_rng(seed, k))
             for k in range(trials)]
    # row k: trial k's four deviations, from one stacked pass per size m
    devs = np.empty((trials, 4))
    for first in range(min(trials, 8)):
        f = frames.Frame(*map(np.array, zip(*drawn[first::8])))
        edges = quat.hopf_complex(*f)
        ell = np.linalg.norm(edges, axis=-1)
        d = np.linalg.norm(np.cumsum(edges, axis=-2), axis=-1)
        pattern = frames.gc_pattern(f)
        devs[first::8] = np.stack([
            np.abs(pattern.sums - np.cumsum(ell, axis=-1)).max(axis=-1),
            np.abs(pattern.diffs - d).max(axis=-1),
            -frames.interlacing_slack(pattern),
            np.abs(frames.moment_mu(f) - ell).max(axis=-1)], axis=-1)
    for k, (sums, diffs, interlacing, moment) in enumerate(devs.tolist()):
        report.record(f"sums[{k}]", sums, 1e-10)
        report.record(f"diffs[{k}]", diffs, 1e-10)
        report.record(f"interlacing[{k}]", interlacing, 1e-9)
        report.record(f"moment[{k}]", moment, 1e-12)
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
    raise PolyspaceError(f"no prodigal {m}-gon in {MAX_DRAWS} draws")


def suite_bend(trials: int, seed: int) -> RunReport:
    report = RunReport("bend", trials)
    times = (0.1, 1.0, math.pi, 2.0 * math.pi)
    drawn = []
    for k in range(trials):
        rng = trial_rng(seed, k)
        poly = random_prodigal_polygon(rng, 5 + k % 2)
        drawn.append((poly, int(rng.integers(2, poly.m - 1))))
    if drawn:
        # One RK4 call for every (trial, t).  Pentagons get a unit tail row
        # (0, 0, 1): it lies past every head, so the field is zero there.
        m = max(poly.m for poly, _ in drawn)
        edges = np.tile([0.0, 0.0, 1.0], (len(drawn), m, 1))
        for b, (poly, _) in enumerate(drawn):
            edges[b, :poly.m] = poly.edges
        edges = np.repeat(edges, len(times), axis=0)
        heads = np.repeat([i for _, i in drawn], len(times))
        flowed = bending.hamiltonian_flow(edges, bending.diagonal_field(heads),
                                          times * len(drawn))
    for k, (poly, i) in enumerate(drawn):
        H = bending.diagonal_hamiltonian(i)
        for j, t in enumerate(times):
            edges = flowed[len(times) * k + j, :poly.m]
            target = bending.bend(poly, i, t)
            dev = np.abs(edges - target.edges).max()
            report.record(f"flow[{k},i={i},t={t:.3g}]", dev, 1e-6)
            drift = abs(H(edges) - H(poly.edges))
            report.record(f"drift[{k},t={t:.3g}]", drift, 1e-8)
        defect = bending.commute_defect(poly, (1, 2), (1, 3), 0.7, 1.3)
        report.record(f"commute[{k}]", defect, 1e-9)
    # a linked pair of ranges must fail to commute on a generic hexagon
    hexagon = random_prodigal_polygon(trial_rng(seed, trials + 1), 6)
    linked = bending.commute_defect(hexagon, (2, 4), (3, 5), 1.0, 1.0)
    # passes iff linked > 1e-3: no float lies between 1e-3 and its successor
    report.record("linked-pair-commutes", math.nextafter(1e-3, 1.0) / linked
                  if linked > 0.0 else math.inf, 1.0)
    return report


def kahler_probe_terms(row, a, b) -> tuple[np.ndarray, np.ndarray]:
    """(numerator, denominator) of the pushforward/flat form ratio, rowwise.

    ``row`` is a Hopf row (u, v) and ``a``, ``b`` are tangent vectors at
    it, each a complex (..., 2) array.  The numerator is ``km_form`` on the
    Hopf images of a and b, made tangent to the sphere through
    hopf_complex(u, v); the denominator is the flat Kaehler form
    -Im<a, b> on C^2, with <a, b> = sum a_i conj(b_i).
    """
    row, a, b = (np.asarray(w, dtype=complex) for w in (row, a, b))
    u, v = row[..., 0], row[..., 1]
    x = quat.hopf_complex(u, v)
    xx = np.sum(x * x, axis=-1)[..., None]

    def tangential(w):   # the Hopf image of w less its part along x
        t = quat.hopf_differential(u, v, w[..., 0], w[..., 1])
        return t - np.sum(t * x, axis=-1)[..., None] * x / xx

    return (bending.km_form(x, tangential(a), tangential(b)),
            -np.sum(a * b.conj(), axis=-1).imag)


def suite_kahler(trials: int, seed: int) -> RunReport:
    report = RunReport("kahler", trials)
    # per trial: (Re u, Re v, Im u, Im v), the row's |u|^2 + |v|^2 and
    # (Re z1, Re z2, Im z1, Im z2)
    draws, norm2 = np.empty((trials, 2, 4)), np.empty(trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        draws[k, 0] = rng.standard_normal(4)
        norm2[k] = rng.uniform(0.3, 2.0)
        draws[k, 1] = rng.standard_normal(4)
    pairs = draws[..., :2] + 1j * draws[..., 2:]
    row, z = pairs[:, 0], pairs[:, 1]
    row = row * (np.sqrt(norm2) / np.hypot(*abs(row).T))[:, None]
    u, v = row.T
    # horizontal tangents z (-conj(v), conj(u)), orthogonal to i (u, v)
    horizontal = np.stack([-v.conj(), u.conj()], axis=-1)
    a, b = z[:, :1] * horizontal, z[:, 1:] * horizontal
    num, den = kahler_probe_terms(row, a, b)
    # complex structures intertwine: J~ after the differential
    push = quat.hopf_differential(u, v, *a.T)
    push_j = quat.hopf_differential(u, v, *(1j * a).T)
    dev = np.linalg.norm(bending.km_complex(quat.hopf_complex(u, v), push)
                         - push_j, axis=-1)
    tol = 1e-6 * np.maximum(1.0, np.linalg.norm(push, axis=-1))
    for k, (n, d, dev_k, tol_k) in enumerate(zip(
            num.tolist(), den.tolist(), dev.tolist(), tol.tolist())):
        if abs(d) < 1e-9:   # the flat form vanishes on the pair: no ratio
            continue
        report.record(f"ratio[{k}]", abs(n / d - 4.0), 1e-6)
        report.record(f"complex[{k}]", dev_k, tol_k)
    return report


def suite_dh(trials: int, seed: int) -> RunReport:
    report = RunReport("dh", trials)
    for k in range(trials):
        rng = trial_rng(seed, k)
        alpha = random_rational_lengths(rng, 4)
        len1, len2 = polytope.dh_interval_equality(alpha)
        report.record(f"dh[{k}]{alpha}", abs(len1 - len2), 0)
    return report


def suite_hexcount(trials: int, seed: int) -> RunReport:
    report = RunReport("hexcount", 1)
    ones = (Fraction(1),) * 6
    count = len(enumerate_lined(ones))
    brute = sum(1 for eps in itertools.product((1, -1), repeat=6)
                if sum(eps) == 0) // 2
    report.record("enumerate_lined", abs(count - 10), 0)
    report.record("brute-force-crosscheck", abs(brute - count), 0)
    return report


def random_rational_lengths(rng, m: int) -> tuple[Fraction, ...]:
    """Normalized (sum 2) positive rational lengths with a nonempty slice."""
    for _ in range(MAX_DRAWS):
        nums = rng.integers(1, 30, size=m).tolist()
        if is_feasible_lengths(nums):
            total = sum(nums)
            return tuple(Fraction(2 * n, total) for n in nums)
    raise PolyspaceError(f"no closing {m}-gon lengths in {MAX_DRAWS} draws")


def suite_roundtrip(trials: int, seed: int) -> RunReport:
    report = RunReport("roundtrip", trials)
    drawn = []
    for k in range(trials):
        rng = trial_rng(seed, k)
        fresh = rng.bit_generator.state
        alpha = random_rational_lengths(rng, 4 + k % 3)
        # replayed: the draws of sample_moduli(alpha, 3, 1, mix_seed(seed, k))
        rng.bit_generator.state = fresh
        drawn.append(reconstruct.draw_sample(alpha, 3, rng))
    # stack first holds trials first, first + 3, ...: one per size m
    stacks = [tuple(zip(*drawn[first::3])) for first in range(min(trials, 3))]
    # member n of stack first is trial first + 3n: the earliest failure wins
    failed = [(first + 3 * n, error) for first, (lds, _) in enumerate(stacks)
              for n, error in [reconstruct._check_triangles(lds)] if error]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    # row k: trial k's three deviations, from one stacked pass per size m
    devs = np.empty((trials, 3))
    for first, (lds, turns) in enumerate(stacks):
        edges = reconstruct._bend(*reconstruct._place(lds), turns)[0]
        ell = np.linalg.norm(edges, axis=-1)
        d = np.linalg.norm(np.cumsum(edges, axis=-2), axis=-1)
        scale = 2.0 / ell.sum(axis=-1)[:, None]
        unit = edges * scale[..., None]   # the perimeter-2 polygons
        f = frames.frame_from_edges(unit)
        pattern = frames.gc_pattern(f)
        devs[first::3] = np.stack([
            np.abs(quat.hopf_complex(*f) - unit).max(axis=(-2, -1)),
            np.abs(pattern.sums - np.cumsum(ell, axis=-1) * scale).max(axis=-1),
            np.abs(pattern.diffs - d * scale).max(axis=-1)], axis=-1)
    for k, (edges_dev, lengths, diags) in enumerate(devs.tolist()):
        report.record(f"edges[{k}]", edges_dev, 1e-9)
        report.record(f"lengths[{k}]", lengths, 1e-9)
        report.record(f"diagonals[{k}]", diags, 1e-9)
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
    if trials is None:
        trials = DEFAULT_TRIALS[name]
    if trials < 0:
        raise InputError(f"trials must be >= 0, got {trials}")
    start = time.perf_counter()
    report = SUITES[name](trials, seed)
    report.wall_clock = time.perf_counter() - start
    return report
