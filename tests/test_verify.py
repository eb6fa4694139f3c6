"""Verify suites: regressions, the suites' power to fail, bounded sampling."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from polyspace import (bending, frames, polygon as pg, polytope, quat,
                       reconstruct, verify)
from polyspace.errors import InputError, PolyspaceError

FLOW_TIMES = (0.1, 1.0, math.pi, 2.0 * math.pi)


def test_kahler_seed_3_passes():
    # central differences of the Hopf map missed 1e-6 on ratio[188] here
    assert verify.suite_kahler(200, 3).ok


def test_bend_suite_fails_on_the_negated_field(monkeypatch):
    exact = bending.diagonal_field

    def negated(i):
        X = exact(i)
        return lambda points: -X(points)

    monkeypatch.setattr(bending, "diagonal_field", negated)
    report = verify.suite_bend(1, 0)
    assert any(case.startswith("flow[") for case, _, _ in report.failures)


def _counted_flow(monkeypatch):
    """Patch the flow to log each call's (points shape, result points)."""
    flow = bending.hamiltonian_flow
    calls = []

    def counted(points, field, t):
        out = flow(points, field, t)
        calls.append((points.shape, out))
        return out

    monkeypatch.setattr(bending, "hamiltonian_flow", counted)
    return calls


@pytest.mark.parametrize("trials, shapes", [
    (0, []), (1, [(4, 5, 3)]), (2, [(8, 6, 3)])])
def test_bend_suite_makes_one_padded_flow_call(monkeypatch, trials, shapes):
    calls = _counted_flow(monkeypatch)
    report = verify.suite_bend(trials, 7)
    assert report.ok
    assert [shape for shape, _ in calls] == shapes


def bend_suite_draws(trials, seed):
    """The bend suite's draws at ``seed``, as (trial, polygon, head)."""
    drawn = []
    for k in range(trials):
        rng = verify.trial_rng(seed, k)
        poly = verify.random_prodigal_polygon(rng, 5 + k % 2)
        drawn.append((k, poly, int(rng.integers(2, poly.m - 1))))
    return drawn


def per_size_flows(trials, seed):
    """Oracle: the bend suite's flows with one unpadded call per size m,
    as {(trial, t): points}."""
    drawn = bend_suite_draws(trials, seed)
    flowed = {}
    for m in sorted({poly.m for _, poly, _ in drawn}):
        ks, polys, heads, ts = zip(*[(k, p, i, t) for k, p, i in drawn
                                     if p.m == m for t in FLOW_TIMES])
        edges = np.stack([p.edges for p in polys])
        out = bending.hamiltonian_flow(edges, bending.diagonal_field(heads),
                                       ts)
        flowed.update(zip(zip(ks, ts), out))
    return flowed


@pytest.mark.parametrize("trials", [4, 5])
@pytest.mark.parametrize("seed", range(4))
def test_padded_flow_matches_per_size_flows(monkeypatch, seed, trials):
    calls = _counted_flow(monkeypatch)
    assert verify.suite_bend(trials, seed).ok
    [(shape, padded)] = calls
    assert shape == (4 * trials, 6, 3)
    oracle = per_size_flows(trials, seed)
    assert len(oracle) == len(padded)
    for b, ((k, t), points) in enumerate(sorted(oracle.items())):
        m = points.shape[0]
        assert np.array_equal(padded[b, :m], points), (k, t)
        # the pad row of a pentagon never moves
        assert (padded[b, m:] == [0.0, 0.0, 1.0]).all()


def test_bend_suite_flow_margin_stays_below_1e_9_at_seeds_0_to_99():
    # the suite's draws at seeds 0..99 and 4 trials, padded and flowed as
    # the suite does, but in one call for all seeds
    seeds, trials = range(100), 4
    drawn = [d for seed in seeds for d in bend_suite_draws(trials, seed)]
    edges = np.tile([0.0, 0.0, 1.0], (len(drawn), 6, 1))
    for b, (_, poly, _) in enumerate(drawn):
        edges[b, :poly.m] = poly.edges
    n = len(FLOW_TIMES)
    flowed = bending.hamiltonian_flow(
        np.repeat(edges, n, axis=0),
        bending.diagonal_field(np.repeat([i for _, _, i in drawn], n)),
        FLOW_TIMES * len(drawn))
    worst = np.zeros(len(seeds))
    for b, (_, poly, i) in enumerate(drawn):
        for j, t in enumerate(FLOW_TIMES):
            dev = np.abs(flowed[n * b + j, :poly.m]
                         - bending.bend(poly, i, t).edges).max()
            worst[b // trials] = max(worst[b // trials], dev)
    assert worst.max() < 1e-9
    # these are the suite's draws: its report at the worst seed agrees
    seed = int(worst.argmax())
    assert verify.suite_bend(trials, seed).margins["flow"][0] == \
        pytest.approx(worst[seed], rel=1e-9)


@pytest.mark.parametrize("linked", [
    0.0, math.nan, -1.0, 5e-324, 1e-3, math.nextafter(1e-3, 1.0), 0.5,
    math.inf])
def test_linked_check_fails_exactly_when_not_above_its_bound(monkeypatch,
                                                            linked):
    monkeypatch.setattr(bending, "commute_defect", lambda *args: linked)
    report = verify.suite_bend(0, 3)
    assert report.ok == (linked > 1e-3)
    deviation, tolerance = report.margins["linked-pair-commutes"]
    assert (deviation <= tolerance) == report.ok


def _logged_records(monkeypatch):
    """Patch RunReport.record to log each (case, dev, tol) it is given."""
    record = verify.RunReport.record
    recorded = []

    def logged(self, case_id, deviation, tolerance):
        recorded.append((case_id, deviation, tolerance))
        record(self, case_id, deviation, tolerance)

    monkeypatch.setattr(verify.RunReport, "record", logged)
    return recorded


def per_trial_hopf(trials, seed):
    """Oracle: the hopf suite one trial at a time, as (case, dev, tol)."""
    rows = []
    for k in range(trials):
        rng = verify.trial_rng(seed, k)
        w, x, y, z = rng.standard_normal(4)
        u, v = complex(w, x), complex(y, z)
        norm2 = w * w + x * x + y * y + z * z
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        q, r = np.linalg.qr(g)
        P = q * (np.diag(r) / np.abs(np.diag(r)))
        theta = rng.uniform(0.0, 2.0 * math.pi)
        hq = quat.hopf_complex(u, v)
        equiv = np.linalg.norm(quat.hopf_complex(*quat.act_right((u, v), P))
                               - quat.conjugate_vector(P, hq))
        rows.append((f"equivariance[{k}]", equiv, 1e-11))
        phase = complex(math.cos(theta), math.sin(theta))
        fiber = np.linalg.norm(quat.hopf_complex(phase * u, phase * v) - hq)
        rows.append((f"fiber[{k}]", fiber, 1e-12 * max(1.0, norm2)))
        radius = abs(np.linalg.norm(hq) - norm2)
        rows.append((f"radius[{k}]", radius, 1e-12 * max(1.0, norm2)))
    return rows


@pytest.mark.parametrize("trials, seeds", [(300, range(5)), (0, [0]),
                                           (1, [0, 1])])
def test_stacked_hopf_suite_matches_per_trial_loop(monkeypatch, trials,
                                                   seeds):
    recorded = _logged_records(monkeypatch)
    for seed in seeds:
        recorded.clear()
        report = verify.suite_hopf(trials, seed)
        oracle = per_trial_hopf(trials, seed)
        assert [case for case, _, _ in recorded] == \
            [case for case, _, _ in oracle]
        for (case, dev, tol), (_, want, want_tol) in zip(recorded, oracle):
            assert abs(dev - want) <= 1e-12, case
            assert tol == want_tol, case
        failed = [case for case, dev, tol in oracle if not dev <= tol]
        assert report.ok == (not failed)
        assert [case for case, _, _ in report.failures] == failed


def per_trial_gc(trials, seed):
    """Oracle: the gc suite one frame at a time, as (case, dev, tol)."""
    rows = []
    for k in range(trials):
        f = frames.random_frame(3 + k % 8, verify.trial_rng(seed, k))
        poly = frames.frame_to_polygon(f)
        ell, d = pg.side_lengths(poly), pg.diagonals(poly)
        pattern = frames.gc_pattern(f)
        rows.append((f"sums[{k}]",
                     np.abs(pattern.sums - np.cumsum(ell)).max(), 1e-10))
        rows.append((f"diffs[{k}]", np.abs(pattern.diffs - d).max(), 1e-10))
        rows.append((f"interlacing[{k}]", -frames.interlacing_slack(pattern),
                     1e-9))
        rows.append((f"moment[{k}]",
                     np.abs(frames.moment_mu(f) - ell).max(), 1e-12))
    return rows


# 7 trials draw fewer frames than there are sizes m = 3..10
@pytest.mark.parametrize("trials, seeds", [(200, range(10)), (0, [0]),
                                           (1, [0, 1]), (7, [0])])
def test_stacked_gc_suite_matches_per_trial_loop(monkeypatch, trials, seeds):
    recorded = _logged_records(monkeypatch)
    for seed in seeds:
        recorded.clear()
        report = verify.suite_gc(trials, seed)
        oracle = per_trial_gc(trials, seed)
        assert [case for case, _, _ in recorded] == \
            [case for case, _, _ in oracle]
        for (case, dev, tol), (_, want, want_tol) in zip(recorded, oracle):
            assert abs(dev - want) <= 1e-12, case
            assert tol == want_tol, case
        failed = [case for case, dev, tol in oracle if not dev <= tol]
        assert report.ok == (not failed)
        assert [case for case, _, _ in report.failures] == failed


def per_trial_roundtrip(trials, seed):
    """Oracle: the roundtrip suite one sampled polygon at a time, as
    (case, dev, tol)."""
    rows = []
    for k in range(trials):
        alpha = verify.random_rational_lengths(verify.trial_rng(seed, k),
                                               4 + k % 3)
        poly = reconstruct.sample_moduli(alpha, 3, 1,
                                         verify.mix_seed(seed, k))[0]
        ell, d = pg.side_lengths(poly), pg.diagonals(poly)
        norm_poly = pg.Polygon(3, poly.edges * (2.0 / pg.perimeter(poly)))
        f = frames.frame_from_polygon(norm_poly)
        back = frames.frame_to_polygon(f)
        rows.append((f"edges[{k}]",
                     np.abs(back.edges - norm_poly.edges).max(), 1e-9))
        scale = 2.0 / pg.perimeter(poly)
        pattern = frames.gc_pattern(f)
        rows.append((f"lengths[{k}]",
                     np.abs(pattern.sums - np.cumsum(ell) * scale).max(),
                     1e-9))
        rows.append((f"diagonals[{k}]",
                     np.abs(pattern.diffs - d * scale).max(), 1e-9))
    return rows


# 1 and 2 trials leave some of the sizes m = 4, 5, 6 without a polygon
@pytest.mark.parametrize("trials, seeds", [(100, range(4)), (0, [0]),
                                           (1, [0, 1]), (2, [3]),
                                           (3, [0, 5])])
def test_stacked_roundtrip_suite_matches_per_trial_loop(monkeypatch, trials,
                                                        seeds):
    recorded = _logged_records(monkeypatch)
    for seed in seeds:
        recorded.clear()
        report = verify.suite_roundtrip(trials, seed)
        oracle = per_trial_roundtrip(trials, seed)
        assert recorded == oracle   # bit for bit
        assert report.ok == all(dev <= tol for _, dev, tol in oracle)


def _counted(monkeypatch, module, name):
    """Patch module.name to log each call's result."""
    fn = getattr(module, name)
    calls = []

    def counted(*args):
        out = fn(*args)
        calls.append(out)
        return out

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("trials, seed", [(100, 0), (7, 3), (2, 1)])
def test_roundtrip_suite_builds_one_stack_per_size(monkeypatch, trials, seed):
    places = _counted(monkeypatch, reconstruct, "_place")
    bends = _counted(monkeypatch, reconstruct, "_bend")
    lifts = _counted(monkeypatch, quat, "hopf_section")
    verify.suite_roundtrip(trials, seed)
    sizes = min(trials, 3)
    assert len(places) == len(bends) == len(lifts) == sizes
    # the stack of size m = 4 + first holds trials first, first + 3, ...,
    # each the one polygon sample_moduli draws from that trial's seed
    for first, (edges, _) in enumerate(list(bends)):
        assert edges.shape == (len(range(first, trials, 3)), 4 + first, 3)
        for row, k in zip(edges, range(first, trials, 3)):
            alpha = verify.random_rational_lengths(
                verify.trial_rng(seed, k), 4 + first)
            poly = reconstruct.sample_moduli(alpha, 3, 1,
                                             verify.mix_seed(seed, k))[0]
            assert np.array_equal(row, poly.edges)


def test_trial_rng_draws_as_default_rng():
    # mix_seed spreads over 64 bits: half the seeds it gives are >= 2**63
    seeds = [(seed, k) for seed in (0, 1, 2**63, 2**64 - 1) for k in range(4)]
    assert any(verify.mix_seed(seed, k) >= 2**63 for seed, k in seeds)
    for seed, k in seeds:
        got = verify.trial_rng(seed, k)
        want = np.random.default_rng(verify.mix_seed(seed, k))
        assert np.array_equal(got.standard_normal(5), want.standard_normal(5))
        assert np.array_equal(got.integers(0, 720721, size=5),
                              want.integers(0, 720721, size=5))
        assert got.uniform(0.0, 1.0) == want.uniform(0.0, 1.0)


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_run_suite_refuses_a_negative_trial_count(name):
    with pytest.raises(InputError, match="trials must be >= 0, got -1"):
        verify.run_suite(name, -1)


def _hopf_differential(row, tangent):
    """Oracle: the derivative of the Hopf map at one row, in complex
    scalars."""
    u, v = complex(row[0]), complex(row[1])
    a, b = complex(tangent[0]), complex(tangent[1])
    dc = 2.0 * (a.conjugate() * v + u.conjugate() * b)
    return np.array([2.0 * (u.conjugate() * a - v.conjugate() * b).real,
                     -dc.imag, dc.real])


def per_trial_kahler(trials, seed):
    """Oracle: the kahler suite one trial at a time, as (case, dev, tol)."""
    rows = []
    for k in range(trials):
        rng = verify.trial_rng(seed, k)
        u, v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        scale = math.sqrt(rng.uniform(0.3, 2.0)) / math.hypot(abs(u), abs(v))
        u, v = u * scale, v * scale
        z1, z2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        row = np.array([u, v])
        tu = np.array([-np.conj(v), np.conj(u)]) * z1
        tv = np.array([-np.conj(v), np.conj(u)]) * z2
        den = float(-np.imag(np.sum(tu * tv.conj())))
        if abs(den) < 1e-9:
            continue
        x = quat.hopf_complex(u, v)
        pu, pv = (p - np.dot(p, x) * x / (x @ x) for p in (
            _hopf_differential(row, tu), _hopf_differential(row, tv)))
        num = float(np.dot(x, np.cross(pu, pv))) / (x @ x)
        rows.append((f"ratio[{k}]", abs(num / den - 4.0), 1e-6))
        push = _hopf_differential(row, tu)
        push_j = _hopf_differential(row, 1j * tu)
        turned = np.cross(x, push) / np.linalg.norm(x)
        rows.append((f"complex[{k}]", np.linalg.norm(turned - push_j),
                     1e-6 * max(1.0, float(np.linalg.norm(push)))))
    return rows


@pytest.mark.parametrize("trials, seeds", [(200, range(5)), (0, [0]),
                                           (1, [0, 1])])
def test_stacked_kahler_suite_matches_per_trial_probe(monkeypatch, trials,
                                                      seeds):
    recorded = _logged_records(monkeypatch)
    for seed in seeds:
        recorded.clear()
        report = verify.suite_kahler(trials, seed)
        oracle = per_trial_kahler(trials, seed)
        assert [case for case, _, _ in recorded] == \
            [case for case, _, _ in oracle]
        for (case, dev, tol), (_, want, want_tol) in zip(recorded, oracle):
            assert abs(dev - want) <= 1e-10, case
            assert tol == pytest.approx(want_tol, rel=1e-12), case
        failed = [case for case, dev, tol in oracle if not dev <= tol]
        assert report.ok == (not failed)
        assert [case for case, _, _ in report.failures] == failed


class EqualPair:
    """A trial's generator whose second draw of four makes z1 = z2."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self, size):
        out = self.rng.standard_normal(size)
        self.draws += 1
        if self.draws == 2:   # (Re z1, Re z2, Im z1, Im z2)
            out[1], out[3] = out[0], out[2]
        return out

    def uniform(self, low, high):
        return self.rng.uniform(low, high)


def test_kahler_suite_skips_a_pair_where_the_flat_form_vanishes(
        monkeypatch):
    trial_rng = verify.trial_rng
    monkeypatch.setattr(verify, "trial_rng", lambda seed, k: EqualPair(
        trial_rng(seed, k)) if k == 1 else trial_rng(seed, k))
    recorded = _logged_records(monkeypatch)
    report = verify.suite_kahler(3, 0)
    assert report.ok
    assert [case for case, _, _ in recorded] == [
        "ratio[0]", "complex[0]", "ratio[2]", "complex[2]"]


def test_dh_suite_skips_the_genericity_test(monkeypatch):
    def refuse(alpha):
        raise AssertionError("dh needs no genericity test")

    monkeypatch.setattr(polytope, "is_generic_lengths", refuse)
    assert verify.suite_dh(20, 0).ok


def test_margins_keep_the_worst_deviation_of_each_check():
    report = verify.RunReport("demo", 3)
    report.record("flow[0,i=2]", 1e-9, 1e-6)
    report.record("flow[1,i=3]", 4e-9, 1e-6)
    report.record("flow[2,i=2]", 2e-9, 1e-6)
    report.record("drift[0]", 3e-8, 1e-8)
    assert report.margins == {"flow": (4e-9, 1e-6), "drift": (3e-8, 1e-8)}
    assert report.failures == [("drift[0]", 3e-8, 1e-8)]
    doc = report.to_json_dict()
    assert doc["ok"] is False
    assert doc["margins"]["flow"] == {"deviation": 4e-9, "tolerance": 1e-6}


def test_margins_keep_the_trial_nearest_to_failing():
    report = verify.RunReport("demo", 4)
    report.record("fiber[0]", 1e-13, 1e-12)
    report.record("fiber[1]", 5e-13, 1e-11)
    assert report.margins == {"fiber": (1e-13, 1e-12)}
    # with tolerance 0 the largest deviation is kept
    for k, deviation in enumerate((0, 2, 1)):
        report.record(f"dh[{k}]", deviation, 0)
    assert report.margins["dh"] == (2.0, 0.0)
    # a NaN deviation is kept over any number
    report.record("fiber[2]", math.nan, 1e-12)
    report.record("fiber[3]", 1e-12, 1e-12)
    assert math.isnan(report.margins["fiber"][0])
    assert [case for case, _, _ in report.failures] == [
        "dh[1]", "dh[2]", "fiber[2]"]


def test_nan_deviation_is_null_in_json():
    report = verify.RunReport("demo", 2)
    report.record("ratio[0]", math.nan, 1e-6)
    report.record("ratio[1]", 1e-9, 1e-6)
    doc = report.to_json_dict()
    assert not report.ok
    assert doc["margins"]["ratio"] == {"deviation": None, "tolerance": 1e-6}
    assert doc["failures"] == [
        {"case": "ratio[0]", "deviation": None, "tolerance": 1e-6}]
    json.dumps(doc, allow_nan=False)


def test_passing_suites_report_margins_within_tolerance():
    report = verify.suite_bend(2, 0)
    assert report.ok and set(report.margins) == {
        "flow", "drift", "commute", "linked-pair-commutes"}
    for deviation, tolerance in report.margins.values():
        assert 0.0 <= deviation <= tolerance


def test_exact_checks_report_margins():
    assert verify.suite_dh(20, 0).margins == {"dh": (0.0, 0.0)}
    assert verify.suite_hexcount(1, 0).margins == {
        "enumerate_lined": (0.0, 0.0), "brute-force-crosscheck": (0.0, 0.0)}


def test_dh_compares_its_fractions_exactly(monkeypatch):
    # the two lengths differ by less than the smallest float
    tiny = Fraction(1, 10 ** 400)
    monkeypatch.setattr(polytope, "dh_interval_equality",
                        lambda alpha: (Fraction(1), 1 + tiny))
    report = verify.suite_dh(2, 0)
    assert not report.ok and len(report.failures) == 2
    assert all(dev == 0.0 and tol == 0.0 for _, dev, tol in report.failures)


class NeverAccepts:
    """An rng whose draws every rejection sampler rejects."""

    def standard_normal(self, shape):
        return np.zeros(shape)

    def integers(self, low, high, size=None):
        if size is None:
            return low
        # one side as long as all the others together and more
        return np.array([1] * (size - 1) + [high - 1])


@pytest.mark.parametrize("draw", [
    lambda rng: verify.random_prodigal_polygon(rng, 5),
    lambda rng: verify.random_rational_lengths(rng, 4),
])
def test_rejection_samplers_stop_at_the_cap(draw):
    with pytest.raises(PolyspaceError, match="draws"):
        draw(NeverAccepts())
