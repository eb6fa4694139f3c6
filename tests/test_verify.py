"""Verify suites: regressions, the suites' power to fail, bounded sampling."""

import json
import math

import numpy as np
import pytest

from polyspace import bending, polytope, verify
from polyspace.errors import RetryLimit


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


@pytest.mark.parametrize("trials, sizes", [(0, []), (1, [5]), (2, [5, 6])])
def test_bend_suite_makes_one_flow_call_per_size(monkeypatch, trials, sizes):
    flow = bending.hamiltonian_flow
    calls = []

    def counted(w, field, t, steps=None):
        calls.append(w.points.shape)
        return flow(w, field, t, steps)

    monkeypatch.setattr(bending, "hamiltonian_flow", counted)
    report = verify.suite_bend(trials, 7)
    assert report.ok
    assert calls == [(4 * len(range(m - 5, trials, 2)), m, 3) for m in sizes]


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
    assert report.ok and set(report.margins) == {"flow", "drift", "commute"}
    for deviation, tolerance in report.margins.values():
        assert 0.0 <= deviation <= tolerance


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
    verify.random_quad_lengths,
    lambda rng: verify.random_rational_lengths(rng, 4),
])
def test_rejection_samplers_stop_at_the_cap(draw):
    with pytest.raises(RetryLimit):
        draw(NeverAccepts())
