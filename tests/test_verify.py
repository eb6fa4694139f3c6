"""Verify suites: regressions, the suites' power to fail, bounded sampling."""

import numpy as np
import pytest

from polyspace import bending, verify
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
