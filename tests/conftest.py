import numpy as np
import pytest

from polyspace.polygon import Polygon


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_rotation(rng, dim=3):
    """Haar-ish random rotation matrix, for invariance tests."""
    a = rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def rotated(p, rot):
    return Polygon(p.dim, p.edges @ np.asarray(rot).T)
