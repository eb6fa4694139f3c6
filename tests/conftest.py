import numpy as np
import pytest

from polyspace.errors import InputError
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


# Test-only oracle: the orthogonal reflection of a polygon, as it was when
# the package kept it as polygon.reflect.
def reflect(p, axis=-1):
    """Orthogonal reflection negating one coordinate (the last by default)."""
    if p.dim < 2:
        raise InputError("reflection is the identity on P(m,1); refusing")
    edges = p.edges.copy()
    edges[:, axis] = -edges[:, axis]
    return Polygon(p.dim, edges)
