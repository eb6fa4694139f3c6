"""Quaternion arithmetic, the 2x2 embedding and the Hopf map."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyspace import quat
from polyspace.errors import NonUnitary
from polyspace.quat import I, J, K, ONE, Quaternion

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_defining_relations():
    assert quat.quat_mul(I, J) == K
    assert quat.quat_mul(J, K) == I
    assert quat.quat_mul(K, I) == J
    q = Quaternion(0.3, 1.0, -2.0, 0.5)
    assert quat.quat_mul(ONE, q) == q


def test_pure_product_is_cross_minus_dot():
    p = Quaternion.from_imaginary([1.0, 0.0, 0.0])
    q = Quaternion.from_imaginary([0.0, 1.0, 0.0])
    prod = quat.quat_mul(p, q)
    assert prod.w == 0.0
    assert np.allclose(prod.imaginary(), [0, 0, 1])


@given(quaternions, quaternions)
def test_norm_multiplicative(p, q):
    prod = quat.quat_mul(p, q)
    assert prod.norm() == pytest.approx(p.norm() * q.norm(), abs=1e-12, rel=1e-12)


@given(quaternions, quaternions)
def test_eta_is_a_ring_homomorphism(p, q):
    lhs = quat.eta(quat.quat_mul(p, q))
    rhs = quat.eta(p) @ quat.eta(q)
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, p.norm() * q.norm())


def test_eta_basis_values():
    assert np.allclose(quat.eta(ONE), np.eye(2))
    assert np.allclose(quat.eta(J), [[0, 1], [-1, 0]])


def test_hopf_small_cases():
    assert np.allclose(quat.hopf(ONE), [1, 0, 0])
    assert np.allclose(quat.hopf(J), [-1, 0, 0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(quat.hopf(Quaternion(s, 0, s, 0)), [0, 0, 1])


def test_hopf_complex_matches_full_product(rng):
    for _ in range(200):
        w, x, y, z = rng.standard_normal(4)
        q = Quaternion(w, x, y, z)
        u, v = q.complex_pair()
        product = quat.quat_mul(quat.quat_mul(q.conjugate(), I), q)
        assert np.abs(quat.hopf_complex(u, v) - product.imaginary()).max() < 1e-13
        assert np.abs(quat.hopf(q) - product.imaginary()).max() < 1e-13


def test_hopf_complex_on_arrays_matches_rows(rng):
    for m in (1, 3, 8):
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        v = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        rows = np.array([quat.hopf_complex(a, b) for a, b in zip(u, v)])
        stacked = quat.hopf_complex(u, v)
        assert stacked.shape == (m, 3)
        # |hopf(u, v)| = |u|^2 + |v|^2 bounds the rounding of each row
        scale = np.abs(u) ** 2 + np.abs(v) ** 2
        assert (np.abs(stacked - rows).max(axis=1) <= 1e-14 * scale).all()


def test_hopf_squares_the_radius(rng):
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        assert np.linalg.norm(quat.hopf(q)) == pytest.approx(
            q.norm2(), rel=1e-12)


def test_fiber_invariance(rng):
    q = Quaternion(*rng.standard_normal(4))
    base = quat.hopf(q)
    for theta in rng.uniform(0, 2 * math.pi, size=20):
        rotated = q.scale_complex(complex(math.cos(theta), math.sin(theta)))
        assert np.abs(quat.hopf(rotated) - base).max() < 1e-12 * q.norm2()


def test_fixed_plane():
    # real u and v keep the image in the i-k coordinate plane
    for s, t in [(1.0, 0.5), (-0.3, 2.0), (0.0, 1.0)]:
        q = Quaternion(s, 0.0, t, 0.0)
        image = quat.hopf(q)
        assert image[1] == pytest.approx(0.0, abs=1e-15)


def _random_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_act_right_equivariance(rng):
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        P = _random_unitary(rng)
        lhs = quat.hopf(quat.act_right(q, P))
        rhs = quat.conjugate_vector(P, quat.hopf(q))
        assert np.abs(lhs - rhs).max() < 1e-11


def test_act_right_preserves_norm_and_identity(rng):
    q = Quaternion(*rng.standard_normal(4))
    assert quat.act_right(q, np.eye(2)) == q
    P = _random_unitary(rng)
    assert quat.act_right(q, P).norm() == pytest.approx(q.norm(), rel=1e-12)


def test_act_right_matches_quaternion_product():
    assert quat.act_right(ONE, quat.eta(J)).complex_pair() == (0j, 1 + 0j)


def test_act_right_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        quat.act_right(ONE, np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_hopf_section_round_trip(rng):
    for _ in range(300):
        x = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
        q = quat.hopf_section(x)
        assert np.abs(quat.hopf(q) - x).max() < 1e-12 * max(
            1.0, np.linalg.norm(x))


def test_hopf_section_special_points():
    assert quat.hopf_section([0.0, 0.0, 0.0]) == quat.ZERO
    r = 2.25
    q = quat.hopf_section([r, 0.0, 0.0])
    assert np.allclose(quat.hopf(q), [r, 0, 0])
    # antipode branch
    q = quat.hopf_section([-1.0, 0.0, 0.0])
    assert np.abs(quat.hopf(q) - [-1.0, 0.0, 0.0]).max() < 1e-12


def test_hopf_section_deterministic():
    x = [0.3, -0.7, 0.1]
    assert quat.hopf_section(x) == quat.hopf_section(list(x))
