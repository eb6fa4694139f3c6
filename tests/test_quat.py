"""The Hopf map in the complex chart, checked against quaternion arithmetic.

The library keeps a row as the complex pair (u, v).  The quaternion class,
its product and the 2x2 embedding below are test-only oracles: they spell
out the paper's q = u + v j and conj(q) i q, and the library's complex
formulas are compared against them.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyspace import quat
from polyspace.errors import NonUnitary


@dataclass(frozen=True)
class Quaternion:
    """A quaternion w + x i + y j + z k with 64-bit float coefficients."""

    w: float
    x: float
    y: float
    z: float

    @staticmethod
    def from_complex_pair(u: complex, v: complex) -> "Quaternion":
        """Build u + v j from the two complex coordinates."""
        u, v = complex(u), complex(v)
        return Quaternion(u.real, u.imag, v.real, v.imag)

    @staticmethod
    def from_imaginary(vec) -> "Quaternion":
        x, y, z = (float(c) for c in vec)
        return Quaternion(0.0, x, y, z)

    def complex_pair(self) -> tuple[complex, complex]:
        """The (u, v) with self = u + v j."""
        return complex(self.w, self.x), complex(self.y, self.z)

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm2(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return math.sqrt(self.norm2())

    def imaginary(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    def scale(self, s: float) -> "Quaternion":
        return Quaternion(s * self.w, s * self.x, s * self.y, s * self.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)


ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)
ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)


def quat_mul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product, with ij = k, jk = i, ki = j."""
    return Quaternion(
        p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
        p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
        p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
        p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w,
    )


def eta(q: Quaternion) -> np.ndarray:
    """Embed u + v j as the 2x2 complex matrix [[u, v], [-conj(v), conj(u)]]."""
    u, v = q.complex_pair()
    return np.array([[u, v], [-v.conjugate(), u.conjugate()]])


def oracle_section(x) -> Quaternion:
    """The section built from quaternion products: sqrt(|x|) unit(1 - i n),
    n = x/|x|, and sqrt(|x|) j within 1e-9 of the negative i-axis."""
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return ZERO
    n = x / r
    s = math.sqrt(r)
    if np.linalg.norm(n - np.array([-1.0, 0.0, 0.0])) < 1e-9:
        return J.scale(s)
    q0 = ONE - quat_mul(I, Quaternion.from_imaginary(n))
    w = q0.w
    if n[0] < 0.0:
        # 1 + n_x cancels near the negative i-axis; on the unit sphere
        # it equals (n_y^2 + n_z^2) / (1 - n_x), which does not
        w = (n[1] * n[1] + n[2] * n[2]) / (1.0 - n[0])
        q0 = Quaternion(w, q0.x, q0.y, q0.z)
    return q0.scale(s / q0.norm())


def hopf(q: Quaternion) -> np.ndarray:
    return quat.hopf_complex(*q.complex_pair())


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)
quaternions = st.builds(Quaternion, finite, finite, finite, finite)


def test_defining_relations():
    assert quat_mul(I, J) == K
    assert quat_mul(J, K) == I
    assert quat_mul(K, I) == J
    q = Quaternion(0.3, 1.0, -2.0, 0.5)
    assert quat_mul(ONE, q) == q


def test_pure_product_is_cross_minus_dot():
    p = Quaternion.from_imaginary([1.0, 0.0, 0.0])
    q = Quaternion.from_imaginary([0.0, 1.0, 0.0])
    prod = quat_mul(p, q)
    assert prod.w == 0.0
    assert np.allclose(prod.imaginary(), [0, 0, 1])


@given(quaternions, quaternions)
def test_norm_multiplicative(p, q):
    prod = quat_mul(p, q)
    assert prod.norm() == pytest.approx(p.norm() * q.norm(), abs=1e-12, rel=1e-12)


@given(quaternions, quaternions)
def test_eta_is_a_ring_homomorphism(p, q):
    lhs = eta(quat_mul(p, q))
    rhs = eta(p) @ eta(q)
    assert np.linalg.norm(lhs - rhs) < 1e-12 * max(1.0, p.norm() * q.norm())


def test_eta_basis_values():
    assert np.allclose(eta(ONE), np.eye(2))
    assert np.allclose(eta(J), [[0, 1], [-1, 0]])


def test_hopf_small_cases():
    assert np.allclose(hopf(ONE), [1, 0, 0])
    assert np.allclose(hopf(J), [-1, 0, 0])
    s = 1.0 / math.sqrt(2.0)
    assert np.allclose(hopf(Quaternion(s, 0, s, 0)), [0, 0, 1])


def test_hopf_complex_matches_full_product(rng):
    for _ in range(200):
        w, x, y, z = rng.standard_normal(4)
        q = Quaternion(w, x, y, z)
        u, v = q.complex_pair()
        product = quat_mul(quat_mul(q.conjugate(), I), q)
        assert np.abs(quat.hopf_complex(u, v) - product.imaginary()).max() < 1e-13
        assert np.abs(quat.hopf(u, v) - product.imaginary()).max() < 1e-13


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
        assert np.linalg.norm(hopf(q)) == pytest.approx(q.norm2(), rel=1e-12)


def test_fiber_invariance(rng):
    q = Quaternion(*rng.standard_normal(4))
    u, v = q.complex_pair()
    base = quat.hopf_complex(u, v)
    for theta in rng.uniform(0, 2 * math.pi, size=20):
        phase = complex(math.cos(theta), math.sin(theta))
        rotated = quat.hopf_complex(phase * u, phase * v)
        assert np.abs(rotated - base).max() < 1e-12 * q.norm2()


def test_fixed_plane():
    # real u and v keep the image in the i-k coordinate plane
    for s, t in [(1.0, 0.5), (-0.3, 2.0), (0.0, 1.0)]:
        image = hopf(Quaternion(s, 0.0, t, 0.0))
        assert image[1] == pytest.approx(0.0, abs=1e-15)


def _random_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_act_right_equivariance(rng):
    for _ in range(100):
        row = Quaternion(*rng.standard_normal(4)).complex_pair()
        P = _random_unitary(rng)
        lhs = quat.hopf_complex(*quat.act_right(row, P))
        rhs = quat.conjugate_vector(P, quat.hopf_complex(*row))
        assert np.abs(lhs - rhs).max() < 1e-11


def test_conjugate_vector_matches_quaternion_conjugation(rng):
    # eta^-1(P* eta(x) P), read off the first row of the product
    for _ in range(100):
        x = rng.standard_normal(3)
        P = _random_unitary(rng)
        M = P.conj().T @ eta(Quaternion.from_imaginary(x)) @ P
        expected = Quaternion.from_complex_pair(M[0, 0], M[0, 1]).imaginary()
        assert np.abs(quat.conjugate_vector(P, x) - expected).max() < 1e-15


def test_act_right_preserves_norm_and_identity(rng):
    q = Quaternion(*rng.standard_normal(4))
    row = q.complex_pair()
    assert quat.act_right(row, np.eye(2)) == row
    u, v = quat.act_right(row, _random_unitary(rng))
    assert math.hypot(abs(u), abs(v)) == pytest.approx(q.norm(), rel=1e-12)


def test_act_right_matches_quaternion_product(rng):
    assert quat.act_right(ONE.complex_pair(), eta(J)) == (0j, 1 + 0j)
    for _ in range(100):
        q = Quaternion(*rng.standard_normal(4))
        p = Quaternion(*rng.standard_normal(4))
        p = p.scale(1.0 / p.norm())
        u, v = quat.act_right(q.complex_pair(), eta(p))
        pu, pv = quat_mul(q, p).complex_pair()
        assert max(abs(u - pu), abs(v - pv)) < 1e-14 * max(1.0, q.norm())


def test_act_right_rejects_non_unitary():
    with pytest.raises(NonUnitary):
        quat.act_right(ONE.complex_pair(), np.array([[1.0, 0.0], [0.0, 2.0]]))


def test_hopf_section_round_trip(rng):
    for _ in range(300):
        x = rng.standard_normal(3) * rng.uniform(0.1, 5.0)
        row = quat.hopf_section(x)
        assert np.abs(quat.hopf_complex(*row) - x).max() < 1e-12 * max(
            1.0, np.linalg.norm(x))


def test_hopf_section_special_points():
    assert quat.hopf_section([0.0, 0.0, 0.0]) == (0.0, 0.0)
    r = 2.25
    row = quat.hopf_section([r, 0.0, 0.0])
    assert np.allclose(quat.hopf_complex(*row), [r, 0, 0])
    # antipode branch
    row = quat.hopf_section([-1.0, 0.0, 0.0])
    assert row == (0.0, 1.0)
    assert np.abs(quat.hopf_complex(*row) - [-1.0, 0.0, 0.0]).max() < 1e-12


def test_hopf_section_deterministic():
    x = [0.3, -0.7, 0.1]
    assert quat.hopf_section(x) == quat.hopf_section(np.array(x))


def _section_points(rng):
    """Seeded points, bands around the negative i-axis, and special points."""
    points = [rng.standard_normal(3) * rng.uniform(1e-3, 1e3) for _ in range(500)]
    for eps in 10.0 ** np.arange(-12, -2):
        for _ in range(20):
            r = rng.uniform(0.1, 10.0)
            perp = rng.standard_normal(2) * eps
            points.append(r * np.array([-1.0, *perp]))
    points += [np.zeros(3), np.array([2.25, 0.0, 0.0]),
               np.array([-1.0, 0.0, 0.0])]
    return points


def test_hopf_section_matches_quaternion_oracle(rng):
    for x in _section_points(rng):
        u, v = quat.hopf_section(x)
        ou, ov = oracle_section(x).complex_pair()
        dev = max(abs(u - ou), abs(v - ov))
        assert dev <= 2e-15 * max(1.0, math.sqrt(np.linalg.norm(x))), x


def test_hopf_section_on_rows_matches_points(rng):
    points = np.array(_section_points(rng))
    u, v = quat.hopf_section(points)
    assert u.shape == v.shape == (len(points),)
    for r, x in enumerate(points):
        assert (u[r], v[r]) == quat.hopf_section(x)
