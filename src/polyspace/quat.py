"""Quaternion arithmetic, the 2x2 complex embedding and the Hopf map."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonUnitary

_UNITARY_TOL = 1e-9


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

    def scale_complex(self, zc: complex) -> "Quaternion":
        """Left multiplication by the complex number zc."""
        u, v = self.complex_pair()
        return Quaternion.from_complex_pair(zc * u, zc * v)

    def __add__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w + other.w, self.x + other.x,
                          self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(self.w - other.w, self.x - other.x,
                          self.y - other.y, self.z - other.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return quat_mul(self, other)


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


def eta_inv(mat: np.ndarray) -> Quaternion:
    """Inverse of :func:`eta` on its image; reads off the first row."""
    return Quaternion.from_complex_pair(complex(mat[0, 0]), complex(mat[0, 1]))


def hopf(q: Quaternion) -> np.ndarray:
    """The Hopf map q -> conj(q) i q, returned as a vector in R^3.

    The real part of the product vanishes identically; only the imaginary
    coordinates are returned.  |hopf(q)| = |q|^2.
    """
    return hopf_complex(*q.complex_pair())


def hopf_complex(u, v) -> np.ndarray:
    """Hopf map in the complex chart: q = u + v j.

    Expanding conj(q) i q gives i [(|u|^2 - |v|^2) + 2 conj(u) v j], whose
    (i, j, k) coordinates are (|u|^2 - |v|^2, -Im(2 conj(u) v), Re(2 conj(u) v)).
    u and v are complex numbers or 1-d arrays, giving one row per entry
    with the coordinates on the last axis.  ``conjugate`` and ``abs``
    serve both and skip numpy's per-call overhead on a single row.
    """
    c = 2.0 * u.conjugate() * v
    return np.array([abs(u) ** 2 - abs(v) ** 2, -c.imag, c.real]).T


def check_unitary(P: np.ndarray, tol: float = _UNITARY_TOL) -> np.ndarray:
    P = np.asarray(P, dtype=complex)
    if P.shape != (2, 2):
        raise NonUnitary(f"expected a 2x2 matrix, got shape {P.shape}")
    defect = np.linalg.norm(P @ P.conj().T - np.eye(2))
    if defect > tol:
        raise NonUnitary(f"matrix is not unitary (defect {defect:.3e})")
    return P


def act_right(q: Quaternion, P: np.ndarray) -> Quaternion:
    """Right action of P in U_2 on q, through the row vector (u, v).

    For P = eta(p) with p a unit quaternion this is the quaternion product
    q p.  The action preserves |q|.
    """
    P = check_unitary(P)
    u, v = q.complex_pair()
    return Quaternion.from_complex_pair(u * P[0, 0] + v * P[1, 0],
                                        u * P[0, 1] + v * P[1, 1])


def conjugate_vector(P: np.ndarray, vec) -> np.ndarray:
    """Conjugate the pure imaginary quaternion vec by P: eta^-1(P^-1 eta(vec) P)."""
    P = check_unitary(P)
    M = P.conj().T @ eta(Quaternion.from_imaginary(vec)) @ P
    return eta_inv(M).imaginary()


def hopf_section(x) -> Quaternion:
    """Deterministic right inverse of the Hopf map.

    For x away from the negative i-axis returns sqrt(|x|) * unit(1 - i n)
    with n = x/|x|; within 1e-9 of the negative i-axis the lift is
    sqrt(|x|) * j.  hopf(hopf_section(x)) = x.
    """
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
