"""The Hopf map in the complex chart, its section and the U_2 action.

A row (u, v) of a 2-frame in C^m is the quaternion q = u + v j, and the
Hopf map q -> conj(q) i q sends it to an edge vector in R^3.  Rows are
kept as complex pairs throughout; a unit quaternion p acts through its
2x2 matrix [[u, v], [-conj(v), conj(u)]].
"""

from __future__ import annotations

import numpy as np

from .errors import NonUnitary

_UNITARY_TOL = 1e-9


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


# perfbench/tracer.py names quat.hopf, quat.hopf_complex and
# quat.hopf_section in TRACED, and tracer.install fails on a missing name.
hopf = hopf_complex


def check_unitary(P: np.ndarray, tol: float = _UNITARY_TOL) -> np.ndarray:
    P = np.asarray(P, dtype=complex)
    if P.shape != (2, 2):
        raise NonUnitary(f"expected a 2x2 matrix, got shape {P.shape}")
    defect = np.linalg.norm(P @ P.conj().T - np.eye(2))
    if not defect <= tol:
        raise NonUnitary(f"matrix is not unitary (defect {defect:.3e})")
    return P


def act_right(row, P: np.ndarray):
    """Right action (u, v) -> (u, v) P of P in U_2 on a row.

    For P the matrix of a unit quaternion p this is the quaternion product
    q p.  The action preserves |u|^2 + |v|^2.  u and v are complex numbers
    or arrays of them.
    """
    (p00, p01), (p10, p11) = check_unitary(P).tolist()
    u, v = row
    return u * p00 + v * p10, u * p01 + v * p11


def conjugate_vector(P: np.ndarray, x) -> np.ndarray:
    """Conjugate the pure quaternion x = x1 i + x2 j + x3 k by P.

    x has the matrix M = [[i x1, v], [-conj(v), -i x1]] with v = x2 + i x3;
    P* M P is again of that form and its first row gives the result.
    """
    P = check_unitary(P)
    x1, x2, x3 = (float(c) for c in x)
    u, v = complex(0.0, x1), complex(x2, x3)
    M = P.conj().T @ np.array([[u, v], [-v.conjugate(), u.conjugate()]]) @ P
    return np.array([M[0, 0].imag, M[0, 1].real, M[0, 1].imag])


def hopf_section(x):
    """Deterministic right inverse of the Hopf map, rowwise on the last axis.

    x of shape (3,) or (m, 3) gives (u, v) of shape () or (m,) with
    u = sqrt((r + x1)/2) and v = (x3 - i x2)/sqrt(2 (r + x1)), r = |x|.
    For x1 < 0, r + x1 cancels; it equals (x2^2 + x3^2)/(r - x1), which
    does not.  Within 1e-9 of the negative i-axis in direction, and at
    r = 0, the lift is (0, sqrt(r)).  hopf_complex(*hopf_section(x)) = x.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = np.moveaxis(x, -1, 0)
    r = np.linalg.norm(x, axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        n = x / r[..., None]
        off = np.linalg.norm(n - [-1.0, 0.0, 0.0], axis=-1)
        axis = (r == 0.0) | (off < 1e-9)
        t = np.where(x1 < 0.0, (x2 * x2 + x3 * x3) / (r - x1), r + x1)
        u = np.sqrt(t / 2.0)
        v = (x3 - 1j * x2) / np.sqrt(2.0 * t)
    return np.where(axis, 0.0, u), np.where(axis, np.sqrt(r), v)
