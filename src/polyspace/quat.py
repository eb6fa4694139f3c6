"""The Hopf map in the complex chart, its section and the U_2 action.

A row (u, v) of a 2-frame in C^m is the quaternion q = u + v j, and the
Hopf map q -> conj(q) i q sends it to an edge vector in R^3.  Rows are
kept as complex pairs throughout; a unit quaternion p acts through its
2x2 matrix [[u, v], [-conj(v), conj(u)]].
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .polygon import norm

_UNITARY_TOL = 1e-9
_SOUTH = np.array([-1.0, 0.0, 0.0])


def hopf_complex(u, v) -> np.ndarray:
    """Hopf map in the complex chart: q = u + v j.

    Expanding conj(q) i q gives i [(|u|^2 - |v|^2) + 2 conj(u) v j], whose
    (i, j, k) coordinates are (|u|^2 - |v|^2, -Im(2 conj(u) v), Re(2 conj(u) v)).
    u and v are complex numbers or stacks of shape (...), giving a
    (..., 3) stack with the coordinates on the last axis.  ``conjugate``
    and ``abs`` serve both and skip numpy's per-call overhead on a single
    row.
    """
    c = 2.0 * u.conjugate() * v
    x = np.array([abs(u) ** 2 - abs(v) ** 2, -c.imag, c.real])
    return x.transpose(*range(1, x.ndim), 0)   # cheaper than np.moveaxis


def hopf_differential(u, v, a, b) -> np.ndarray:
    """Derivative of ``hopf_complex`` at (u, v) along (a, b), in closed form.

    With c = 2 conj(u) v the derivative is (2 Re(conj(u) a - conj(v) b),
    -Im dc, Re dc) with dc = 2 (conj(a) v + conj(u) b).  Rowwise like
    ``hopf_complex``: complex numbers or stacks of shape (...) of one
    entry per row, giving (..., 3).
    """
    dc = 2.0 * (a.conjugate() * v + u.conjugate() * b)
    x = np.array([2.0 * (u.conjugate() * a - v.conjugate() * b).real,
                  -dc.imag, dc.real])
    return x.transpose(*range(1, x.ndim), 0)


# perfbench/tracer.py names quat.hopf, quat.hopf_complex and
# quat.hopf_section in TRACED, and tracer.install fails on a missing name.
hopf = hopf_complex


def check_unitary(P: np.ndarray) -> np.ndarray:
    """P, a 2x2 matrix or a (..., 2, 2) stack, if every member is unitary."""
    P = np.asarray(P, dtype=complex)
    if P.shape[-2:] != (2, 2):
        raise InputError(f"expected a 2x2 matrix, got shape {P.shape}")
    defect = np.linalg.norm(P @ P.conj().swapaxes(-2, -1) - np.eye(2),
                            axis=(-2, -1))
    if not (defect <= _UNITARY_TOL).all():
        raise InputError(f"matrix is not unitary (defect {np.max(defect):.3e})")
    return P


def act_right(row, P: np.ndarray):
    """Right action (u, v) -> (u, v) P of P in U_2 on a row.

    For P the matrix of a unit quaternion p this is the quaternion product
    q p.  The action preserves |u|^2 + |v|^2.  u and v are complex numbers
    or arrays of them; P is one matrix or a stack of one per entry.
    """
    P = check_unitary(P)
    u, v = row
    return (u * P[..., 0, 0] + v * P[..., 1, 0],
            u * P[..., 0, 1] + v * P[..., 1, 1])


def conjugate_vector(P: np.ndarray, x) -> np.ndarray:
    """Conjugate the pure quaternion x = x1 i + x2 j + x3 k by P.

    x has the matrix M = [[i x1, v], [-conj(v), -i x1]] with v = x2 + i x3;
    P* M P is again of that form and its first row gives the result.  x is
    a (..., 3) stack with one matrix P or a (..., 2, 2) stack of them.
    """
    P = check_unitary(P)
    x1, x2, x3 = np.moveaxis(np.asarray(x, dtype=float), -1, 0)
    zero = np.zeros_like(x1)
    M = np.stack([zero, x1, x2, x3, -x2, x3, zero, -x1], axis=-1)
    M = P.conj().swapaxes(-2, -1) @ M.view(complex).reshape(x1.shape + (2, 2)) @ P
    return np.stack([M[..., 0, 0].imag, M[..., 0, 1].real, M[..., 0, 1].imag],
                    axis=-1)


def hopf_section(x):
    """Deterministic right inverse of the Hopf map, rowwise on the last axis.

    x of shape (3,) or (m, 3) gives complex (u, v) of shape () or (m,):
    u = sqrt((r + x1)/2) and v = (x3 - i x2)/sqrt(2 (r + x1)), r = |x|.
    For x1 < 0, r + x1 cancels; it equals (x2^2 + x3^2)/(r - x1), which
    does not.  Within 1e-9 of the negative i-axis in direction, and at
    r = 0, the lift is (0, sqrt(r)).  hopf_complex(*hopf_section(x)) = x.
    """
    x = np.asarray(x, dtype=float)
    x1, x2, x3 = x[..., 0], x[..., 1], x[..., 2]
    r = norm(x, -1)
    with np.errstate(divide="ignore", invalid="ignore"):
        axis = (r == 0.0) | (norm(x / r[..., None] - _SOUTH, -1) < 1e-9)
        t = np.where(x1 < 0.0, (x2 * x2 + x3 * x3) / (r - x1), r + x1)
        u = np.sqrt(t / 2.0)
        v = (x3 - 1j * x2) / np.sqrt(2.0 * t)
    return np.where(axis, 0j, u), np.where(axis, np.sqrt(r), v)
