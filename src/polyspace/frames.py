"""Orthonormal 2-frames in C^m and their correspondence with polygons.

Rows of a frame map to polygon edges through the Hopf map; the torus of
row phases is the fiber, and the truncated Gram matrices recover the
length/diagonal coordinates through their eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import quat
from .errors import DependentColumns, NotClosed, NotHermitian, NotNormalized
from .polygon import Polygon, closure_defect, perimeter

_FRAME_TOL = 1e-10


@dataclass(frozen=True)
class Frame:
    """A pair (a, b) of orthonormal vectors in C^m."""

    a: np.ndarray = field(repr=False)
    b: np.ndarray = field(repr=False)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=complex)
        b = np.asarray(self.b, dtype=complex)
        if a.ndim != 1 or a.shape != b.shape:
            raise ValueError("a and b must be complex vectors of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    def validity_defect(self) -> float:
        return max(
            abs(np.vdot(self.a, self.a).real - 1.0),
            abs(np.vdot(self.b, self.b).real - 1.0),
            abs(np.vdot(self.a, self.b)),
        )

    def is_valid(self, tol: float = _FRAME_TOL) -> bool:
        return self.validity_defect() <= tol


def frame_orthonormalize(a, b) -> Frame:
    """Gram-Schmidt onto the Stiefel manifold, preserving the span of (a, b)."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    na = np.linalg.norm(a)
    if not na >= 1e-12:
        raise DependentColumns("first column is (numerically) zero")
    a = a / na
    b = b - np.vdot(a, b) * a
    nb = np.linalg.norm(b)
    if not nb >= 1e-12:
        raise DependentColumns("columns are (numerically) linearly dependent")
    return Frame(a, b / nb)


def frame_to_polygon(f: Frame) -> Polygon:
    """Rowwise Hopf map; closure comes from orthogonality of the columns."""
    return Polygon(3, quat.hopf_complex(f.a, f.b))


def torus_act(f: Frame, theta) -> Frame:
    """Multiply row r by the phase e^{i theta_r}; the polygon is unchanged."""
    phase = np.exp(1j * np.asarray(theta, dtype=float))
    if phase.shape != f.a.shape:
        raise ValueError("need one angle per row")
    return Frame(phase * f.a, phase * f.b)


def u2_act(f: Frame, P) -> Frame:
    """Right action (a, b) -> (a, b) P; conjugates every edge of the polygon."""
    return Frame(*quat.act_right((f.a, f.b), P))


def conjugate_frame(f: Frame) -> Frame:
    """Entrywise conjugation; reflects the polygon across the i-k plane."""
    return Frame(f.a.conj(), f.b.conj())


def gram(f: Frame) -> np.ndarray:
    """The m x m matrix (a, b)(a, b)*, a rank-2 hermitian projector."""
    mat = np.column_stack([f.a, f.b])
    return mat @ mat.conj().T


def u2_moment(f: Frame) -> np.ndarray:
    """(a, b)*(a, b) - I; vanishes exactly on valid frames."""
    mat = np.column_stack([f.a, f.b])
    return mat.conj().T @ mat - np.eye(2)


def moment_mu(f: Frame) -> np.ndarray:
    """Row norms |a_r|^2 + |b_r|^2; the side lengths of the polygon."""
    return np.abs(f.a) ** 2 + np.abs(f.b) ** 2


def _gram_stack(f: Frame) -> np.ndarray:
    """The m truncated Gram matrices; entry i - 1 sums rows 1..i."""
    ab = np.cumsum(f.a.conj() * f.b)
    h = np.empty((f.m, 2, 2), dtype=complex)
    h[:, 0, 0] = np.cumsum(abs(f.a) ** 2)
    h[:, 1, 1] = np.cumsum(abs(f.b) ** 2)
    h[:, 0, 1] = ab
    h[:, 1, 0] = ab.conj()
    return h


def truncated_gram2(f: Frame, i: int) -> np.ndarray:
    """Sum over the first i rows of the rank-1 matrices row* row."""
    if not 1 <= i <= f.m:
        raise ValueError(f"truncation index must be in 1..{f.m}")
    return _gram_stack(f)[i - 1]


def eig2(h, tol: float = 1e-10):
    """Eigenvalues (lo, hi) of a hermitian 2x2 matrix or stack (..., 2, 2)."""
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (2, 2):
        raise NotHermitian(f"expected a 2x2 matrix, got shape {h.shape}")
    defect = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))
    if not np.all(defect <= tol):
        raise NotHermitian("matrix is not hermitian within tolerance")
    half_tr = (h[..., 0, 0].real + h[..., 1, 1].real) / 2.0
    half_gap = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0
    radius = np.hypot(half_gap, abs(h[..., 0, 1]))
    return half_tr - radius, half_tr + radius


@dataclass(frozen=True)
class GCPattern:
    """Eigenvalue data of all truncated matrices: per row their sum and gap."""

    sums: np.ndarray
    diffs: np.ndarray

    def interlacing_slack(self) -> float:
        """Smallest slack of lo_i <= lo_{i+1} <= hi_i <= hi_{i+1}."""
        lo = (self.sums - self.diffs) / 2.0
        hi = (self.sums + self.diffs) / 2.0
        slacks = np.concatenate([lo[1:] - lo[:-1], hi[:-1] - lo[1:],
                                 hi[1:] - hi[:-1]])
        return float(slacks.min())


def gc_pattern(f: Frame) -> GCPattern:
    lo, hi = eig2(_gram_stack(f))
    return GCPattern(lo + hi, hi - lo)


def frame_from_polygon(p: Polygon) -> Frame:
    """Rowwise deterministic Hopf lift of a closed perimeter-2 polygon."""
    if p.dim != 3:
        p = p.embedded(3)
    per = perimeter(p)
    if not abs(per - 2.0) <= 1e-9:
        raise NotNormalized(f"perimeter is {per}, expected 2")
    if not closure_defect(p) <= 1e-9 * per:
        raise NotClosed("edge vectors do not sum to zero")
    return Frame(*quat.hopf_section(p.edges))


def random_frame(m: int, rng) -> Frame:
    """Haar-ish random element of the Stiefel manifold."""
    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return frame_orthonormalize(a, b)
