"""Orthonormal 2-frames in C^m and their correspondence with polygons.

A frame is the row pair (a, b) of ``quat``: row r maps to edge r through
the Hopf map.  The torus of row phases is the fiber, and the truncated Gram
matrices recover the length/diagonal coordinates through their eigenvalues.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import quat
from .errors import InputError
from .polygon import Polygon, is_zero, norm

_HERMITIAN_TOL = 1e-10


class Frame(NamedTuple):
    """Orthonormal vectors a, b in C^m, or a (..., m) stack of such pairs."""

    a: np.ndarray
    b: np.ndarray


def frame_orthonormalize(a, b) -> Frame:
    """Gram-Schmidt onto the Stiefel manifold, preserving the span of (a, b)."""
    a, b = (np.asarray(w, dtype=complex) for w in (a, b))
    if a.ndim != 1 or a.shape != b.shape:
        raise InputError("a and b must be complex vectors of equal length")
    with np.errstate(over="ignore"):
        na, nb = (float(np.linalg.norm(w)) for w in (a, b))
    for name, w, norm in (("first", a, na), ("second", b, nb)):
        if not math.isfinite(norm):
            raise InputError(f"{name} column " + (
                "has a norm beyond the float range" if np.isfinite(w).all()
                else "has an entry that is not finite"))
    if is_zero(na, na + nb):
        raise InputError("first column is (numerically) zero")
    a = a / na
    b_perp = b - np.vdot(a, b) * a
    nb_perp = np.linalg.norm(b_perp)
    if is_zero(nb_perp, nb):
        raise InputError("columns are (numerically) linearly dependent")
    return Frame(a, b_perp / nb_perp)


def frame_to_polygon(f: Frame) -> Polygon:
    """Rowwise Hopf map; closure comes from orthogonality of the columns."""
    return Polygon(3, quat.hopf_complex(*f))


def torus_act(f: Frame, theta) -> Frame:
    """Multiply row r by the phase e^{i theta_r}; the polygon is unchanged."""
    phase = np.exp(1j * np.asarray(theta, dtype=float))
    if phase.shape != f.a.shape:
        raise InputError("need one angle per row")
    return Frame(phase * f.a, phase * f.b)


def u2_act(f: Frame, P) -> Frame:
    """Right action (a, b) -> (a, b) P; conjugates every edge of the polygon."""
    return Frame(*quat.act_right(f, P))


def moment_mu(f: Frame) -> np.ndarray:
    """Row norms |a_r|^2 + |b_r|^2; the side lengths of the polygon."""
    return np.abs(f.a) ** 2 + np.abs(f.b) ** 2


def _gram_stack(f: Frame) -> np.ndarray:
    """The (..., m) truncated Gram matrices; entry i - 1 sums rows 1..i."""
    ab = np.cumsum(f.a.conj() * f.b, axis=-1)
    h = np.empty(f.a.shape + (2, 2), dtype=complex)
    h[..., 0, 0] = np.cumsum(abs(f.a) ** 2, axis=-1)
    h[..., 1, 1] = np.cumsum(abs(f.b) ** 2, axis=-1)
    h[..., 0, 1] = ab
    h[..., 1, 0] = ab.conj()
    return h


def truncated_gram2(f: Frame, i: int) -> np.ndarray:
    """Sum over the first i rows of the rank-1 matrices row* row."""
    if not 1 <= i <= len(f.a):
        raise InputError(f"truncation index must be in 1..{len(f.a)}")
    return _gram_stack(f)[i - 1]


def eig2(h):
    """Eigenvalues (lo, hi) of a hermitian 2x2 matrix or stack (..., 2, 2)."""
    h = np.asarray(h, dtype=complex)
    if h.shape[-2:] != (2, 2):
        raise InputError(f"expected a 2x2 matrix, got shape {h.shape}")
    defect = np.linalg.norm(h - h.conj().swapaxes(-1, -2), axis=(-2, -1))
    if not np.all(defect <= _HERMITIAN_TOL):
        raise InputError("matrix is not hermitian within tolerance")
    half_tr = (h[..., 0, 0].real + h[..., 1, 1].real) / 2.0
    half_gap = (h[..., 0, 0].real - h[..., 1, 1].real) / 2.0
    radius = np.hypot(half_gap, abs(h[..., 0, 1]))
    return half_tr - radius, half_tr + radius


class GCPattern(NamedTuple):
    """Eigenvalue data of all truncated matrices: per row their sum and gap."""

    sums: np.ndarray
    diffs: np.ndarray


def interlacing_slack(pattern: GCPattern):
    """Least slack of lo_i <= lo_{i+1} <= hi_i <= hi_{i+1}, per member."""
    lo = (pattern.sums - pattern.diffs) / 2.0
    hi = (pattern.sums + pattern.diffs) / 2.0
    slacks = np.concatenate([np.diff(lo), hi[..., :-1] - lo[..., 1:],
                             np.diff(hi)], axis=-1)
    return slacks.min(axis=-1)


def gc_pattern(f: Frame) -> GCPattern:
    lo, hi = eig2(_gram_stack(f))
    return GCPattern(lo + hi, hi - lo)


def frame_from_edges(edges) -> Frame:
    """Rowwise deterministic Hopf lift of closed perimeter-2 polygons: the
    edges of one, (m, 3), or of a (..., m, 3) stack. The first member off
    perimeter 2, else the first open one, is refused."""
    edges = np.asarray(edges, dtype=float)
    per = norm(edges, axis=-1).sum(axis=-1)
    near = abs(per - 2.0) <= 1e-9   # NaN is not near
    if not near.all():
        raise InputError(f"perimeter is {float(per.flat[np.argmin(near)])}, "
                         "expected 2")
    if not is_zero(norm(edges.sum(axis=-2), axis=-1), per).all():
        raise InputError("edge vectors do not sum to zero")
    return Frame(*quat.hopf_section(edges))


def frame_from_polygon(p: Polygon) -> Frame:
    """``frame_from_edges`` of one polygon, embedded in R^3."""
    return frame_from_edges((p if p.dim == 3 else p.embedded()).edges)


def random_frame(m: int, rng) -> Frame:
    """Haar-ish random element of the Stiefel manifold."""
    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    b = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    return frame_orthonormalize(a, b)
