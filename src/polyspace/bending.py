"""Bending flows on polygon edges and the sphere-product symplectic data.

Bending rotates a consecutive block of edges about the chord closing it.
The same motion arises as the Hamiltonian flow of the chord length for
the product symplectic form on spheres, which we verify by integrating
that flow numerically.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError, ZeroDiagonal
from .polygon import Polygon, is_zero, norm, perimeter, unit_scaled

_CROSS_SIGNS = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
# the least S whose one-turn RK4 error tau (tau/S)^4 / 120 is <= 1e-10: 951
STEPS_PER_TURN = math.ceil(math.tau * (math.tau / (120 * 1e-10)) ** 0.25)


def cross_matrix(n) -> np.ndarray:
    """The matrix K with K @ v = n x v, rowwise on the last axis of n."""
    n = np.asarray(n, dtype=float)
    K = np.zeros(n.shape[:-1] + (9,))
    # rows (0, -z, y), (z, 0, -x), (-y, x, 0)
    K[..., [1, 2, 3, 5, 6, 7]] = n[..., [2, 1, 2, 0, 1, 0]] * _CROSS_SIGNS
    return K.reshape(n.shape[:-1] + (3, 3))


def rodrigues(axis, theta) -> np.ndarray:
    """Rotation matrices about unit vectors ``axis`` by ``theta``, rowwise."""
    K = cross_matrix(axis)
    theta = np.asarray(theta, dtype=float)[..., None, None]
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def bend_range(poly: Polygon, block: tuple[int, int],
               theta: float) -> Polygon:
    """Rotate edges p..q of ``block = (p, q)`` (1-based, inclusive) about
    their sum, right-hand rule."""
    p, q = block
    if not 1 <= p <= q <= poly.m or (p, q) == (1, poly.m):
        raise InputError(f"block {p},{q} must be a proper subset of the "
                         f"edges: need 1 <= p <= q <= {poly.m}, not all")
    lo, hi = p - 1, q
    # the axis and perimeter of the unit_scaled edges: neither sum overflows
    with np.errstate(over="ignore", invalid="ignore"):
        unit, top = unit_scaled(poly.edges)
        axis = unit[lo:hi].sum(axis=0)
        size, per = norm(axis), perimeter(Polygon(poly.dim, unit))
        diagonal = np.ldexp(size, top)
    if not np.isfinite(diagonal):
        raise InputError(f"diagonal {(p, q)} is beyond the float range")
    if is_zero(size, per):
        raise ZeroDiagonal((p, q))
    rot = rodrigues(axis / size, theta)
    edges = poly.edges.copy()
    edges[lo:hi] = edges[lo:hi] @ rot.T
    return Polygon(3, edges)


def bend(poly: Polygon, i: int, theta: float) -> Polygon:
    """Rotate the first i edges about the i-th diagonal."""
    try:
        return bend_range(poly, (1, i), theta)
    except ZeroDiagonal:
        raise ZeroDiagonal(i) from None


def commute_defect(poly: Polygon, r1: tuple[int, int], r2: tuple[int, int],
                   t1: float, t2: float) -> float:
    """Max edge deviation between the two orders of applying the bends of
    blocks r1 and r2."""
    first = bend_range(bend_range(poly, r1, t1), r2, t2)
    second = bend_range(bend_range(poly, r2, t2), r1, t1)
    return float(np.abs(first.edges - second.edges).max())


def _dot(u, v) -> np.ndarray:
    return np.einsum("...k,...k->...", u, v)


def _check_tangent(x: np.ndarray, *vecs) -> np.ndarray:
    """The radii |x| of a row or a stack of rows, if every vector v is
    tangent at x: |<x, v>| is zero beside r |v|, and a NaN is not."""
    r = np.linalg.norm(x, axis=-1)
    if (r == 0.0).any():
        raise InputError("base point is the origin")
    for v in vecs:
        if not is_zero(abs(_dot(x, v)), r * np.linalg.norm(v, axis=-1)).all():
            raise InputError("vector is not tangent to the sphere at x")
    return r


def km_form(x, u, v) -> np.ndarray:
    """Symplectic pairing <x/r^2, u x v> on the radius-r sphere, rowwise."""
    x, u, v = (np.asarray(w, dtype=float) for w in (x, u, v))
    r = _check_tangent(x, u, v)
    return _dot(x, np.cross(u, v)) / (r * r)


def km_complex(x, v) -> np.ndarray:
    """Rotation by a quarter turn in the tangent plane: v -> (x x v)/r."""
    x, v = np.asarray(x, dtype=float), np.asarray(v, dtype=float)
    r = _check_tangent(x, v)
    return np.cross(x, v) / r[..., None]


def diagonal_hamiltonian(i: int):
    """H(w) = |x_1 + ... + x_i| as a plain-float callable.

    Accepts an (m, 3) array or a nested sequence of rows.
    """

    def H(points) -> float:
        s0 = s1 = s2 = 0.0
        for r in range(i):
            row = points[r]
            s0 += row[0]
            s1 += row[1]
            s2 += row[2]
        return math.sqrt(s0 * s0 + s1 * s1 + s2 * s2)

    return H


def diagonal_field(i):
    """Hamiltonian field of |x_1 + ... + x_i| in closed form.

    The gradient of |d_i| is n = d_i/|d_i| on rows 1..i and zero on the
    rest, so the field -x_r x n = n x x_r rotates rows 1..i about n; as
    row vectors, n x x_r = x_r @ K.T with K = cross_matrix(n). ``i`` is
    one head length or one per member of a (B, m, 3) batch of points.
    """
    heads = np.asarray(i)
    masks = {}   # rows 1..i per member as 1.0, the rest 0.0, by m
    # Levi-Civita table: n @ levi is cross_matrix(n).T, flattened.  Its
    # entries are 0 and +-1, so d @ levi / |d| is exactly n @ levi.
    levi = np.stack([cross_matrix(e).T.ravel() for e in np.eye(3)])

    def X(points: np.ndarray) -> np.ndarray:
        m = points.shape[-2]
        if m not in masks:
            masks[m] = (np.arange(m) < heads[..., None])[..., None] * 1.0
        head = points * masks[m]
        d = np.einsum("...ij->...j", head)   # cheaper than sum(axis=-2)
        norm2 = np.einsum("...k,...k->...", d, d)
        if not norm2.all():
            b = np.flatnonzero(norm2 == 0.0)[0]
            raise InputError(f"member {b}: diagonal vanished; no axis")
        KT = np.dot(d, levi).reshape(d.shape[:-1] + (3, 3))
        return head @ (KT / np.sqrt(norm2)[..., None, None])

    return X


def hamiltonian_flow(points, field, t) -> np.ndarray:
    """Fixed-step RK4 for a Hamiltonian field such as ``diagonal_field(i)``.

    ``points`` is one (m, 3) point of a product of spheres or a (B, m, 3)
    batch; the radii are its row norms, and every step is scaled back to
    them. ``t`` is one value or one per member. Every member takes the
    same S = ceil(STEPS_PER_TURN max_b |t_b| / 2 pi) steps (at least 1) of
    t_b/S; an empty batch takes none.

    Along an exact trajectory ``diagonal_field(i)`` is a unit-speed rotation
    about the fixed d_i.  One RK4 step of length h misses exp(hK) by a phase
    error of h^5/120 per unit radius; the O(h^6) amplitude error is removed
    by scaling back to the radii.  A member flowed for t_b therefore drifts
    by about |t_b| h^4 / 120 per unit radius, h = |t_b|/S <= 2 pi /
    STEPS_PER_TURN: at most 1e-10 for one turn.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim < 2 or points.shape[-1] != 3 or points.shape[-2] == 0:
        raise InputError(f"need (..., m >= 1, 3) points, got {points.shape}")
    radii = np.linalg.norm(points, axis=-1)
    t = np.broadcast_to(np.asarray(t, dtype=float), radii.shape[:-1])
    if not np.isfinite(t).all():
        raise InputError("flow time must be finite")
    if t.size == 0:
        return points
    steps = max(1, math.ceil(STEPS_PER_TURN * abs(t).max() / math.tau))
    h = (t / steps)[..., None, None]
    half, sixth = 0.5 * h, h / 6.0
    # a member that blows up is reported as an InputError below, not a
    # RuntimeWarning on the way there
    with np.errstate(all="ignore"):
        for _ in range(steps):
            k1 = field(points)
            k2 = field(points + half * k1)
            k3 = field(points + half * k2)
            k4 = field(points + h * k3)
            points = points + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            norms = np.sqrt(np.einsum("...ij,...ij->...i", points, points))
            bad = ~np.isfinite(norms) | is_zero(norms, radii)
            if bad.any():
                rows = norms.reshape(-1, norms.shape[-1])
                b = np.flatnonzero(bad.reshape(rows.shape).any(axis=-1))[0]
                raise InputError(f"member {b}: " + (
                    "a factor point collapsed to the origin"
                    if np.isfinite(rows[b]).all()
                    else "flow left the domain of definition"))
            points = points * (radii / norms)[..., None]
    return points
