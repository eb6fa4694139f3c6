"""Build polygons from length/diagonal data and from hypersimplex points.

The vertex-by-vertex construction places each new vertex at the
intersection of two circles; bending angles then sweep out every other
polygon with the same data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate

import numpy as np

from .bending import bend
from .errors import (EmptyPolytope, Infeasible, InputError, TriangleViolation,
                     ZeroDiagonal)
from .polygon import (Polygon, exact_lengths, integer_scaled,
                      is_feasible_lengths)
from .polytope import _interval_pair, in_hypersimplex, triangle_slacks

_GRID = 720720


@dataclass(frozen=True)
class LDPoint:
    """Side lengths plus the free diagonals d_2..d_{m-2}, as floats.

    This is where exact lengths and diagonals become floats; a value
    beyond the float range is refused here.
    """

    alpha: tuple
    delta: tuple

    def __post_init__(self):
        try:
            alpha = tuple(float(a) for a in self.alpha)
            delta = tuple(float(x) for x in self.delta)
        except OverflowError as exc:
            raise InputError("a length or diagonal is beyond the float "
                             "range") from exc
        m = len(alpha)
        if m < 3:
            raise InputError(f"a polygon needs at least 3 lengths, got {m}")
        if len(delta) != m - 3:
            raise InputError(f"need {m - 3} free diagonals for m = {m}, "
                             f"got {len(delta)}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "delta", delta)

    @property
    def m(self) -> int:
        return len(self.alpha)

    def full_diagonals(self) -> tuple:
        """d_0 = 0, d_1 = alpha_1, ..., d_{m-1} = alpha_m, d_m = 0."""
        return (0.0, self.alpha[0], *self.delta, self.alpha[-1], 0.0)


def _tiny(alpha) -> float:
    """Lengths below this are zero: 1e-12, scaled down with a perimeter
    sum |alpha_i| below 1."""
    return 1e-12 * min(1, sum(map(abs, alpha)))


def _check_triangles(ld: LDPoint) -> None:
    """Raise on the first violated inequality, in step then A/B/C order."""
    d = ld.full_diagonals()
    # a + b - c rounds in proportion to the terms d_i, d_{i+1}, alpha_i of
    # its step: max(1e-9, 1e-12 (a + b + c)), scaled term by term, no inf
    tol = [max(1e-9, 1e-12 * abs(d[i]) + 1e-12 * abs(d[i + 1])
               + 1e-12 * abs(a)) for i, a in enumerate(ld.alpha)]
    for i, name, slack in triangle_slacks(ld.alpha, d[1:]):
        if not slack >= -tol[i]:  # NaN fails too
            raise TriangleViolation(i, name, slack)


# lengths near the float range overflow in the float geometry: the result
# is then not finite, and the finiteness checks of the caller refuse it
@np.errstate(over="ignore", invalid="ignore")
def reconstruct(ld: LDPoint, k: int = 3) -> Polygon:
    """Place vertices in the plane matching the given lengths and diagonals.

    Vertex i+1 sits on the circle of radius d_{i+1} about the origin and
    the circle of radius alpha_{i+1} about vertex i; of the two solutions
    the one with larger second coordinate is chosen.  For k = 3 the third
    coordinate is identically zero.
    """
    if k not in (2, 3):
        raise InputError("k must be 2 or 3")
    _check_triangles(ld)
    tiny = _tiny(ld.alpha)
    d = ld.full_diagonals()
    verts = [np.zeros(2), np.array([ld.alpha[0], 0.0])]
    for i in range(1, ld.m - 1):
        vi = verts[i]
        di, dj, a = d[i], d[i + 1], ld.alpha[i]
        if di < tiny:
            # the first circle degenerates: any direction works
            verts.append(np.array([dj, 0.0]))
            continue
        t = (di * di + dj * dj - a * a) / (2.0 * di)
        h2 = dj * dj - t * t
        h = math.sqrt(h2) if h2 > 0.0 else 0.0
        n = vi / di
        perp = np.array([-n[1], n[0]])
        cand1 = t * n + h * perp
        cand2 = t * n - h * perp
        verts.append(cand1 if cand1[1] >= cand2[1] else cand2)
    verts.append(np.zeros(2))
    edges = np.diff(np.array(verts), axis=0)
    poly = Polygon(2, edges)
    return poly.embedded() if k == 3 else poly


def fiber_sample(ld: LDPoint, angles) -> Polygon:
    """Reconstruct, then bend about each free diagonal by the given angles."""
    angles = tuple(float(t) for t in angles)
    if len(angles) != ld.m - 3:
        raise InputError(f"need {ld.m - 3} bending angles, one per free "
                         f"diagonal, for m = {ld.m}, got {len(angles)}")
    poly = reconstruct(ld, 3)
    for offset, theta in enumerate(angles):
        if theta != 0.0:
            poly = bend(poly, offset + 2, theta)
    return poly


def section_sigma(alpha) -> Polygon:
    """Planar polygon with the given normalized side lengths.

    The partial sums beta_i locate the unique step r where they cross 1;
    the triangle with sides (beta_r, alpha_{r+1}, 2 - beta_{r+1}) is then
    subdivided so its first side carries alpha_1..alpha_r and its third
    side alpha_{r+2}..alpha_m.
    """
    alpha = exact_lengths(alpha)
    m = len(alpha)
    if m < 3:
        raise InputError(f"a polygon needs at least 3 lengths, got {m}")
    if not in_hypersimplex(alpha):
        raise Infeasible("side lengths must lie in the hypersimplex")
    beta = [Fraction(0)]
    for a in alpha:
        beta.append(beta[-1] + a)
    r = next(i for i in range(1, m) if beta[i] <= 1 <= beta[i + 1])
    t1, t2, t3 = beta[r], alpha[r], 2 - beta[r + 1]
    v0 = np.zeros(2)
    v1 = np.array([float(t1), 0.0])
    f1, f2, f3 = float(t1), float(t2), float(t3)
    if f1 < 1e-15:
        # degenerate triangle flattened onto the axis
        v2 = np.array([f2, 0.0])
    else:
        x = (f1 * f1 + f3 * f3 - f2 * f2) / (2.0 * f1)
        y2 = f3 * f3 - x * x
        v2 = np.array([x, math.sqrt(y2) if y2 > 0.0 else 0.0])
    edges = []

    def subdivide(start, end, total, parts):
        if float(total) < 1e-15:
            direction = np.zeros(2)
        else:
            direction = (end - start) / float(total)
        for part in parts:
            edges.append(direction * float(part))

    subdivide(v0, v1, t1, alpha[:r])
    edges.append(v2 - v1)
    subdivide(v2, v0, t3, alpha[r + 1:])
    # exact edge norms: rescale each nonzero edge to its target length
    arr = np.array(edges)
    for i, a in enumerate(alpha):
        norm = np.linalg.norm(arr[i])
        if norm > 0.0:
            arr[i] *= float(a) / norm
    return Polygon(2, arr)


def sample_ld(alpha, rng) -> LDPoint:
    """One exact rational interior-ish point of the diagonal slice.

    Each diagonal is an integer numerator d over den * scale: den scales
    the lengths to integers and scale = _GRID**k after k draws.
    """
    alpha = exact_lengths(alpha)
    den, ints = integer_scaled(alpha)
    # sums and maxima of the tails ints[j:], each computed once
    rests = list(accumulate(reversed(ints)))[::-1]
    tops = list(accumulate(reversed(ints), max))[::-1]
    d, scale, delta = ints[0] if ints else 0, 1, []
    for i in range(1, len(ints) - 2):
        # d_{i+1} closes a triangle with d_i and alpha_{i+1}, and a polygon
        # with the tail alpha_{i+2..m}: 2 max(d, tail) <= d + sum(tail)
        rest = rests[i + 1] * scale
        tri_lo, tri_hi = _interval_pair(d, ints[i] * scale)
        lo = max(tri_lo, 2 * tops[i + 1] * scale - rest)
        hi = min(tri_hi, rest)
        if lo > hi:
            raise EmptyPolytope("no diagonal data fits these lengths")
        d = lo
        if lo < hi:
            # lo + (hi - lo) * k / _GRID on the grid one level finer
            d = lo * _GRID + (hi - lo) * int(rng.integers(0, _GRID + 1))
            scale *= _GRID
        delta.append(Fraction(d, den * scale))
    return LDPoint(alpha, tuple(delta))


def sample_moduli(alpha, k: int, count: int, seed: int) -> list[Polygon]:
    """Deterministic sample of polygons with the given side lengths."""
    if k not in (2, 3):
        raise InputError("k must be 2 or 3")
    alpha = exact_lengths(alpha)
    m = len(alpha)
    if m < 3:
        raise InputError(f"a polygon needs at least 3 lengths, got {m}")
    if not is_feasible_lengths(alpha):
        raise EmptyPolytope("no polygon has these side lengths")
    rng = np.random.default_rng(seed)
    tiny = _tiny(alpha)
    out = []
    for _ in range(count):
        ld = sample_ld(alpha, rng)
        if k == 3:
            angles = rng.uniform(0.0, 2.0 * math.pi, size=max(m - 3, 0))
            try:
                poly = fiber_sample(ld, tuple(angles))
            except ZeroDiagonal:
                poly = reconstruct(ld, 3)
        else:
            poly = reconstruct(ld, 2)
            signs = rng.integers(0, 2, size=max(m - 3, 0))
            poly = _planar_flips(poly, signs, tiny)
        out.append(poly)
    return out


def _planar_flips(poly: Polygon, signs, tiny: float) -> Polygon:
    """Reflect the leading block across each chosen diagonal, in the plane;
    a diagonal shorter than ``tiny`` is no axis."""
    edges = poly.edges.copy()
    for offset, s in enumerate(signs):
        if not s:
            continue
        i = offset + 2
        axis = edges[:i].sum(axis=0)
        norm = np.linalg.norm(axis)
        if norm < tiny:
            continue
        n = axis / norm
        refl = 2.0 * np.outer(n, n) - np.eye(2)
        edges[:i] = edges[:i] @ refl.T
    return Polygon(2, edges)
