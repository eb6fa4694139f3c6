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

from .bending import rodrigues
from .errors import (EmptyPolytope, Infeasible, InputError, TriangleViolation,
                     ZeroDiagonal)
from .polygon import (Polygon, integer_lengths, is_feasible_lengths, is_zero,
                      unit_scaled)
from .polytope import _TRIANGLE_TERMS, _in_hypersimplex, _interval_pair

_GRID = 720720
# A, B and C are terms[p] + terms[q] - terms[r] of (d_i, d_{i+1}, alpha_i)
_P, _Q, _R = ([t[k] for t in _TRIANGLE_TERMS] for k in (1, 2, 3))


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
        if sum(alpha) == 0:
            raise InputError("the side lengths sum to 0")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "delta", delta)

    @property
    def m(self) -> int:
        return len(self.alpha)

    def full_diagonals(self) -> tuple:
        """d_0 = 0, d_1 = alpha_1, ..., d_{m-1} = alpha_m, d_m = 0."""
        return (0.0, self.alpha[0], *self.delta, self.alpha[-1], 0.0)


def _check_triangles(lds):
    """(n, error): the first violated triangle inequality of a stack of
    LDPoints of one m, by member n, step, then A/B/C, else (len(lds), None)."""
    terms = np.array([(d[:-1], d[1:], ld.alpha) for ld in lds
                      for d in [ld.full_diagonals()]]).swapaxes(0, 1)
    with np.errstate(all="ignore"):
        # a + b - c rounds as 1e-12 (a + b + c), scaled term by term: no inf
        tol = sum(1e-12 * abs(terms))
        slack = terms[_P] + terms[_Q] - terms[_R]
    bad = ~(slack >= -tol).transpose(1, 2, 0)  # NaN fails too
    if not bad.any():
        return len(lds), None
    n, i, j = np.unravel_index(bad.argmax(), bad.shape)
    return int(n), TriangleViolation(int(i), _TRIANGLE_TERMS[j][0],
                                     float(slack[j, n, i]))


def reconstruct(ld: LDPoint, k: int = 3) -> Polygon:
    """Place vertices in the plane matching the given lengths and diagonals.

    Vertex i+1 sits on the circle of radius d_{i+1} about the origin and
    the circle of radius alpha_{i+1} about vertex i; of the two solutions
    the one with larger second coordinate is chosen.  For k = 3 the third
    coordinate is identically zero.
    """
    if k not in (2, 3):
        raise InputError("k must be 2 or 3")
    if error := _check_triangles([ld])[1]:
        raise error
    unit, top = _place([ld])
    with np.errstate(over="ignore"):   # an edge past the float range is inf
        return Polygon(k, np.ldexp(unit[0, :, :k], top[0]))


def fiber_sample(ld: LDPoint, angles) -> Polygon:
    """Reconstruct, then bend about each free diagonal by the given angles."""
    angles = tuple(float(t) for t in angles)
    if len(angles) != ld.m - 3:
        raise InputError(f"need {ld.m - 3} bending angles, one per free "
                         f"diagonal, for m = {ld.m}, got {len(angles)}")
    if error := _check_triangles([ld])[1]:
        raise error
    edges, fallen = _bend(*_place([ld]), [angles])
    if fallen[0]:
        raise ZeroDiagonal(int(fallen[0]))
    return Polygon(3, edges[0])


@np.errstate(all="ignore")
def _place(lds):
    """``reconstruct``'s vertex loop on a stack of LDPoints of one m, each at
    its ``unit_scaled`` lengths. Returns (unit, top): the edges times 2^-top
    as an (N, m, 3) array in the xy-plane, and top, (N, 1, 1). A circle
    of radius below 1e-12 times the perimeter sum |alpha_i| is degenerate.
    A zero side alpha_{i+1} takes h = 0, so vertex i+1 stays on vertex i:
    the root of the one-ulp h^2 that d_{i+1} = d_i leaves would be 1e-8 d_i."""
    alpha, top = unit_scaled(np.array([ld.alpha for ld in lds]).T, 0)
    d = np.array([ld.full_diagonals() for ld in lds]).T[..., None]
    d = np.ldexp(d, -top[..., None])
    # rows are steps i, columns members; False where circle i degenerates
    proper = ~(d < 1e-12 * np.abs(alpha).sum(axis=0)[:, None])
    # vertex i starts at (d_i, 0): vertices 0, 1 and m stay there, and so
    # does one after a degenerate first circle, where any direction works
    verts = np.concatenate([d, np.zeros(d.shape[:2] + (2,))], axis=-1)
    # steps i = 1..m-2: t along vertex i, and h times the quarter turn
    dd = d * d
    t = (dd[1:-2] + dd[2:-1] - alpha[1:-1, :, None] ** 2) / (2.0 * d[1:-2])
    h2 = dd[2:-1] - t * t
    h2 = np.where((h2 > 0.0) & (alpha[1:-1, :, None] != 0.0), h2, 0.0)
    h_turn = np.sqrt(h2) * [-1.0, 1.0]
    for i in range(1, len(alpha) - 1):
        n = verts[i, :, :2] / d[i]
        tn, hp = t[i - 1] * n, h_turn[i - 1] * n[:, ::-1]
        cand1, cand2 = tn + hp, tn - hp
        v = np.where(cand1[:, 1:] >= cand2[:, 1:], cand1, cand2)
        np.copyto(verts[i + 1, :, :2], v, where=proper[i])
    unit = np.ascontiguousarray((verts[1:] - verts[:-1]).transpose(1, 0, 2))
    return unit, top.T[..., None]


@np.errstate(all="ignore")
def _bend(unit: np.ndarray, top: np.ndarray, angles):
    """``fiber_sample``'s bends on a stack: ``_place``'s (unit, top), angles
    (N, m-3). Returns the bent edges, scaled back by 2^top.

    A bend about d_i fixes each d_j, j >= i, so every axis is an unbent
    d_i and edge r ends as R_{m-2} ... R_{max(r,2)} e_r, a suffix product.
    A bend by 0 is skipped, its axis unchecked; one by pi about an axis in
    the plane flips across it. Also returns per member the first bent
    diagonal that is zero beside the perimeter, or 0: it stays unbent.
    """
    m, angles = unit.shape[1], np.asarray(angles, dtype=float)
    fallen = np.zeros(len(unit), dtype=int)
    if m < 4:
        return np.ldexp(unit, top), fallen
    axes = np.cumsum(unit, axis=1)[:, 1:m - 2]
    norm = np.sqrt((axes * axes).sum(axis=-1))
    per = np.sqrt((unit * unit).sum(axis=-1)).sum(axis=-1)[:, None]
    # a member that is not finite bends to NaN, which the caller refuses
    bad = (angles != 0.0) & is_zero(norm, per) & (per < math.inf)
    if bad.any():
        fallen = np.where(bad.any(axis=1), bad.argmax(axis=1) + 2, 0)
        angles = np.where(fallen[:, None] > 0, 0.0, angles)
    rot = rodrigues(np.where(angles[..., None] != 0.0, axes / norm[..., None],
                             0.0), angles)
    for j in range(m - 5, -1, -1):
        rot[:, j] = rot[:, j + 1] @ rot[:, j]
    # edges 1 and 2 both turn by the whole product
    head = np.concatenate([rot[:, :1], rot], axis=1)
    out = unit.copy()
    out[:, :m - 2] = (head @ unit[:, :m - 2, :, None])[..., 0]
    out[fallen > 0] = unit[fallen > 0]   # with their -0.0s
    return np.ldexp(out, top), fallen


def section_sigma(alpha) -> Polygon:
    """Planar polygon with the given normalized side lengths.

    The partial sums beta_i locate the unique step r where they cross 1;
    the triangle (0, 0), (t1, 0), (x, y) with sides (t1, t2, t3) =
    (beta_r, alpha_{r+1}, 2 - beta_{r+1}) carries alpha_1..alpha_r on its
    first side and alpha_{r+2}..alpha_m on its third. Each edge is its
    length times its side's unit vector (c, +-sqrt(1 - c^2)), signs +, +,
    -, whose cosine c is exact: 1, (x - t1)/t2 and -x/t3, with x = (t1^2 +
    t3^2 - t2^2)/(2 t1). A side of length 0 takes c = 1; so sigma is lined
    on a wall, where the triangle is flat.
    """
    den, ints = integer_lengths(alpha)
    m = len(ints)
    if m < 3:
        raise InputError(f"a polygon needs at least 3 lengths, got {m}")
    if not _in_hypersimplex(den, ints):
        raise Infeasible("side lengths must lie in the hypersimplex")
    # the triangle in units of 1/den, where the partial sums cross den
    beta = list(accumulate(ints, initial=0))
    r = next(i for i in range(1, m) if beta[i] <= den <= beta[i + 1])
    t1, t2, t3 = beta[r], ints[r], 2 * den - beta[r + 1]
    x = Fraction(t1 * t1 + t3 * t3 - t2 * t2, 2 * t1) if t1 else Fraction(t3)
    cosines = (1, (x - t1) / t2 if t2 else 1, -x / t3 if t3 else 1)
    # + 0.0 turns the -0.0 of a flat third side into 0.0
    units = np.array([(float(c), s * math.sqrt(1 - c * c) + 0.0)
                      for c, s in zip(cosines, (1, 1, -1))])
    side = np.repeat(units, (r, 1, m - r - 1), axis=0)
    return Polygon(2, np.array([a / den for a in ints])[:, None] * side)


def _ld_points(den, ints, rng):
    """``sample_ld``'s points for the lengths ints / den, drawn from rng one
    after another; the lengths are set up once, at the first."""
    # sums and maxima of the tails ints[j:], each computed once
    rests = list(accumulate(reversed(ints)))[::-1]
    tops = list(accumulate(reversed(ints), max))[::-1]
    # the first point turns the lengths into floats; the others reuse them
    alpha = tuple(Fraction(a, den) for a in ints)
    while True:
        d, scale, ratios = ints[0] if ints else 0, 1, []
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
            ratios.append((d, den * scale))
        ld = LDPoint(alpha, (p / q for p, q in ratios))
        alpha = ld.alpha
        yield ld


def sample_ld(alpha, rng) -> LDPoint:
    """One exact rational interior-ish point of the diagonal slice.

    Each diagonal is an integer numerator d over den * scale: den scales
    the lengths to integers and scale = _GRID**k after k draws. LDPoint
    takes the quotients d / (den * scale), correctly rounded, after every
    draw, and refuses one beyond the float range.
    """
    return next(_ld_points(*integer_lengths(alpha), rng))


def draw_sample(alpha, k: int, rng) -> tuple[LDPoint, np.ndarray]:
    """One sample's draws from rng, in order: its ``sample_ld`` point, then
    its m - 3 bending angles, uniform (k = 3) or 0 or pi (k = 2).
    ``_bend(*_place(lds), angles)`` builds a stack of them that passes
    ``_check_triangles``."""
    ld = sample_ld(alpha, rng)
    return ld, _angles(ld.m, k, rng)


def _angles(m: int, k: int, rng) -> np.ndarray:
    """``draw_sample``'s bending angles."""
    return (rng.uniform(0.0, math.tau, size=m - 3) if k == 3
            else math.pi * rng.integers(0, 2, size=m - 3))


def sample_moduli(alpha, k: int, count: int, seed: int) -> list[Polygon]:
    """Deterministic sample of polygons with the given side lengths; the
    samples of a count are the first samples of any larger count. Each
    bends about every free diagonal by a uniform angle, or by 0 or pi (k=2)."""
    if k not in (2, 3):
        raise InputError("k must be 2 or 3")
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    den, ints = integer_lengths(alpha)
    m = len(ints)
    if m < 3:
        raise InputError(f"a polygon needs at least 3 lengths, got {m}")
    if not is_feasible_lengths(ints):
        raise EmptyPolytope("no polygon has these side lengths")
    # default_rng(seed) is this generator, built without its dispatch
    rng = np.random.Generator(np.random.PCG64(seed))
    points, lds, turns = _ld_points(den, ints, rng), [], []
    try:
        for _ in range(count):
            lds.append(next(points))
            turns.append(_angles(m, k, rng))
    finally:
        # built on an error too, so that an earlier sample's error wins
        n, error = _check_triangles(lds) if lds else (0, None)
        edges = _bend(*_place(lds[:n]), turns[:n])[0] if n else []
        if error:
            raise error
    return [Polygon(k, e[:, :k]) for e in edges]
