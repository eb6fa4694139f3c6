"""Exact rational polytopes for length and diagonal data.

Everything here is exact (fractions.Fraction, and integers for vertex
enumeration): side and facet counts jump at walls, and floats cannot
certify which side of a wall a given length vector sits on.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import Degenerate, EmptyPolytope, NonGeneric
from .polygon import (MAX_BRUTE_FORCE_SIDES, as_fraction, exact_lengths,
                      is_feasible_lengths, is_generic_lengths, wall_distance)

__all__ = [
    "Halfspace", "RationalPolytope", "GCReport", "ClassificationReport",
    "QuadReport", "hypersimplex", "in_hypersimplex", "gc_membership",
    "diag_slice", "count_sides", "classify_pentagon", "quad_interval",
    "dh_interval_equality", "even_step_polytope", "wall_distance",
    "PENTAGON_TABLE",
]

ZERO = Fraction(0)


@dataclass(frozen=True)
class Halfspace:
    """The inequality normal . x <= offset with rational coefficients."""

    normal: tuple[Fraction, ...]
    offset: Fraction

    def __post_init__(self):
        normal = tuple(as_fraction(c) for c in self.normal)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", as_fraction(self.offset))

    def slack(self, point) -> Fraction:
        return self.offset - sum(n * x for n, x in zip(self.normal, point))

    def holds(self, point) -> bool:
        return self.slack(point) >= 0


def _integer_row(h: Halfspace) -> tuple[tuple[int, ...], int]:
    """(normal, offset) of ``h`` scaled by their common denominator."""
    den = math.lcm(*(c.denominator for c in h.normal + (h.offset,)))
    return (tuple(c.numerator * (den // c.denominator) for c in h.normal),
            h.offset.numerator * (den // h.offset.denominator))


def _det(rows) -> int:
    """Determinant of a square integer matrix of size at most 3."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return rows[0][0] if rows else 1


@dataclass
class RationalPolytope:
    """An intersection of rational halfspaces with exact vertex data.

    For dim <= 3 the vertices come from one incidence table, built once:
    each dim-subset of the rows, scaled to integers, is solved by
    Cramer's rule, and a solution that satisfies every row becomes a
    vertex, mapped to the indices of the rows tight at it.  The vertices,
    full-dimensionality and the facets are all read from that table.
    Membership testing works in any dimension.
    """

    variables: tuple[str, ...]
    halfspaces: tuple[Halfspace, ...]
    equalities: tuple[Halfspace, ...] = ()
    generic: bool | None = None
    _table: dict | None = field(default=None, repr=False)

    def __post_init__(self):
        self.variables = tuple(self.variables)
        self.halfspaces = tuple(self.halfspaces)
        self.equalities = tuple(self.equalities)

    @property
    def dim(self) -> int:
        return len(self.variables)

    def contains(self, point) -> bool:
        point = tuple(as_fraction(x) for x in point)
        if len(point) != self.dim:
            raise ValueError(f"expected {self.dim} coordinates")
        return (all(h.holds(point) for h in self.halfspaces)
                and all(h.slack(point) == 0 for h in self.equalities))

    def min_slack(self, point) -> Fraction:
        point = tuple(as_fraction(x) for x in point)
        slacks = [h.slack(point) for h in self.halfspaces]
        slacks += [-abs(h.slack(point)) for h in self.equalities]
        return min(slacks) if slacks else ZERO

    def _incidence(self) -> dict:
        """{vertex: frozenset of indices of the rows tight at it}, sorted."""
        if self._table is not None:
            return self._table
        if self.equalities:
            raise ValueError("vertex enumeration expects substituted equalities")
        n = self.dim
        if n > 3:
            raise ValueError("vertex enumeration limited to dimension <= 3")
        rows = [_integer_row(h) for h in self.halfspaces]
        found = {}
        for combo in itertools.combinations(rows, n):
            normals = [a for a, _ in combo]
            den = _det(normals)
            if den == 0:
                continue
            # Cramer: the j-th numerator replaces column j by the offsets
            num = [_det([a[:j] + (b,) + a[j + 1:] for a, b in combo])
                   for j in range(n)]
            if den < 0:
                den, num = -den, [-c for c in num]
            tight = []
            for k, (a, b) in enumerate(rows):
                # the slack of row k at num / den, times den > 0
                slack = b * den - sum(c * x for c, x in zip(a, num))
                if slack < 0:
                    break
                if slack == 0:
                    tight.append(k)
            else:
                found[tuple(Fraction(c, den) for c in num)] = frozenset(tight)
        self._table = dict(sorted(found.items()))
        return self._table

    def vertices(self) -> tuple:
        return tuple(self._incidence())

    def _faces(self) -> list[frozenset]:
        """The set of vertices tight on each row with a nonzero normal."""
        table = self._incidence()
        return [frozenset(v for v, tight in table.items() if k in tight)
                for k, h in enumerate(self.halfspaces) if any(h.normal)]

    def is_full_dimensional(self) -> bool:
        """Nonempty, and no row with a nonzero normal is tight everywhere."""
        table = self._incidence()
        return bool(table) and all(len(face) < len(table)
                                   for face in self._faces())

    def facet_count(self) -> int:
        """Number of (dim-1)-faces: distinct faces holding >= dim vertices.

        For dim <= 3 a face with that many vertices is a facet, since
        extreme points are never collinear and an edge has two vertices.
        """
        if not self._incidence():
            raise EmptyPolytope("no vertices")
        return len({face for face in self._faces() if len(face) >= self.dim})

    def interval(self) -> tuple[Fraction, Fraction]:
        if self.dim != 1:
            raise ValueError("interval() needs a 1-dimensional polytope")
        verts = [v[0] for v in self.vertices()]
        if not verts:
            raise EmptyPolytope("empty interval")
        return min(verts), max(verts)

    def to_json_dict(self) -> dict:
        doc = {
            "variables": list(self.variables),
            "halfspaces": [
                {"normal": [str(c) for c in h.normal], "offset": str(h.offset)}
                for h in self.halfspaces
            ],
        }
        if self.equalities:
            doc["equalities"] = [
                {"normal": [str(c) for c in h.normal], "offset": str(h.offset)}
                for h in self.equalities
            ]
        if self.dim <= 3 and not self.equalities:
            verts = self.vertices()
            doc["vertices"] = [[str(c) for c in v] for v in verts]
            doc["facets"] = self.facet_count() if verts else 0
        doc["generic"] = self.generic
        return doc


def hypersimplex(m: int) -> RationalPolytope:
    """{x in R^m : 0 <= x_i <= 1, sum x_i = 2}, in membership form."""
    if m < 3:
        raise ValueError("need m >= 3")
    halfspaces = []
    for i in range(m):
        e = [ZERO] * m
        e[i] = Fraction(1)
        halfspaces.append(Halfspace(tuple(-c for c in e), ZERO))
        halfspaces.append(Halfspace(tuple(e), Fraction(1)))
    total = Halfspace((Fraction(1),) * m, Fraction(2))
    return RationalPolytope(tuple(f"x{i+1}" for i in range(m)),
                            tuple(halfspaces), equalities=(total,))


def in_hypersimplex(alpha) -> bool:
    """0 <= alpha_i <= 1 and sum(alpha) == 2, exactly."""
    alpha = exact_lengths(alpha)
    return all(0 <= a <= 1 for a in alpha) and sum(alpha) == 2


@dataclass(frozen=True)
class GCReport:
    """Outcome of the triangle-inequality membership test for (l, d)."""

    ok: bool
    slacks: tuple
    failures: tuple
    min_slack: Fraction
    perimeter_ok: bool | None = None


def triangle_slacks(alpha, diag):
    """All 3m slacks at steps i = 0..m-1, with d_0 = 0 implied.

    ``diag`` is d_1..d_m, as Fractions or floats.  At step i the three
    inequalities relate l_{i+1}, d_i and d_{i+1}:
      A: l_{i+1} <= d_i + d_{i+1}
      B: d_i <= l_{i+1} + d_{i+1}
      C: d_{i+1} <= l_{i+1} + d_i
    """
    m = len(alpha)
    if len(diag) != m:
        raise ValueError("need one diagonal entry per side (the last is 0)")
    d = (ZERO,) + tuple(diag)
    out = []
    for i in range(m):
        out.append((i, "A", d[i] + d[i + 1] - alpha[i]))
        out.append((i, "B", alpha[i] + d[i + 1] - d[i]))
        out.append((i, "C", alpha[i] + d[i] - d[i + 1]))
    return tuple(out)


def gc_membership(alpha, diag, require_perimeter: bool = True) -> GCReport:
    """Exact test that (l, d) satisfies every triangle inequality.

    ``diag`` has m entries d_1..d_m with d_m expected to be 0.  With
    ``require_perimeter`` the perimeter must equal 2 exactly.
    """
    alpha = exact_lengths(alpha)
    diag = tuple(as_fraction(x) for x in diag)
    slacks = triangle_slacks(alpha, diag)
    failures = tuple(s for s in slacks if s[2] < 0)
    if diag[-1] != 0:
        failures += ((len(alpha) - 1, "closure", -abs(diag[-1])),)
    per_ok = None
    if require_perimeter:
        per_ok = sum(alpha) == 2
    ok = not failures and per_ok is not False
    min_slack = min(s[2] for s in slacks)
    return GCReport(ok, slacks, failures, min_slack, per_ok)


def diag_slice(alpha) -> RationalPolytope:
    """Feasible region of the free diagonals d_2..d_{m-2} at fixed lengths.

    Scale-free: the lengths need not sum to 2.  Raises EmptyPolytope when
    the lengths fail the closing condition, which is exactly when the
    triangle inequalities below have no common solution.  ``generic`` is
    :func:`is_generic_lengths` for m <= MAX_BRUTE_FORCE_SIDES, else None.
    """
    alpha = exact_lengths(alpha)
    m = len(alpha)
    if m < 3:
        raise ValueError("need m >= 3")
    if not is_feasible_lengths(alpha):
        raise EmptyPolytope("no polygon has these side lengths")
    n = m - 3
    # d_1 = alpha_1, d_{m-1} = alpha_m, d_0 = d_m = 0 are substituted;
    # d_{1+k} for k = 1..n are the free coordinates.
    fixed = {0: ZERO, 1: alpha[0], m - 1: alpha[m - 1], m: ZERO}

    def coord(j):
        """(coefficient row, constant) decomposition of d_j."""
        row = [ZERO] * n
        if j in fixed:
            return row, fixed[j]
        row[j - 2] = Fraction(1)
        return row, ZERO

    halfspaces = []
    for i in range(m):
        ri, ci = coord(i)
        rj, cj = coord(i + 1)
        # rows written as normal . x <= offset
        rows = [
            ([-a - b for a, b in zip(ri, rj)], ci + cj - alpha[i]),  # A
            ([a - b for a, b in zip(ri, rj)], alpha[i] - ci + cj),   # B
            ([b - a for a, b in zip(ri, rj)], alpha[i] + ci - cj),   # C
        ]
        # rows without a free coordinate follow from the closing condition
        halfspaces += [Halfspace(tuple(normal), offset)
                       for normal, offset in rows if any(normal)]
    names = tuple(f"d{k}" for k in range(2, m - 1))
    generic = (is_generic_lengths(alpha) if m <= MAX_BRUTE_FORCE_SIDES
               else None)
    return RationalPolytope(names, tuple(halfspaces), generic=generic)


def _interval_pair(a, b) -> tuple[Fraction, Fraction]:
    return abs(a - b), a + b


def count_sides(poly: RationalPolytope) -> int:
    """Number of maximal edges of a full-dimensional planar polytope."""
    if poly.dim != 2:
        raise ValueError("count_sides needs a planar polytope")
    if not poly.vertices():
        raise EmptyPolytope("no vertices")
    if not poly.is_full_dimensional():
        raise Degenerate("polytope has zero area")
    return poly.facet_count()


# sides -> (key, 4-manifold, planar quotient, planar rotation quotient)
PENTAGON_TABLE = {
    3: ("3", "CP^2", "RP^2", "S^2"),
    5: ("5", "(S^2 x S^2) # CP^2-bar", "T^2 # RP^2", "Sigma_2"),
    6: ("6", "(S^2 x S^2) # 2 CP^2-bar", "T^2 # 2 RP^2", "Sigma_3"),
    7: ("7", "(S^2 x S^2) # 3 CP^2-bar", "T^2 # 3 RP^2", "Sigma_4"),
}
PENTAGON_TABLE_4A = ("4a", "CP^2 # CP^2-bar", "Klein bottle", "T^2")
PENTAGON_TABLE_4B = ("4b", "S^2 x S^2", "T^2", "T^2 u T^2")


@dataclass(frozen=True)
class ClassificationReport:
    m: int
    generic: bool
    sides: int
    row: str
    orientable: bool
    label_space: str
    label_planar: str
    label_planar_rotation: str
    euler_planar: int

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "generic": self.generic,
            "sides": self.sides,
            "row": self.row,
            "orientable": self.orientable,
            "labels": {
                "spatial_rotation": self.label_space,
                "planar": self.label_planar,
                "planar_rotation": self.label_planar_rotation,
            },
            "euler_planar": self.euler_planar,
        }


def _box_in_wedge(alpha) -> bool:
    """All four box corners satisfy the wedge inequalities."""
    a1, a2, a3, a4, a5 = alpha
    for x in _interval_pair(a1, a2):
        for y in _interval_pair(a5, a4):
            if x + y < a3 or y - x > a3 or x - y > a3:
                return False
    return True


def classify_pentagon(alpha) -> ClassificationReport:
    alpha = exact_lengths(alpha)
    if len(alpha) != 5:
        raise ValueError("need exactly 5 lengths")
    poly = diag_slice(alpha)
    if not poly.generic:
        raise NonGeneric("the side lengths lie on a wall")
    sides = count_sides(poly)
    orientable = _box_in_wedge(alpha)
    if sides == 4:
        row = PENTAGON_TABLE_4B if orientable else PENTAGON_TABLE_4A
    else:
        row = PENTAGON_TABLE[sides]
    key, space, planar, planar_rot = row
    return ClassificationReport(
        m=5, generic=True, sides=sides, row=key,
        orientable=orientable if sides == 4 else False,
        label_space=space, label_planar=planar,
        label_planar_rotation=planar_rot, euler_planar=4 - sides,
    )


@dataclass(frozen=True)
class QuadReport:
    """Diagonal range of a quadrilateral with its planar-moduli label."""

    interval: tuple[Fraction, Fraction]
    i1: tuple[Fraction, Fraction]
    i2: tuple[Fraction, Fraction]
    label_planar: str
    generic: bool
    diagonal_can_vanish: bool

    def to_json_dict(self) -> dict:
        return {
            "interval": [str(self.interval[0]), str(self.interval[1])],
            "i1": [str(c) for c in self.i1],
            "i2": [str(c) for c in self.i2],
            "label_planar": self.label_planar,
            "generic": self.generic,
            "diagonal_can_vanish": self.diagonal_can_vanish,
        }


def quad_interval(alpha) -> QuadReport:
    """Range of the middle diagonal of a quadrilateral: I_1 meet I_2."""
    alpha = exact_lengths(alpha)
    if len(alpha) != 4:
        raise ValueError("need exactly 4 lengths")
    a1, a2, a3, a4 = alpha
    i1 = _interval_pair(a1, a2)
    i2 = _interval_pair(a4, a3)
    lo, hi = max(i1[0], i2[0]), min(i1[1], i2[1])
    if lo > hi:
        raise EmptyPolytope("no quadrilateral has these side lengths")
    nested = ((i1[0] >= i2[0] and i1[1] <= i2[1])
              or (i2[0] >= i1[0] and i2[1] <= i1[1]))
    label = "S^1 u S^1" if nested else "S^1"
    return QuadReport((lo, hi), i1, i2, label, is_generic_lengths(alpha),
                      diagonal_can_vanish=(lo == 0))


def dh_interval_equality(alpha) -> tuple[Fraction, Fraction]:
    """Lengths of the variation intervals of the two diagonals; equal."""
    alpha = exact_lengths(alpha)
    lo1, hi1 = quad_interval(alpha).interval
    lo2, hi2 = quad_interval(alpha[1:] + alpha[:1]).interval
    return hi1 - lo1, hi2 - lo2


def _cone_halfspaces(n: int) -> list[Halfspace]:
    """x_i <= sum of the others, x >= 0, in n variables."""
    out = []
    one = Fraction(1)
    for i in range(n):
        normal = [-one] * n
        normal[i] = one
        out.append(Halfspace(tuple(normal), ZERO))
        axis = [ZERO] * n
        axis[i] = -one
        out.append(Halfspace(tuple(axis), ZERO))
    return out


def _even_box(alpha) -> list[tuple[Fraction, Fraction]]:
    return [_interval_pair(alpha[2 * i], alpha[2 * i + 1])
            for i in range(len(alpha) // 2)]


def even_step_polytope(alpha) -> RationalPolytope:
    """Feasible even-step side lengths: a box cut by the simplex cone.

    For odd m the last coordinate is pinned to alpha_m and substituted;
    for m = 4 the cone degenerates to an equality and the result is the
    one-dimensional diagonal interval.
    """
    alpha = exact_lengths(alpha)
    m = len(alpha)
    if not 4 <= m <= 6:
        raise ValueError("vertex enumeration supported for 4 <= m <= 6")
    one = Fraction(1)
    if m == 4:
        # the cone forces x1 = x2; the polytope is the diagonal interval
        rep = quad_interval(alpha)
        lo, hi = rep.interval
        return RationalPolytope(
            ("x1",), (Halfspace((-one,), -lo), Halfspace((one,), hi)),
            generic=rep.generic)
    if not is_feasible_lengths(alpha):
        raise EmptyPolytope("no polygon has these even-step lengths")
    n = (m + 1) // 2
    fixed_last = alpha[-1] if m % 2 == 1 else None
    free = n - 1 if fixed_last is not None else n
    halfspaces = []
    for i, (lo, hi) in enumerate(_even_box(alpha)):
        axis = [ZERO] * free
        axis[i] = one
        halfspaces.append(Halfspace(tuple(-c for c in axis), -lo))
        halfspaces.append(Halfspace(tuple(axis), hi))
    for h in _cone_halfspaces(n):
        if fixed_last is None:
            halfspaces.append(h)
        else:
            normal = h.normal[:free]
            offset = h.offset - h.normal[-1] * fixed_last
            if any(c != 0 for c in normal):
                halfspaces.append(Halfspace(normal, offset))
    names = tuple(f"x{i+1}" for i in range(free))
    return RationalPolytope(names, tuple(halfspaces),
                            generic=is_generic_lengths(alpha))
