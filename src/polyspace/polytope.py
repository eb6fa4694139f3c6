"""Exact rational polytopes for length and diagonal data.

Everything here is exact, on the one integer vector ``integer_lengths``
makes of the lengths: side and facet counts jump at walls, and floats
cannot certify which side of a wall a given length vector sits on.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import EmptyPolytope, Infeasible, InputError
from .polygon import (MAX_BRUTE_FORCE_SIDES, integer_lengths,
                      is_feasible_lengths, is_generic_lengths)


def _solve(combo) -> tuple[int, tuple[int, ...]]:
    """det and numerators of normal . x = offset on ``combo``'s dim <= 3 rows.

    For rows (a, p), (b, q), (c, r): det = a . (b x c), and the numerators
    p(b x c) + q(c x a) + r(a x b) are Cramer's, so x = numerators / det.
    """
    if len(combo) == 3:
        ((a0, a1, a2), p), ((b0, b1, b2), q), ((c0, c1, c2), r) = combo
        bc = (b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0)
        ca = (c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0)
        ab = (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)
        return (a0 * bc[0] + a1 * bc[1] + a2 * bc[2],
                (p * bc[0] + q * ca[0] + r * ab[0],
                 p * bc[1] + q * ca[1] + r * ab[1],
                 p * bc[2] + q * ca[2] + r * ab[2]))
    if len(combo) == 2:
        ((a0, a1), p), ((b0, b1), q) = combo
        return a0 * b1 - a1 * b0, (p * b1 - q * a1, a0 * q - b0 * p)
    return (combo[0][0][0], (combo[0][1],)) if combo else (1, ())


def _ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, from the integers."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


@dataclass
class RationalPolytope:
    """An intersection of rational halfspaces with exact vertex data.

    ``rows`` holds integer (normal, offset) pairs over one shared
    denominator ``den``: x lies in the polytope when normal . x <=
    offset / den for every row.  For dim <= 3 the vertices come from one
    incidence table, built once: each dim-subset of the distinct normals,
    at their tightest offsets, is solved by one adjugate solve, and a
    solution that satisfies every row becomes a vertex, mapped to the rows
    tight at it.  A vertex is keyed by integers: its numerators and their
    denominator over ``den``, divided by their gcd.  The vertices,
    full-dimensionality and facets are read from the table.
    """

    variables: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]
    den: int
    generic: bool | None = None

    @property
    def dim(self) -> int:
        return len(self.variables)

    @functools.cached_property
    def _incidence(self) -> dict:
        """{vertex key: frozenset of indices of the rows tight at it}, sorted."""
        n = self.dim
        if n > 3:
            raise InputError("vertex enumeration limited to dimension <= 3")
        rows = self.rows
        # a vertex on a row also lies on the tightest row of its normal
        tightest = {}
        for a, b in rows:
            tightest[a] = min(b, tightest.get(a, b))
        # the row that refused the last candidate, tested first (none yet)
        found, refuser = {}, ((), 0)
        for combo in itertools.combinations(tightest.items(), n):
            det, num = _solve(combo)
            if det == 0:
                continue
            # the vertex num / (det * den), keyed with det > 0 and gcd 1
            g = math.gcd(det, *num) * (1 if det > 0 else -1)
            key = (*(c // g for c in num), det // g)
            if key in found:
                continue
            *num, det = key
            if refuser[1] * det < sum(map(operator.mul, refuser[0], num)):
                continue
            tight = []
            for k, (a, b) in enumerate(rows):
                # the slack of row k at the vertex, times det * den > 0
                slack = b * det - sum(map(operator.mul, a, num))
                if slack < 0:
                    refuser = a, b
                    break
                if slack == 0:
                    tight.append(k)
            else:
                found[key] = frozenset(tight)
        # the vertices' order: their numerators over one common denominator
        lcm = math.lcm(*(key[-1] for key in found))
        return dict(sorted(found.items(), key=lambda item: [
            c * (lcm // item[0][-1]) for c in item[0][:-1]]))

    def vertices(self) -> tuple:
        den = self.den
        return tuple(tuple(Fraction(c, key[-1] * den) for c in key[:-1])
                     for key in self._incidence)

    def vertex_strings(self) -> list[list[str]]:
        """The strings of ``vertices()``, written from the integer keys."""
        den = self.den
        return [[_ratio(c, key[-1] * den) for c in key[:-1]]
                for key in self._incidence]

    def _faces(self) -> list[frozenset]:
        """The set of vertices tight on each row with a nonzero normal."""
        table = self._incidence
        return [frozenset(v for v, tight in table.items() if k in tight)
                for k, (a, _) in enumerate(self.rows) if any(a)]

    def is_full_dimensional(self) -> bool:
        """Nonempty, and no row with a nonzero normal is tight everywhere."""
        table = self._incidence
        return bool(table) and all(len(face) < len(table)
                                   for face in self._faces())

    def facet_count(self) -> int:
        """Number of (dim-1)-faces: distinct faces holding >= dim vertices.

        For dim <= 3 a face with that many vertices is a facet, since
        extreme points are never collinear and an edge has two vertices.
        """
        if not self._incidence:
            raise EmptyPolytope("no vertices")
        return len({face for face in self._faces() if len(face) >= self.dim})

    def to_json_dict(self) -> dict:
        doc = {
            "variables": list(self.variables),
            "halfspaces": [
                {"normal": [str(c) for c in a], "offset": _ratio(b, self.den)}
                for a, b in self.rows
            ],
        }
        if self.dim <= 3:
            doc["vertices"] = self.vertex_strings()
            doc["facets"] = self.facet_count() if self._incidence else 0
        doc["generic"] = self.generic
        return doc


def in_hypersimplex(alpha) -> bool:
    """0 <= alpha_i <= 1 and sum(alpha) == 2, exactly."""
    return _in_hypersimplex(*integer_lengths(alpha))


def _in_hypersimplex(den, ints) -> bool:
    """``in_hypersimplex`` of the lengths ints / den."""
    return all(0 <= a <= den for a in ints) and sum(ints) == 2 * den


# The triangle inequalities of a triangle, as signs on its three terms (in
# the fan at step i: d_i, d_{i+1}, l_{i+1}): the two terms signed +1 sum to
# at least the term signed -1.
#   A: l_{i+1} <= d_i + d_{i+1}
#   B: d_i <= d_{i+1} + l_{i+1}
#   C: d_{i+1} <= d_i + l_{i+1}
TRIANGLE_SIGNS = (("A", (1, 1, -1)), ("B", (-1, 1, 1)), ("C", (1, -1, 1)))
# (name, the two terms signed +1, the term signed -1) for each row
_TRIANGLE_TERMS = tuple(
    (name, *(k for k in range(3) if signs[k] > 0), signs.index(-1))
    for name, signs in TRIANGLE_SIGNS)


def _tree_polytope(triangles, names, den, generic) -> RationalPolytope:
    """Rows of the triangle inequalities of a triangulation's triangles.

    Terms follow TRIANGLE_SIGNS: a free coordinate (int) or a fixed integer
    length over ``den`` (1-tuple); rows with no free coordinate are dropped.
    """
    rows = []
    for terms in triangles:
        for _, signs in TRIANGLE_SIGNS:
            # sum of s * term >= 0 as normal . x <= offset / den
            normal = [0] * len(names)
            offset = 0
            for s, t in zip(signs, terms):
                if isinstance(t, int):
                    normal[t] -= s
                else:
                    offset += s * t[0]
            if any(normal):
                rows.append((tuple(normal), offset))
    return RationalPolytope(names, tuple(rows), den, generic=generic)


def diag_slice(alpha) -> RationalPolytope:
    """Feasible region of the free diagonals d_2..d_{m-2} at fixed lengths.

    Scale-free: the lengths need not sum to 2.  Raises EmptyPolytope when
    the lengths fail the closing condition, which is exactly when the
    triangle inequalities below have no common solution.  ``generic`` is
    :func:`is_generic_lengths` for m <= MAX_BRUTE_FORCE_SIDES, else None.
    """
    den, ints = integer_lengths(alpha)
    m = len(ints)
    if m < 3:
        raise InputError(f"a polygon needs at least 3 lengths, got {m}")
    if not is_feasible_lengths(ints):
        raise EmptyPolytope("no polygon has these side lengths")
    # the fan (d_i, d_{i+1}, alpha_{i+1}) with d_0 = d_m = 0, d_1 = alpha_1
    # and d_{m-1} = alpha_m; d_2..d_{m-2} are the free coordinates
    d = [(0,), (ints[0],), *range(m - 3), (ints[-1],), (0,)]
    triangles = [(d[i], d[i + 1], (ints[i],)) for i in range(m)]
    names = tuple(f"d{k}" for k in range(2, m - 1))
    generic = (is_generic_lengths(ints) if m <= MAX_BRUTE_FORCE_SIDES
               else None)
    return _tree_polytope(triangles, names, den, generic)


def _interval_pair(a, b) -> tuple[int, int]:
    """The triangle inequalities solved for the third side c of (a, b, c)."""
    return abs(a - b), a + b


# row -> (4-manifold, planar quotient, planar rotation quotient)
PENTAGON_TABLE = {
    "3": ("CP^2", "RP^2", "S^2"),
    "4a": ("CP^2 # CP^2-bar", "Klein bottle", "T^2"),
    "4b": ("S^2 x S^2", "T^2", "T^2 u T^2"),
    "5": ("(S^2 x S^2) # CP^2-bar", "T^2 # RP^2", "Sigma_2"),
    "6": ("(S^2 x S^2) # 2 CP^2-bar", "T^2 # 2 RP^2", "Sigma_3"),
    "7": ("(S^2 x S^2) # 3 CP^2-bar", "T^2 # 3 RP^2", "Sigma_4"),
}


def classify_pentagon(alpha) -> dict:
    """Row of the pentagon table from the L long pairs of sides, as the
    JSON document ``classify`` writes.

    A pair is long when it exceeds half the perimeter.  For generic
    lengths a 3-set is short exactly when its complement is a long pair,
    so chi(M_alpha) = 7 - L (Hausmann-Knutson).  Long pairs always meet,
    so at L = 3 they share a side (F_1, row 4a) or form a triangle
    (F_even, row 4b).  ``sides`` is chi: off the axes, the side count.
    """
    _, ints = integer_lengths(alpha)
    if len(ints) != 5:
        raise InputError("need exactly 5 lengths")
    if not is_feasible_lengths(ints):
        raise EmptyPolytope("no polygon has these side lengths")
    if not is_generic_lengths(ints):
        raise Infeasible("the side lengths lie on a wall")
    total = sum(ints)
    long_pairs = [{i, j} for i, j in itertools.combinations(range(5), 2)
                  if 2 * (ints[i] + ints[j]) > total]
    sides = 7 - len(long_pairs)
    row = str(sides)
    if sides == 4:
        row = "4a" if set.intersection(*long_pairs) else "4b"
    space, planar, planar_rot = PENTAGON_TABLE[row]
    return {
        "m": 5, "generic": True, "sides": sides, "row": row,
        "orientable": row == "4b",
        "labels": {"spatial_rotation": space, "planar": planar,
                   "planar_rotation": planar_rot},
        "euler_planar": 4 - sides,
    }


def _quad_meet(ints):
    """I_1 = [|a1-a2|, a1+a2], I_2 = [|a4-a3|, a4+a3] and their meet."""
    if len(ints) != 4:
        raise InputError("need exactly 4 lengths")
    if not is_feasible_lengths(ints):
        raise EmptyPolytope("no quadrilateral has these side lengths")
    a1, a2, a3, a4 = ints
    i1 = _interval_pair(a1, a2)
    i2 = _interval_pair(a4, a3)
    return i1, i2, (max(i1[0], i2[0]), min(i1[1], i2[1]))


def quad_interval(alpha) -> dict:
    """Range of the middle diagonal of a quadrilateral: I_1 meet I_2, as the
    JSON document ``classify`` writes, with exact Fraction interval ends."""
    den, ints = integer_lengths(alpha)
    i1, i2, meet = _quad_meet(ints)
    nested = ((i1[0] >= i2[0] and i1[1] <= i2[1])
              or (i2[0] >= i1[0] and i2[1] <= i1[1]))
    label = "S^1 u S^1" if nested else "S^1"
    interval, i1, i2 = ([Fraction(a, den) for a in ends]
                        for ends in (meet, i1, i2))
    return {"interval": interval, "i1": i1, "i2": i2,
            "label_planar": label, "generic": is_generic_lengths(ints),
            "diagonal_can_vanish": meet[0] == 0}


def dh_interval_equality(alpha) -> tuple[Fraction, Fraction]:
    """Lengths of the variation intervals of the two diagonals; equal."""
    den, ints = integer_lengths(alpha)
    (lo1, hi1), (lo2, hi2) = (_quad_meet(a)[2]
                              for a in (ints, ints[1:] + ints[:1]))
    return Fraction(hi1 - lo1, den), Fraction(hi2 - lo2, den)


def even_step_polytope(alpha) -> RationalPolytope:
    """Feasible even-step side lengths x_k: the pairing tree.

    Its triangles are (alpha_{2k-1}, alpha_{2k}, x_k), closed by
    (x1, x2, x3) for m = 6 or (x1, x2, alpha_5) for m = 5; for m = 4 both
    pairs close on x1, the diagonal.
    """
    den, ints = integer_lengths(alpha)
    m = len(ints)
    if not 4 <= m <= 6:
        raise InputError(f"the even-step system needs 4 to 6 lengths, got {m}")
    if not is_feasible_lengths(ints):
        raise EmptyPolytope("no polygon has these even-step lengths")
    free = 1 if m == 4 else m // 2
    # (alpha_{2k-1}, alpha_{2k}, x_k); at m = 4 both pairs take x1
    triangles = [((ints[2 * k],), (ints[2 * k + 1],), k % free)
                 for k in range(m // 2)]
    if m > 4:
        triangles.append((0, 1, 2 if m == 6 else (ints[4],)))
    names = tuple(f"x{k + 1}" for k in range(free))
    return _tree_polytope(triangles, names, den, is_generic_lengths(ints))
