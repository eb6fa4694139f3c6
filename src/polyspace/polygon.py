"""Polygon data model: closure, lengths, diagonals, strata and predicates.

A polygon is an ordered list of edge vectors in R^k summing to zero; all
moduli-space functionals (side lengths, diagonal lengths, strata, the
even-step map) live here.
"""

from __future__ import annotations

import bisect
import itertools
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError

MAX_BRUTE_FORCE_SIDES = 24
# Python's limit on the digits of an int written as text; 0 for none
_digit_limit = getattr(sys, "get_int_max_str_digits", int)


def as_fraction(value) -> Fraction:
    """The exact length a decimal or fraction string stands for: an
    ``--alpha`` token, or a string item of ``integer_lengths``.

    Anything else is refused, floats too: wall membership is a
    codimension-one exact condition and a float cannot certify it.  A
    string whose exponent is past the digit limit by more than its length
    is refused unexpanded.  A plain ASCII ``n`` or ``n/d`` is read by
    ``int``, as ``Fraction`` would read it, and refused past the limit.
    """
    if not isinstance(value, str):
        raise TypeError(f"exact rational expected, got {value!r}")
    num, slash, den = value.partition("/")
    limit = _digit_limit() or math.inf
    plain = value.isascii() and num.isdigit() and (den.isdigit() or not slash)
    if plain and max(len(num), len(den)) <= limit:
        return Fraction(int(num), int(den or 1))
    head, _, exp = value.lower().partition("e")
    if plain or exp and abs(int(exp)) > limit + len(head):
        raise InputError(f"a length needs more than {limit} digits")
    return Fraction(value)


def integer_lengths(alpha) -> tuple[int, list[int]]:
    """(den, ints): the exact lengths alpha as one integer vector ints over
    their common denominator den; int and Fraction items pass through.
    Refused past the digit limit: den or 4 * sum |ints|, which bound every
    offset, vertex (the determinant of its solve, dim <= 3, is at most 4)
    and interval end written from them."""
    values = [a if type(a) is int or isinstance(a, Fraction)
              else as_fraction(a) for a in alpha]
    den = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (den // v.denominator) for v in values]
    limit, big = _digit_limit(), 4 * max(den, sum(map(abs, ints)))
    # an int below 8^limit has at most limit digits: no power is needed
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise InputError(f"the lengths need more than {limit} digits")
    return den, ints


@dataclass(frozen=True)
class Polygon:
    """Closed polygonal path: ``edges`` is an (m, dim) array of edge vectors."""

    dim: int
    edges: np.ndarray = field(repr=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=float)
        if type(self.dim) is not int or self.dim not in (1, 2, 3):
            raise InputError(f"dim must be 1, 2 or 3, got {self.dim!r}")
        if edges.ndim != 2 or edges.shape[1] != self.dim:
            raise InputError(f"edges must have shape (m, {self.dim})")
        if edges.shape[0] < 2:
            raise InputError("a polygon needs at least 2 edges")
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return self.edges.shape[0]

    def vertices(self) -> np.ndarray:
        """Partial sums v_0 = 0, v_1, ..., v_m (shape (m+1, dim))."""
        return np.vstack([np.zeros(self.dim), np.cumsum(self.edges, axis=0)])

    def embedded(self) -> "Polygon":
        """The same polygon in R^3, its coordinates padded with zeros."""
        padded = np.zeros((self.m, 3))
        padded[:, : self.dim] = self.edges
        return Polygon(3, padded)


def unit_scaled(x, axis=None):
    """(x times 2^-top, top), top kept along axis: the exponent of the largest
    |x| there, so that no square or sum of the product leaves the float
    range. The package's one float-range rescale; exact where not subnormal."""
    top = np.frexp(np.abs(x).max(axis=axis, keepdims=True))[1]
    return np.ldexp(x, -top), top


def norm(x, axis=None):
    """np.linalg.norm(x, axis=axis) by its formula; where its squares may
    have left the float range, from each row's ``unit_scaled``."""
    with np.errstate(over="ignore"):
        n = np.sqrt(x.dot(x) if axis is None else np.add.reduce(x * x, axis))
        if 2.0 ** -500 <= np.add.reduce(n, None) < math.inf:
            return n
    unit, top = unit_scaled(x, axis)
    return np.ldexp(np.linalg.norm(unit, axis=axis), top.squeeze(axis))


def closure_defect(p: Polygon) -> float:
    return float(norm(p.edges.sum(axis=0)))


def perimeter(p: Polygon) -> float:
    return float(norm(p.edges, axis=1).sum())


def side_lengths(p: Polygon) -> np.ndarray:
    return norm(p.edges, axis=1)


def diagonals(p: Polygon) -> np.ndarray:
    """d_i = |rho(1) + ... + rho(i)| for i = 1..m; d_m is the closure defect."""
    return norm(np.cumsum(p.edges, axis=0), axis=1)


def is_zero(x, scale):
    """x <= 1e-9 scale, rowwise: the length x is zero beside a polygon of
    size ``scale``, at any scale (there is no absolute floor). NaN is not."""
    return x <= 1e-9 * scale


def _finite(p: Polygon) -> Polygon:
    """p's ``unit_scaled`` copy; a NaN or inf edge is refused."""
    if not np.isfinite(p.edges).all():
        raise InputError("polygon has an edge that is not finite")
    return Polygon(p.dim, unit_scaled(p.edges)[0])


def stratum_index(p: Polygon) -> int:
    """m minus the number of zero edges: the smallest j with p in E_j."""
    q = _finite(p)
    return int(p.m - np.count_nonzero(is_zero(side_lengths(q), perimeter(q))))


def is_proper(p: Polygon) -> bool:
    return stratum_index(p) == p.m


def is_lined(p: Polygon) -> bool:
    """True if all edges span a line (or less)."""
    q = _finite(p)
    sv = np.linalg.svd(q.edges.T, compute_uv=False)
    if len(sv) < 2:
        return True
    return bool(is_zero(sv[1], perimeter(q)))


def is_prodigal(p: Polygon) -> bool:
    """No diagonal returns to the origin prematurely."""
    q = _finite(p)
    return not is_zero(diagonals(q)[: p.m - 1], perimeter(q)).any()


def even_step(p: Polygon) -> Polygon:
    """Replace consecutive edge pairs by their sums, halving the polygon.

    For odd m the last new edge is rho(m) itself.
    """
    if p.m < 4:
        raise InputError("even_step needs at least 4 edges")
    pairs = [p.edges[2 * i] + p.edges[2 * i + 1] for i in range(p.m // 2)]
    if p.m % 2 == 1:
        pairs.append(p.edges[-1].copy())
    return Polygon(p.dim, np.array(pairs))


def even_diagonals(p: Polygon) -> np.ndarray:
    return side_lengths(even_step(p))


def is_feasible_lengths(alpha) -> bool:
    """Closing condition: some polygon has these side lengths.

    That holds iff every length is nonnegative and none exceeds the sum
    of the others, i.e. 2 * max(alpha) <= sum(alpha).
    """
    _, ints = integer_lengths(alpha)
    return min(ints) >= 0 and 2 * max(ints) <= sum(ints)


def _split_sums(ints: list[int]):
    """Meet-in-the-middle form of the signed sums with first sign +1.

    A sign vector with minus set T in {2..m} has signed sum
    total - 2 * (a + b) on the integer lengths ``ints``, where a is the sum
    of T's entries among ints_2..ints_h, b among ints_{h+1}..ints_m, and
    h = ceil(m/2) (Horowitz-Sahni).  ``left`` and ``right`` list those
    partial sums for every sign vector of their half, in
    ``itertools.product((1, -1))`` order.  Returns (total, left, right).
    """
    m = len(ints)
    if m > MAX_BRUTE_FORCE_SIDES:
        raise InputError(f"brute force limited to m <= {MAX_BRUTE_FORCE_SIDES}")
    h = (m + 1) // 2

    def minus_sums(values):
        sums = [0]
        for v in values:
            sums = [s + t for s in sums for t in (0, v)]
        return sums

    return sum(ints), minus_sums(ints[1:h]), minus_sums(ints[h:])


def is_generic_lengths(alpha) -> bool:
    """True iff no signed combination of the side lengths vanishes."""
    total, left, right = _split_sums(integer_lengths(alpha)[1])
    if total % 2:
        return True
    reach = set(right)
    return all(total // 2 - a not in reach for a in left)


def enumerate_lined(alpha) -> list[tuple[int, ...]]:
    """Sign vectors with vanishing signed sum, one per antipodal pair.

    Listed in ``itertools.product((1, -1))`` order with first sign +1.
    """
    _, ints = integer_lengths(alpha)
    total, left, right = _split_sums(ints)
    if total % 2:
        return []
    h = (len(ints) + 1) // 2
    matches = {}
    for signs, b in zip(itertools.product((1, -1), repeat=len(ints) - h),
                        right):
        matches.setdefault(b, []).append(signs)
    return [(1,) + lead + tail
            for lead, a in zip(itertools.product((1, -1), repeat=h - 1), left)
            for tail in matches.get(total // 2 - a, ())]


def wall_distance(alpha) -> Fraction:
    """Exact distance min |sum eps_i alpha_i| to the nearest inner wall."""
    den, ints = integer_lengths(alpha)
    total, left, right = _split_sums(ints)
    doubled = sorted(2 * b for b in right)
    gaps = []
    for a in left:
        key = total - 2 * a
        i = bisect.bisect_left(doubled, key)
        gaps += [abs(key - b) for b in doubled[max(i - 1, 0):i + 1]]
    return Fraction(min(gaps), den)
