"""Exact polytopes: hypersimplex, diagonal slices, classification tables."""

import functools
import itertools
import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyspace import cli
from polyspace import polygon as pg
from polyspace import polytope as pt
from polyspace.errors import EmptyPolytope, Infeasible

from conftest import triangle_slacks


# Test polytopes are written as rational (normal, offset) rows, each
# scaled to integers by its own common denominator (the per-row scaling
# RationalPolytope used before its rows shared one denominator).

def _integer_row(normal, offset):
    """(normal, offset) scaled by their common denominator."""
    row = tuple(F(c) for c in normal) + (F(offset),)
    den = math.lcm(*(c.denominator for c in row))
    *normal, offset = (c.numerator * (den // c.denominator) for c in row)
    return tuple(normal), offset


def _polytope(variables, rows, generic=None):
    """RationalPolytope of the rational rows normal . x <= offset."""
    return pt.RationalPolytope(
        tuple(variables), tuple(_integer_row(*row) for row in rows), 1,
        generic)


def _rational_rows(poly):
    """The rows of ``poly`` as rational (normal, offset) pairs."""
    return [(tuple(F(c) for c in a), F(b, poly.den)) for a, b in poly.rows]


# Test-only oracles: the box-corner wall tests and the box-and-wedge
# pentagon region that is_generic_lengths and diag_slice replaced.

def _pair(a, b):
    return abs(a - b), a + b


def _pentagon_box_generic(alpha):
    """No corner of the (d_2, d_3) box lies on the three wedge lines."""
    a1, a2, a3, a4, a5 = alpha
    return not any(x + y == a3 or y - x == a3 or x - y == a3
                   for x in _pair(a1, a2) for y in _pair(a5, a4))


def _even_box(alpha):
    """Ranges of the even-step sides; for odd m the last is pinned."""
    box = [_pair(alpha[i], alpha[i + 1]) for i in range(0, len(alpha) - 1, 2)]
    if len(alpha) % 2:
        box.append((alpha[-1], alpha[-1]))
    return box


def _box_corner_generic(box):
    """No box corner satisfies a cone equality x_i = sum of the others.

    For m = 4 this says no endpoint of I_1 meets an endpoint of I_2.
    """
    return not any(2 * x == sum(corner)
                   for corner in itertools.product(*box) for x in corner)


def _pentagon_polytope(alpha):
    """The (d_2, d_3) region: a box cut by a three-line wedge."""
    a1, a2, a3, a4, a5 = alpha
    x_lo, x_hi = _pair(a1, a2)
    y_lo, y_hi = _pair(a5, a4)
    rows = (
        ((-1, 0), -x_lo), ((1, 0), x_hi),
        ((0, -1), -y_lo), ((0, 1), y_hi),
        ((-1, -1), -a3),  # x + y >= a3
        ((1, -1), a3),    # x - y <= a3
        ((-1, 1), a3),    # y - x <= a3
        ((-1, 0), 0), ((0, -1), 0),
    )
    return _polytope(("d2", "d3"), rows)


def _even_box_cone(alpha):
    """The even-step box cut by the cone x_i <= sum of the others."""
    box = _even_box(alpha)
    n = len(box)
    rows = []
    for i, (lo, hi) in enumerate(box):
        axis = tuple(int(j == i) for j in range(n))
        rows += [(tuple(-c for c in axis), -lo), (axis, hi),
                 (tuple(2 * c - 1 for c in axis), 0)]
    return _polytope(tuple(f"x{i + 1}" for i in range(n)), rows)


# Test-only oracle: the Fraction elimination and the affine-rank facet
# rule that the integer incidence table of RationalPolytope replaced.

def _slack(row, point):
    """offset - normal . point of the rational row, exactly."""
    normal, offset = row
    return offset - sum(n * x for n, x in zip(normal, point))


def _solve_square(rows, rhs):
    """Exact Gaussian elimination; returns None for singular systems."""
    n = len(rhs)
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [c / inv for c in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [c - factor * d for c, d in zip(aug[r], aug[col])]
    return tuple(aug[r][n] for r in range(n))


def _affinely_independent_count(points, dim):
    """Size of a largest affinely independent subset, capped at dim + 1."""
    if not points:
        return 0
    base = points[0]
    basis = []
    for p in points[1:]:
        vec = [x - y for x, y in zip(p, base)]
        for b in basis:
            lead = next((i for i, c in enumerate(b) if c != 0))
            if vec[lead] != 0:
                f = vec[lead] / b[lead]
                vec = [c - f * d for c, d in zip(vec, b)]
        if any(c != 0 for c in vec):
            basis.append(vec)
            if len(basis) == dim:
                break
    return len(basis) + 1


def _canonical_boundary(row):
    """Scale-invariant key for the hyperplane normal . x = offset."""
    normal, offset = row
    lead = next((c for c in normal if c != 0), None)
    if lead is None:
        return None
    return (tuple(c / lead for c in normal), offset / lead)


def _oracle_vertices(poly):
    rows = _rational_rows(poly)
    found = set()
    for combo in itertools.combinations(rows, poly.dim):
        point = _solve_square([normal for normal, _ in combo],
                              [offset for _, offset in combo])
        if point is not None and all(_slack(h, point) >= 0 for h in rows):
            found.add(point)
    return tuple(sorted(found))


def _oracle_facet_count(poly, verts):
    """Distinct hyperplanes holding dim affinely independent vertices."""
    if poly.dim == 0:
        return 0
    faces = set()
    for h in _rational_rows(poly):
        on = [v for v in verts if _slack(h, v) == 0]
        if _affinely_independent_count(on, poly.dim) >= poly.dim:
            faces.add(_canonical_boundary(h))
    return len(faces)


# Test-only oracle: the hypersimplex as the unit box cut by sum(x) = 2.

def _unit_box(m):
    """{x in R^m : 0 <= x_i <= 1} as a polytope."""
    rows = []
    for i in range(m):
        e = [0] * m
        e[i] = 1
        rows += [(tuple(-c for c in e), 0), (e, 1)]
    return _polytope(tuple(f"x{i+1}" for i in range(m)), rows)


def _in_hypersimplex_oracle(x):
    return (all(_slack(h, x) >= 0
                for h in _rational_rows(_unit_box(len(x))))
            and sum(F(c) for c in x) == 2)


def test_hypersimplex_membership():
    for point, inside in [((F(2, 3), F(2, 3), F(2, 3)), True),
                          ((1, 1, 0), True),
                          ((F(3, 2), F(1, 2), 0), False),
                          ((F(1, 2), F(1, 2), F(1, 2)), False)]:
        assert _in_hypersimplex_oracle(point) is inside, point
        assert pt.in_hypersimplex(point) is inside, point


def test_in_hypersimplex_matches_polytope(rng):
    seen = set()
    for m in range(3, 9):
        for _ in range(40):
            den = int(rng.integers(1, 5))
            alpha = tuple(F(int(n), den) for n in rng.integers(0, 5, size=m))
            if rng.random() < 0.5 and sum(alpha):
                alpha = tuple(2 * a / sum(alpha) for a in alpha)
            inside = pt.in_hypersimplex(alpha)
            assert inside == _in_hypersimplex_oracle(alpha), alpha
            seen.add(inside)
    assert seen == {True, False}


def test_gc_membership_square():
    ell = (F(1, 2),) * 4
    good = triangle_slacks(ell, (F(1, 2), F(7, 10), F(1, 2), 0))
    assert len(good) == 12
    # the first and last steps are forced boundaries (d1 = l1, d0 = 0)
    assert min(s for _, _, s in good) == 0
    interior = [s for i, _, s in good if 0 < i < 3]
    assert min(interior) > 0
    bad = triangle_slacks(ell, (F(1, 2), F(3, 2), F(1, 2), 0))
    assert any(name == "C" for _, name, s in bad if s < 0)


def test_gc_membership_boundary():
    slacks = triangle_slacks((1, 1, 0), (1, 0, 0))
    assert min(s for _, _, s in slacks) == 0


def test_diag_slice_quadrilateral():
    poly = pt.diag_slice((1, 2, 3, 4))
    assert poly.vertices() == ((1,), (3,))


def test_equal_polytopes_stay_equal_after_vertices():
    # the vertex table is a cache, not part of the polytope's value
    p, q = pt.diag_slice((1, 1, 1, 1, 1)), pt.diag_slice((1, 1, 1, 1, 1))
    p.vertices()
    assert p == q


def test_diag_slice_triangle():
    assert pt.diag_slice((3, 4, 5)).vertices() == ((),)
    with pytest.raises(EmptyPolytope):
        pt.diag_slice((1, 1, 3))


def test_diag_slice_empty_iff_closing_condition_fails(rng):
    for m in range(3, 11):
        for trial in range(24):
            nums, dens = rng.integers(1, 30, size=m), rng.integers(1, 7, size=m)
            alpha = [F(int(n), int(d)) for n, d in zip(nums, dens)]
            if trial % 2:
                # one side near the sum of the others: just under, on or over
                k = int(rng.integers(0, m))
                rest = sum(alpha) - alpha[k]
                step = F(int(rng.integers(-2, 3)), int(rng.integers(1, 4)))
                alpha[k] = rest + step
            alpha = tuple(alpha)
            if 2 * max(alpha) > sum(alpha):
                with pytest.raises(EmptyPolytope):
                    pt.diag_slice(alpha)
                continue
            poly = pt.diag_slice(alpha)
            if poly.dim <= 3:
                assert poly.vertices()  # vertex enumeration agrees


def test_diag_slice_matches_pentagon_polytope():
    # the examples, then every pentagon with entries 0..3
    cases = [(2, 1, 5, 1, 2), (3, 1, 3, 1, 3), (4, 2, 2, 2, 4)]
    cases += itertools.product(range(4), repeat=5)
    for alpha in cases:
        oracle = _pentagon_polytope(alpha)
        if not pg.is_feasible_lengths(alpha):
            assert not oracle.vertices(), alpha
            with pytest.raises(EmptyPolytope):
                pt.diag_slice(alpha)
            continue
        poly = pt.diag_slice(alpha)
        assert poly.generic == _pentagon_box_generic(alpha), alpha
        assert set(poly.vertices()) == set(oracle.vertices()), alpha
        if oracle.is_full_dimensional():
            assert _sides(poly) == _sides(oracle), alpha


def test_wall_oracles_match_is_generic_lengths_on_pentagons():
    # every feasible pentagon with entries 0..6, through the pentagon box
    # and the even-step box (pinned last side)
    feasible = 0
    for alpha in itertools.product(range(7), repeat=5):
        if not pg.is_feasible_lengths(alpha):
            continue
        feasible += 1
        generic = pg.is_generic_lengths(alpha)
        assert _pentagon_box_generic(alpha) == generic, alpha
        assert _box_corner_generic(_even_box(alpha)) == generic, alpha
    assert feasible == 15547


def test_quad_generic_and_emptiness_exhaustive():
    # every quadrilateral with entries 0..8
    seen = set()
    for alpha in itertools.product(range(9), repeat=4):
        if not pg.is_feasible_lengths(alpha):
            with pytest.raises(EmptyPolytope):
                pt.quad_interval(alpha)
            with pytest.raises(EmptyPolytope):
                pt.even_step_polytope(alpha)
            continue
        generic = _box_corner_generic(_even_box(alpha))
        assert pg.is_generic_lengths(alpha) == generic, alpha
        assert pt.quad_interval(alpha)["generic"] == generic, alpha
        assert pt.even_step_polytope(alpha).generic == generic, alpha
        # at m = 4 the pairing tree is the fan
        assert (pt.even_step_polytope(alpha).vertices()
                == pt.diag_slice(alpha).vertices()), alpha
        seen.add(generic)
    assert seen == {True, False}


def test_even_step_matches_box_oracles(rng):
    seen = set()
    for m in (5, 6):
        for trial in range(150):
            alpha = [int(n) for n in rng.integers(0, 7, size=m)]
            if trial % 3 == 0:
                # one side near the sum of the others: under, on or over
                k = int(rng.integers(0, m))
                alpha[k] = max(sum(alpha) - alpha[k]
                               + int(rng.integers(-1, 2)), 0)
            alpha = tuple(alpha)
            feasible = pg.is_feasible_lengths(alpha)
            assert bool(_even_box_cone(alpha).vertices()) == feasible, alpha
            if not feasible:
                with pytest.raises(EmptyPolytope):
                    pt.even_step_polytope(alpha)
                seen.add("empty")
                continue
            generic = _box_corner_generic(_even_box(alpha))
            assert pt.even_step_polytope(alpha).generic == generic, alpha
            assert pg.is_generic_lengths(alpha) == generic, alpha
            seen.add(generic)
    assert seen == {True, False, "empty"}


def _sides(poly):
    """The side count of a full-dimensional polygon."""
    assert poly.dim == 2 and poly.is_full_dimensional()
    return poly.facet_count()


def test_pentagon_table_examples():
    assert _sides(pt.diag_slice((2, 1, 5, 1, 2))) == 3
    assert _sides(pt.diag_slice((3, 2, 5, 1, 2))) == 4
    assert _sides(pt.diag_slice((3, 1, 3, 1, 3))) == 4
    assert _sides(pt.diag_slice((2, 1, 3, 1, 2))) == 5
    assert _sides(pt.diag_slice((4, 2, 2, 2, 4))) == 6
    assert _sides(pt.diag_slice((4, 3, 4, 3, 4))) == 7


def test_pentagon_side_bound(rng):
    for _ in range(50):
        alpha = tuple(F(int(n)) for n in rng.integers(1, 12, size=5))
        try:
            poly = pt.diag_slice(alpha)
        except EmptyPolytope:
            continue
        if poly.is_full_dimensional():
            assert 3 <= poly.facet_count() <= 7


def test_pentagon_generic():
    for generic_of in (pg.is_generic_lengths, _pentagon_box_generic,
                       lambda alpha: pt.diag_slice(alpha).generic):
        assert generic_of((2, 1, 5, 1, 2))
        # the box corner (0, 2) of (1, 1, 2, 1, 1) lies on y - x = 2
        assert generic_of((1, 1, 2, 1, 1)) is False
        # the box corner (6, 4) of (5, 1, 2, 1, 3) lies on x - y = 2
        assert not generic_of((5, 1, 2, 1, 3))


def test_non_generic_pentagon_is_rejected():
    # 4 - 2 + 4 - 2 - 4 = 0: these lengths sit on a wall, and the box
    # corner (6, 2) lies on the line x - y = 4
    with pytest.raises(Infeasible, match="lie on a wall"):
        pt.classify_pentagon((4, 2, 4, 2, 4))
    assert pt.diag_slice((4, 2, 4, 2, 4)).generic is False
    assert _sides(pt.diag_slice((4, 2, 4, 2, 4))) == 4


def test_classify_pentagon_rows():
    r = pt.classify_pentagon((2, 1, 5, 1, 2))
    assert (r["sides"], r["row"], r["euler_planar"]) == (3, "3", 1)
    assert r["labels"]["spatial_rotation"] == "CP^2"
    r = pt.classify_pentagon((3, 2, 5, 1, 2))
    assert (r["row"], r["labels"]["planar"]) == ("4a", "Klein bottle")
    assert not r["orientable"]
    r = pt.classify_pentagon((3, 1, 3, 1, 3))
    assert (r["row"], r["orientable"]) == ("4b", True)
    r = pt.classify_pentagon((4, 2, 2, 2, 4))
    assert (r["sides"], r["euler_planar"],
            r["labels"]["planar_rotation"]) == (6, -2, "Sigma_3")


def test_genus_consistency():
    # the surface label Sigma_g must satisfy 2 - 2g = 2 * euler_planar
    for alpha in [(2, 1, 3, 1, 2), (4, 2, 2, 2, 4), (4, 3, 4, 3, 4)]:
        r = pt.classify_pentagon(alpha)
        g = (2 - 2 * r["euler_planar"]) // 2
        assert r["labels"]["planar_rotation"] == f"Sigma_{g}"


def test_quad_interval():
    r = pt.quad_interval((1, 2, 3, 5))
    assert r["interval"] == [2, 3]
    assert r["label_planar"] == "S^1"
    assert r["generic"]
    r = pt.quad_interval((1, 2, 3, 4))
    assert r["interval"] == [1, 3]
    assert not r["generic"]  # boundaries meet at 1
    r = pt.quad_interval((1, 10, 4, 5))
    assert not r["generic"]
    with pytest.raises(EmptyPolytope):
        pt.quad_interval((1, 1, 1, 10))


def test_quad_nested_intervals():
    r = pt.quad_interval((1, 1, 1, 1))
    assert r["interval"] == [0, 2]
    assert r["label_planar"] == "S^1 u S^1"
    assert r["diagonal_can_vanish"]


def test_dh_interval_equality():
    assert pt.dh_interval_equality((1, 1, 1, 1)) == (2, 2)
    l1, l2 = pt.dh_interval_equality((1, 2, 3, 5))
    assert l1 == l2


@given(st.tuples(*[st.integers(min_value=1, max_value=30)] * 4))
def test_dh_equality_property(nums):
    alpha = tuple(F(n) for n in nums)
    try:
        l1, l2 = pt.dh_interval_equality(alpha)
    except EmptyPolytope:
        return
    assert l1 == l2


def test_hexagon_box_inside_cone():
    poly = pt.even_step_polytope((4, 1, 4, 1, 4, 1))
    assert poly.facet_count() == 6
    assert poly.generic
    assert len(poly.vertices()) == 8


def test_hexagon_regular_not_generic():
    poly = pt.even_step_polytope((1, 1, 1, 1, 1, 1))
    assert poly.generic is False


def test_hexagon_facet_bound(rng):
    seen = set()
    for _ in range(60):
        alpha = tuple(F(int(n)) for n in rng.integers(1, 10, size=6))
        try:
            poly = pt.even_step_polytope(alpha)
            count = poly.facet_count()
        except EmptyPolytope:
            continue
        assert count <= 9
        seen.add(count)
    assert max(seen) > 6  # the cone does cut some boxes


def test_hexagon_one_cut():
    # box [3,5] x [3,5] x [5,7]: only z <= x + y cuts, at one corner
    poly = pt.even_step_polytope((4, 1, 4, 1, 6, 1))
    assert poly.facet_count() == 7
    assert poly.generic


def test_even_step_polytope_m4():
    poly = pt.even_step_polytope((1, 2, 3, 5))
    lo, hi = pt.quad_interval((1, 2, 3, 5))["interval"]
    assert poly.vertices() == ((lo,), (hi,))


def test_even_step_polytope_m5():
    poly = pt.even_step_polytope((2, 1, 5, 1, 2))
    assert poly.dim == 2
    assert poly.vertices()
    # the slice sits at x3 = alpha_5 = 2
    assert all(_slack(h, v) >= 0
               for h in _rational_rows(poly) for v in poly.vertices())


def test_vertices_satisfy_halfspaces():
    poly = pt.diag_slice((2, 1, 3, 1, 2))
    rows = _rational_rows(poly)
    for v in poly.vertices():
        assert all(_slack(h, v) >= 0 for h in rows)
        tight = sum(1 for h in rows if _slack(h, v) == 0)
        assert tight >= 2


def test_count_sides_simple_shapes():
    one = F(1)
    square = _polytope(
        ("x", "y"),
        (((-one, F(0)), F(0)), ((one, F(0)), one),
         ((F(0), -one), F(0)), ((F(0), one), one)),
    )
    assert _sides(square) == 4
    triangle = _polytope(
        ("x", "y"),
        (((-one, F(0)), F(0)), ((F(0), -one), F(0)),
         ((one, one), one)),
    )
    assert _sides(triangle) == 3


def test_count_sides_degenerate():
    one = F(1)
    segment = _polytope(
        ("x", "y"),
        (((-one, F(0)), F(0)), ((one, F(0)), one),
         ((F(0), -one), F(0)), ((F(0), one), F(0))),
    )
    assert segment.vertices() == ((0, 0), (1, 0))
    assert not segment.is_full_dimensional()


def test_rejects_floats():
    with pytest.raises(TypeError):
        pt.diag_slice((1.0, 2.0, 3.0, 4.0))
    with pytest.raises(TypeError):
        pt.quad_interval((0.5, 0.5, 0.5, 0.5))


def _outcome(check, alpha):
    """check(alpha), or the class of the error it raises."""
    try:
        return check(alpha)
    except (EmptyPolytope, Infeasible) as exc:
        return type(exc)


LENGTH = st.fractions(min_value=0, max_value=5, max_denominator=12)


# pentagons, for the classify row, about half the time
@given(st.lists(LENGTH, min_size=3, max_size=8)
       | st.lists(LENGTH, min_size=5, max_size=5))
def test_checks_answer_alike_on_the_integer_vector(alpha):
    # every check is scale-free, so the exact functions may ask it of the
    # integer vector ints = alpha * den instead of alpha
    _, ints = pg.integer_lengths(alpha)
    checks = [pg.is_feasible_lengths, pg.is_generic_lengths,
              pg.enumerate_lined]
    if len(alpha) == 5:
        checks.append(pt.classify_pentagon)
    for check in checks:
        assert _outcome(check, ints) == _outcome(check, alpha), check


def test_json_round_trip():
    doc = pt.diag_slice((2, 1, 5, 1, 2)).to_json_dict()
    assert doc["variables"] == ["d2", "d3"]
    assert doc["facets"] == 3
    assert doc["generic"] is True
    assert all(isinstance(c, str) for v in doc["vertices"] for c in v)


def _random_system(rng, n, flat):
    """A box around the origin in n variables cut by random rational rows.

    With ``flat`` the polytope is lower-dimensional: one box side has zero
    width, or a row through the origin is paired with its negation.  One
    row gets two parallel copies, at an equal and at a looser offset.
    """
    def frac(lo, hi):
        return F(int(rng.integers(lo, hi)), int(rng.integers(1, 4)))

    pinned = flat and rng.random() < 0.5
    rows = []
    for i in range(n):
        axis = tuple(F(int(j == i)) for j in range(n))
        lo = frac(-3, 1)
        hi = lo if pinned and i == 0 else frac(0, 4)
        rows += [(tuple(-c for c in axis), -lo), (axis, hi)]
    for _ in range(int(rng.integers(0, 5))):
        normal = tuple(frac(-3, 4) for _ in range(n))
        if any(normal):
            rows.append((normal, frac(-2, 6)))
    if flat and not pinned:
        normal = tuple(F(int(c)) for c in rng.choice([-2, -1, 1, 2], size=n))
        rows += [(normal, 0), (tuple(-c for c in normal), 0)]
    if rows:
        # an integer step keeps the row's scaling, hence its integer normal
        normal, offset = rows[int(rng.integers(len(rows)))]
        rows += [(normal, offset), (normal, offset + int(rng.integers(1, 3)))]
    order = rng.permutation(len(rows))
    return _polytope(tuple(f"x{i}" for i in range(n)),
                     tuple(rows[k] for k in order))


def _seeded_polytopes(rng):
    for m in range(3, 7):
        for _ in range(25):
            nums, dens = rng.integers(1, 13, size=m), rng.integers(1, 4, size=m)
            alpha = [F(int(n), int(d)) for n, d in zip(nums, dens)]
            if pg.is_feasible_lengths(alpha):
                yield pt.diag_slice(alpha)
    for m in range(4, 7):
        for _ in range(25):
            alpha = [int(n) for n in rng.integers(1, 10, size=m)]
            if pg.is_feasible_lengths(alpha):
                yield pt.even_step_polytope(alpha)
    for n in range(4):
        for trial in range(40):
            yield _random_system(rng, n, flat=trial % 2 == 1)


def test_incidence_table_matches_elimination_oracle(rng):
    seen = set()
    for poly in _seeded_polytopes(rng):
        verts = _oracle_vertices(poly)
        full = _affinely_independent_count(verts, poly.dim) == poly.dim + 1
        assert poly.vertices() == verts, poly
        assert poly.is_full_dimensional() == full, poly
        doc = poly.to_json_dict()
        assert doc["vertices"] == [[str(c) for c in v] for v in verts]
        if verts:
            facets = _oracle_facet_count(poly, verts)
            assert poly.facet_count() == facets == doc["facets"], poly
        else:
            assert doc["facets"] == 0
        seen.add((poly.dim, bool(verts), full))
    # every dimension, full and flat nonempty polytopes, and empty ones
    assert {(n, True, full) for n in (1, 2, 3)
            for full in (True, False)} <= seen
    assert (0, True, True) in seen
    assert {(n, False, False) for n in (1, 2, 3)} <= seen


# Test-only oracle: the determinant that Cramer's rule read, as it was when
# the package solved each subset of normals with four of them.
def _det(rows) -> int:
    """Determinant of a square integer matrix of size at most 3."""
    if len(rows) == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    return rows[0][0] if rows else 1


def _cramer(combo):
    """(det, numerators) by Cramer's rule: numerator j swaps in column j."""
    return (_det([a for a, _ in combo]),
            tuple(_det([a[:j] + (b,) + a[j + 1:] for a, b in combo])
                  for j in range(len(combo))))


def test_adjugate_solve_is_cramer(rng):
    singular = 0
    for n in range(4):
        for _ in range(60):
            rows = [(tuple(int(c) for c in rng.integers(-3, 4, size=n)),
                     int(rng.integers(-20, 21))) for _ in range(5)]
            # a repeated normal and a zero normal: singular subsets
            rows += [(rows[0][0], rows[0][1] + 1), ((0,) * n, 1)]
            for combo in itertools.combinations(rows, n):
                assert pt._solve(combo) == _cramer(combo), combo
                singular += _cramer(combo)[0] == 0
    assert singular > 100


# Test-only oracle: RationalPolytope._incidence as it was when each row's
# slack was a generator sum over zip(normal, numerators) and each vertex
# was keyed by its Fraction tuple.
def _generator_incidence(poly):
    rows, n = poly.rows, poly.dim
    tightest = {}
    for a, b in rows:
        tightest[a] = min(b, tightest.get(a, b))
    found = {}
    for combo in itertools.combinations(tightest.items(), n):
        det = _det([a for a, _ in combo])
        if det == 0:
            continue
        num = [_det([a[:j] + (b,) + a[j + 1:] for a, b in combo])
               for j in range(n)]
        if det < 0:
            det, num = -det, [-c for c in num]
        tight = []
        for k, (a, b) in enumerate(rows):
            slack = b * det - sum(c * x for c, x in zip(a, num))
            if slack < 0:
                break
            if slack == 0:
                tight.append(k)
        else:
            found[tuple(F(c, det * poly.den) for c in num)] = frozenset(tight)
    return dict(sorted(found.items()))


def _oracle_lengths(rng):
    """Feasible lengths for m = 3..6: random generic ones, random ones on
    a wall (a signed sum set to vanish), and the box {1..3}^m, m <= 5,
    with {1, 2}^6."""
    for m in range(3, 7):
        for _ in range(12):
            alpha = [F(int(n), int(d)) for n, d in
                     zip(rng.integers(1, 13, size=m), rng.integers(1, 4, size=m))]
            if pg.is_generic_lengths(alpha):
                yield alpha
            signs = rng.choice([-1, 1], size=m - 1)
            last = abs(sum(int(s) * a for s, a in zip(signs, alpha)))
            if last:
                yield alpha[:-1] + [last]
        yield from itertools.product(range(1, 4 if m < 6 else 3), repeat=m)


def test_incidence_table_matches_generator_oracle(rng):
    systems, walls = 0, 0
    for alpha in _oracle_lengths(rng):
        if not pg.is_feasible_lengths(alpha):
            continue
        walls += not pg.is_generic_lengths(alpha)
        builders = (pt.diag_slice,) + ((pt.even_step_polytope,)
                                       if len(alpha) > 3 else ())
        for build in builders:
            poly = build(alpha)
            oracle = _generator_incidence(poly)
            assert poly.vertices() == tuple(oracle), alpha
            assert list(poly._incidence.values()) == list(oracle.values())
            # each key is the vertex's numerators and det > 0, in lowest terms
            for key, vertex in zip(poly._incidence, oracle):
                assert key[-1] > 0 and math.gcd(*key) == 1, key
                assert vertex == tuple(F(c, key[-1] * poly.den)
                                       for c in key[:-1]), key
            systems += 1
    assert systems > 900 and walls > 100


@given(st.integers(), st.integers(min_value=1))
def test_ratio_is_the_string_of_its_fraction(n, d):
    assert pt._ratio(n, d) == str(F(n, d))


def test_written_vertices_are_the_strings_of_the_vertices(rng, capsys):
    # the JSON and CSV vertices, written from the integer keys, on the
    # draws of the generator oracle: both systems, m = 3..6, walls included
    systems = 0
    for alpha in _oracle_lengths(rng):
        if not pg.is_feasible_lengths(alpha):
            continue
        for system, build in (("diag", pt.diag_slice),
                              ("even", pt.even_step_polytope)):
            if system == "even" and len(alpha) == 3:
                continue
            strings = [[str(c) for c in v] for v in build(alpha).vertices()]
            argv = ["polytope", "--alpha", ",".join(map(str, alpha)),
                    "--system", system]
            assert cli.main(argv) == 0
            assert json.loads(capsys.readouterr().out)["vertices"] == strings
            assert cli.main(argv + ["--format", "csv"]) == 0
            rows = capsys.readouterr().out.splitlines()[1:]
            assert [row.split(",")[1:] for row in rows] == [
                v or [""] for v in strings], alpha
            systems += 1
    assert systems > 900


# Test-only oracle: the Fraction row builders of diag_slice and
# even_step_polytope that the integer rows over one denominator replaced.
# The even-step one is the box and cone that the pairing tree's triangle
# rows replaced, so only its halfspaces differ.

def _fraction_diag_rows(alpha):
    m = len(alpha)
    n = m - 3
    zero = F(0)
    fixed = {0: zero, 1: alpha[0], m - 1: alpha[m - 1], m: zero}
    rows = []
    for i in range(m):
        for _, (s_i, s_j, s_a) in pt.TRIANGLE_SIGNS:
            normal = [zero] * n
            offset = s_a * alpha[i]
            for j, s in ((i, s_i), (i + 1, s_j)):
                if j in fixed:
                    offset += s * fixed[j]
                else:
                    normal[j - 2] = F(-s)
            if any(normal):
                rows.append((tuple(normal), offset))
    return tuple(f"d{k}" for k in range(2, m - 1)), rows


def _fraction_even_rows(alpha):
    m = len(alpha)
    one, zero = F(1), F(0)
    if m == 4:
        lo, hi = pt.quad_interval(alpha)["interval"]
        return ("x1",), [((-one,), -lo), ((one,), hi)]
    n = (m + 1) // 2
    fixed_last = alpha[-1] if m % 2 == 1 else None
    free = n - 1 if fixed_last is not None else n
    rows = []
    for i in range(free):
        lo, hi = _pair(alpha[2 * i], alpha[2 * i + 1])
        axis = [zero] * free
        axis[i] = one
        rows += [(tuple(-c for c in axis), -lo), (tuple(axis), hi)]
    for i in range(n):
        normal = [-one] * n
        normal[i] = one
        axis = [zero] * n
        axis[i] = -one
        for row in ((tuple(normal), zero), (tuple(axis), zero)):
            if fixed_last is None:
                rows.append(row)
            elif any(row[0][:free]):
                rows.append((row[0][:free], row[1] - row[0][-1] * fixed_last))
    return tuple(f"x{i+1}" for i in range(free)), rows


def _fraction_json(variables, rows, generic):
    """The JSON of the rational rows; the vertices and facets come from
    the rows scaled one by one."""
    poly = _polytope(variables, rows, generic)
    doc = {"variables": list(variables),
           "halfspaces": [{"normal": [str(c) for c in normal],
                           "offset": str(offset)} for normal, offset in rows]}
    if poly.dim <= 3:
        verts = poly.vertices()
        doc["vertices"] = [[str(c) for c in v] for v in verts]
        doc["facets"] = poly.facet_count() if verts else 0
    doc["generic"] = generic
    return doc


def test_integer_rows_match_fraction_builders(rng):
    cases = list(itertools.product(range(1, 4), repeat=4))
    cases += itertools.product(range(1, 4), repeat=5)
    for m in range(4, 9):
        for _ in range(30):
            nums, dens = rng.integers(1, 13, size=m), rng.integers(1, 8, size=m)
            cases.append(tuple(F(int(n), int(d)) for n, d in zip(nums, dens)))
    seen = set()
    for alpha in cases:
        alpha = tuple(map(F, alpha))
        builders = [(pt.diag_slice, _fraction_diag_rows)]
        if len(alpha) <= 6:
            builders.append((pt.even_step_polytope, _fraction_even_rows))
        for build, fraction_rows in builders:
            if not pg.is_feasible_lengths(alpha):
                with pytest.raises(EmptyPolytope):
                    build(alpha)
                seen.add("empty")
                continue
            want = _fraction_json(*fraction_rows(alpha),
                                  pg.is_generic_lengths(alpha))
            poly = build(alpha)
            doc = poly.to_json_dict()
            if build is pt.even_step_polytope:
                del doc["halfspaces"], want["halfspaces"]
            assert doc == want, (build.__name__, alpha)
            seen.add((len(alpha), poly.den > 1, "vertices" in want))
    assert "empty" in seen
    assert {(m, True, m <= 6) for m in range(4, 9)} <= seen
    assert (5, False, True) in seen


def test_zero_normal_row_is_not_a_facet():
    one, zero = F(1), F(0)
    square = (((-one, zero), zero), ((one, zero), one),
              ((zero, -one), zero), ((zero, one), one))
    for offset in (zero, one):
        poly = _polytope(("x", "y"), square + (((zero, zero), offset),))
        assert _sides(poly) == 4
    rows = (((-one,), one), ((one,), one), ((zero,), zero))
    interval = _polytope(("x",), rows)
    assert interval.vertices() == ((-1,), (1,))
    assert interval.facet_count() == 2
    assert interval.to_json_dict()["facets"] == 2
    # an unsatisfiable zero row empties the polytope
    empty = _polytope(("x",), rows + (((zero,), -one),))
    assert empty.vertices() == ()
    with pytest.raises(EmptyPolytope):
        empty.facet_count()


def _euler_characteristic(alpha):
    """chi(M_alpha) = sum over short J containing m of (m - 2|J|).

    The Poincare polynomial of Klyachko and Hausmann-Knutson at t = -1.
    """
    m, total = len(alpha), sum(alpha)
    return sum(m - 2 * (len(rest) + 1)
               for r in range(m)
               for rest in itertools.combinations(alpha[:-1], r)
               if 2 * (sum(rest) + alpha[-1]) < total)


@pytest.mark.parametrize("m, top, checked", [(5, 5, 1292), (6, 3, 40)])
def test_vertex_count_is_euler_characteristic(m, top, checked):
    # every feasible generic vector in {1..top}^m whose diagonal polytope
    # has no vertex on a coordinate hyperplane (d_j = 0 breaks the count)
    count = 0
    for alpha in itertools.product(range(1, top + 1), repeat=m):
        if not (pg.is_feasible_lengths(alpha)
                and pg.is_generic_lengths(alpha)):
            continue
        verts = pt.diag_slice(alpha).vertices()
        if any(c == 0 for v in verts for c in v):
            continue
        assert len(verts) == _euler_characteristic(alpha), alpha
        count += 1
    assert count == checked


def _classify_or_error(alpha):
    try:
        return pt.classify_pentagon(alpha)
    except Infeasible as exc:
        return type(exc), str(exc)


def test_classify_pentagon_is_permutation_invariant():
    # M_alpha depends only on the multiset of the lengths
    multisets = list(itertools.combinations_with_replacement(range(1, 7), 5))
    for multiset in multisets:
        want = _classify_or_error(multiset)
        for alpha in set(itertools.permutations(multiset)):
            assert _classify_or_error(alpha) == want, alpha
    assert len(multisets) == 252


def test_classify_pentagon_row_is_euler_characteristic():
    checked = 0
    for alpha in itertools.product(range(1, 7), repeat=5):
        if not (pg.is_feasible_lengths(alpha)
                and pg.is_generic_lengths(alpha)):
            continue
        r = pt.classify_pentagon(alpha)
        chi = _euler_characteristic(alpha)
        assert (r["sides"], int(r["row"][0]), r["euler_planar"]) == (
            chi, chi, 4 - chi), alpha
        checked += 1
    assert checked == 4536


@pytest.mark.parametrize("alpha, row", [
    ((1, 1, 1, 1, 1), "7"), ((5, 5, 10, 6, 5), "6"),
    ((1, 1, 2, 2, 1), "6"), ((1, 1, 1, 5, 5), "6"),
])
def test_axis_pentagon_rows(alpha, row):
    # the (d_2, d_3) polygon reaches an axis, so its side count is not chi
    r = pt.classify_pentagon(alpha)
    assert (r["row"], r["sides"]) == (row, _euler_characteristic(alpha))


@functools.cache
def _off_axis_pentagons(top):
    """(alpha, diag_slice) for generic feasible alpha in {1..top}^5 with
    alpha_1 != alpha_2 and alpha_4 != alpha_5.  Then d_2, d_3 > 0 on the
    polygon, so both bending flows are defined on all of M_alpha and the
    polygon is its moment polygon."""
    return [(alpha, pt.diag_slice(alpha))
            for alpha in itertools.product(range(1, top + 1), repeat=5)
            if alpha[0] != alpha[1] and alpha[3] != alpha[4]
            and pg.is_feasible_lengths(alpha)
            and pg.is_generic_lengths(alpha)]


def _hirzebruch_parity(poly):
    """k mod 2 for a quadrilateral with primitive inward normals n_1..n_4
    in cyclic order, n_3 = -n_1 and n_4 = -n_2 + k n_1: the Hirzebruch
    surface F_k is S^2 x S^2 for even k and CP^2 # CP^2-bar for odd k."""
    verts = poly.vertices()
    edges = {}
    for normal, offset in _rational_rows(poly):
        tight = frozenset(v for v in verts if _slack((normal, offset), v) == 0)
        if len(tight) == 2:
            g = math.gcd(*(int(c) for c in normal))
            edges[tight] = tuple(-int(c) // g for c in normal)
    normals = sorted(edges.values(), key=lambda n: math.atan2(n[1], n[0]))
    assert len(normals) == 4
    for i in range(4):
        a, b = normals[i], normals[(i + 1) % 4]
        assert abs(a[0] * b[1] - a[1] * b[0]) == 1   # a smooth corner
    for i in range(4):
        n1, n2, n3, n4 = (normals[(i + j) % 4] for j in range(4))
        if n3 == (-n1[0], -n1[1]):
            s = (n2[0] + n4[0], n2[1] + n4[1])
            k = s[0] // n1[0] if n1[0] else s[1] // n1[1]
            assert (k * n1[0], k * n1[1]) == s
            return k % 2
    raise AssertionError("no two opposite edges are parallel")


def test_four_sided_rows_follow_hirzebruch_parity():
    checked = 0
    for alpha, poly in _off_axis_pentagons(6):
        if _sides(poly) != 4:
            continue
        want = "4b" if _hirzebruch_parity(poly) == 0 else "4a"
        assert pt.classify_pentagon(alpha)["row"] == want, alpha
        checked += 1
    assert checked == 780


def test_side_count_is_classify_sides_off_the_axes():
    for alpha, poly in _off_axis_pentagons(6):
        assert _sides(poly) == pt.classify_pentagon(alpha)["sides"], alpha
