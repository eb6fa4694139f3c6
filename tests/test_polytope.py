"""Exact polytopes: hypersimplex, diagonal slices, classification tables."""

import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from polyspace import polygon as pg
from polyspace import polytope as pt
from polyspace.errors import Degenerate, EmptyPolytope, NonGeneric


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
    halfspaces = (
        pt.Halfspace((-1, 0), -x_lo), pt.Halfspace((1, 0), x_hi),
        pt.Halfspace((0, -1), -y_lo), pt.Halfspace((0, 1), y_hi),
        pt.Halfspace((-1, -1), -a3),  # x + y >= a3
        pt.Halfspace((1, -1), a3),    # x - y <= a3
        pt.Halfspace((-1, 1), a3),    # y - x <= a3
        pt.Halfspace((-1, 0), 0), pt.Halfspace((0, -1), 0),
    )
    return pt.RationalPolytope(("d2", "d3"), halfspaces)


def _even_box_cone(alpha):
    """The even-step box cut by the cone x_i <= sum of the others."""
    box = _even_box(alpha)
    n = len(box)
    halfspaces = []
    for i, (lo, hi) in enumerate(box):
        axis = tuple(int(j == i) for j in range(n))
        halfspaces += [pt.Halfspace(tuple(-c for c in axis), -lo),
                       pt.Halfspace(axis, hi),
                       pt.Halfspace(tuple(2 * c - 1 for c in axis), 0)]
    return pt.RationalPolytope(tuple(f"x{i + 1}" for i in range(n)),
                               halfspaces)


# Test-only oracle: the Fraction elimination and the affine-rank facet
# rule that the integer incidence table of RationalPolytope replaced.

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


def _canonical_boundary(h):
    """Scale-invariant key for the hyperplane normal . x = offset."""
    lead = next((c for c in h.normal if c != 0), None)
    if lead is None:
        return None
    return (tuple(c / lead for c in h.normal), h.offset / lead)


def _oracle_vertices(poly):
    found = set()
    for combo in itertools.combinations(poly.halfspaces, poly.dim):
        point = _solve_square([h.normal for h in combo],
                              [h.offset for h in combo])
        if point is not None and all(h.holds(point) for h in poly.halfspaces):
            found.add(point)
    return tuple(sorted(found))


def _oracle_facet_count(poly, verts):
    """Distinct hyperplanes holding dim affinely independent vertices."""
    if poly.dim == 0:
        return 0
    faces = set()
    for h in poly.halfspaces:
        on = [v for v in verts if h.slack(v) == 0]
        if _affinely_independent_count(on, poly.dim) >= poly.dim:
            faces.add(_canonical_boundary(h))
    return len(faces)


def test_hypersimplex_membership():
    xi3 = pt.hypersimplex(3)
    assert xi3.contains((F(2, 3), F(2, 3), F(2, 3)))
    assert xi3.contains((1, 1, 0))
    assert not xi3.contains((F(3, 2), F(1, 2), 0))
    assert not xi3.contains((F(1, 2), F(1, 2), F(1, 2)))


def test_in_hypersimplex_matches_polytope(rng):
    seen = set()
    for m in range(3, 9):
        xi = pt.hypersimplex(m)
        for _ in range(40):
            den = int(rng.integers(1, 5))
            alpha = tuple(F(int(n), den) for n in rng.integers(0, 5, size=m))
            if rng.random() < 0.5 and sum(alpha):
                alpha = tuple(2 * a / sum(alpha) for a in alpha)
            inside = pt.in_hypersimplex(alpha)
            assert inside == xi.contains(alpha), alpha
            seen.add(inside)
    assert seen == {True, False}


def test_gc_membership_square():
    ell = (F(1, 2),) * 4
    good = pt.gc_membership(ell, (F(1, 2), F(7, 10), F(1, 2), 0))
    assert good.ok
    # the first and last steps are forced boundaries (d1 = l1, d0 = 0)
    assert good.min_slack == 0
    interior = [s for i, _, s in good.slacks if 0 < i < 3]
    assert min(interior) > 0
    bad = pt.gc_membership(ell, (F(1, 2), F(3, 2), F(1, 2), 0))
    assert not bad.ok
    assert any(name == "C" for _, name, _ in bad.failures)


def test_gc_membership_boundary():
    report = pt.gc_membership((1, 1, 0), (1, 0, 0), require_perimeter=True)
    assert report.ok
    assert report.min_slack == 0


def test_gc_membership_perimeter_flag():
    ell = (3, 4, 5)
    d = (3, 5, 0)
    assert not pt.gc_membership(ell, d).ok
    assert pt.gc_membership(ell, d, require_perimeter=False).ok


def test_diag_slice_quadrilateral():
    poly = pt.diag_slice((1, 2, 3, 4))
    assert poly.interval() == (1, 3)


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
            assert pt.count_sides(poly) == pt.count_sides(oracle), alpha


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
        assert pt.quad_interval(alpha).generic == generic, alpha
        assert pt.even_step_polytope(alpha).generic == generic, alpha
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


def test_pentagon_table_examples():
    assert pt.count_sides(pt.diag_slice((2, 1, 5, 1, 2))) == 3
    assert pt.count_sides(pt.diag_slice((3, 2, 5, 1, 2))) == 4
    assert pt.count_sides(pt.diag_slice((3, 1, 3, 1, 3))) == 4
    assert pt.count_sides(pt.diag_slice((2, 1, 3, 1, 2))) == 5
    assert pt.count_sides(pt.diag_slice((4, 2, 2, 2, 4))) == 6
    assert pt.count_sides(pt.diag_slice((4, 3, 4, 3, 4))) == 7


def test_pentagon_side_bound(rng):
    for _ in range(50):
        alpha = tuple(F(int(n)) for n in rng.integers(1, 12, size=5))
        try:
            poly = pt.diag_slice(alpha)
            sides = pt.count_sides(poly)
        except (EmptyPolytope, Degenerate):
            continue
        assert 3 <= sides <= 7


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
    with pytest.raises(NonGeneric):
        pt.classify_pentagon((4, 2, 4, 2, 4))
    assert pt.diag_slice((4, 2, 4, 2, 4)).generic is False
    assert pt.count_sides(pt.diag_slice((4, 2, 4, 2, 4))) == 4


def test_classify_pentagon_rows():
    r = pt.classify_pentagon((2, 1, 5, 1, 2))
    assert (r.sides, r.row, r.euler_planar) == (3, "3", 1)
    assert r.label_space == "CP^2"
    r = pt.classify_pentagon((3, 2, 5, 1, 2))
    assert (r.row, r.label_planar) == ("4a", "Klein bottle")
    assert not r.orientable
    r = pt.classify_pentagon((3, 1, 3, 1, 3))
    assert (r.row, r.orientable) == ("4b", True)
    r = pt.classify_pentagon((4, 2, 2, 2, 4))
    assert (r.sides, r.euler_planar, r.label_planar_rotation) == (
        6, -2, "Sigma_3")


def test_genus_consistency():
    # the surface label Sigma_g must satisfy 2 - 2g = 2 * euler_planar
    for alpha in [(2, 1, 3, 1, 2), (4, 2, 2, 2, 4), (4, 3, 4, 3, 4)]:
        r = pt.classify_pentagon(alpha)
        g = (2 - 2 * r.euler_planar) // 2
        assert r.label_planar_rotation == f"Sigma_{g}"


def test_quad_interval():
    r = pt.quad_interval((1, 2, 3, 5))
    assert r.interval == (2, 3)
    assert r.label_planar == "S^1"
    assert r.generic
    r = pt.quad_interval((1, 2, 3, 4))
    assert r.interval == (1, 3)
    assert not r.generic  # boundaries meet at 1
    r = pt.quad_interval((1, 10, 4, 5))
    assert not r.generic
    with pytest.raises(EmptyPolytope):
        pt.quad_interval((1, 1, 1, 10))


def test_quad_nested_intervals():
    r = pt.quad_interval((1, 1, 1, 1))
    assert r.interval == (0, 2)
    assert r.label_planar == "S^1 u S^1"
    assert r.diagonal_can_vanish


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
    assert poly.interval() == pt.quad_interval((1, 2, 3, 5)).interval


def test_even_step_polytope_m5():
    poly = pt.even_step_polytope((2, 1, 5, 1, 2))
    assert poly.dim == 2
    assert poly.vertices()
    # the slice sits at x3 = alpha_5 = 2
    assert all(h.holds(v) for h in poly.halfspaces for v in poly.vertices())


def test_vertices_satisfy_halfspaces():
    poly = pt.diag_slice((2, 1, 3, 1, 2))
    for v in poly.vertices():
        assert poly.contains(v)
        tight = sum(1 for h in poly.halfspaces if h.slack(v) == 0)
        assert tight >= 2


def test_count_sides_simple_shapes():
    one = F(1)
    square = pt.RationalPolytope(
        ("x", "y"),
        (pt.Halfspace((-one, F(0)), F(0)), pt.Halfspace((one, F(0)), one),
         pt.Halfspace((F(0), -one), F(0)), pt.Halfspace((F(0), one), one)),
    )
    assert pt.count_sides(square) == 4
    triangle = pt.RationalPolytope(
        ("x", "y"),
        (pt.Halfspace((-one, F(0)), F(0)), pt.Halfspace((F(0), -one), F(0)),
         pt.Halfspace((one, one), one)),
    )
    assert pt.count_sides(triangle) == 3


def test_count_sides_degenerate():
    one = F(1)
    segment = pt.RationalPolytope(
        ("x", "y"),
        (pt.Halfspace((-one, F(0)), F(0)), pt.Halfspace((one, F(0)), one),
         pt.Halfspace((F(0), -one), F(0)), pt.Halfspace((F(0), one), F(0))),
    )
    with pytest.raises(Degenerate):
        pt.count_sides(segment)


def test_rejects_floats():
    with pytest.raises(TypeError):
        pt.diag_slice((1.0, 2.0, 3.0, 4.0))
    with pytest.raises(TypeError):
        pt.quad_interval((0.5, 0.5, 0.5, 0.5))


def test_json_round_trip():
    doc = pt.diag_slice((2, 1, 5, 1, 2)).to_json_dict()
    assert doc["variables"] == ["d2", "d3"]
    assert doc["facets"] == 3
    assert doc["generic"] is True
    assert all(isinstance(c, str) for v in doc["vertices"] for c in v)


def _random_system(rng, n, flat):
    """A box around the origin in n variables cut by random rational rows.

    With ``flat`` the polytope is lower-dimensional: one box side has zero
    width, or a row through the origin is paired with its negation.
    """
    def frac(lo, hi):
        return F(int(rng.integers(lo, hi)), int(rng.integers(1, 4)))

    pinned = flat and rng.random() < 0.5
    rows = []
    for i in range(n):
        axis = tuple(F(int(j == i)) for j in range(n))
        lo = frac(-3, 1)
        hi = lo if pinned and i == 0 else frac(0, 4)
        rows += [pt.Halfspace(tuple(-c for c in axis), -lo),
                 pt.Halfspace(axis, hi)]
    for _ in range(int(rng.integers(0, 5))):
        normal = tuple(frac(-3, 4) for _ in range(n))
        if any(normal):
            rows.append(pt.Halfspace(normal, frac(-2, 6)))
    if flat and not pinned:
        normal = tuple(F(int(c)) for c in rng.choice([-2, -1, 1, 2], size=n))
        rows += [pt.Halfspace(normal, 0),
                 pt.Halfspace(tuple(-c for c in normal), 0)]
    order = rng.permutation(len(rows))
    return pt.RationalPolytope(tuple(f"x{i}" for i in range(n)),
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


def test_zero_normal_row_is_not_a_facet():
    one, zero = F(1), F(0)
    square = (pt.Halfspace((-one, zero), zero), pt.Halfspace((one, zero), one),
              pt.Halfspace((zero, -one), zero), pt.Halfspace((zero, one), one))
    for offset in (zero, one):
        poly = pt.RationalPolytope(
            ("x", "y"), square + (pt.Halfspace((zero, zero), offset),))
        assert poly.is_full_dimensional()
        assert pt.count_sides(poly) == 4
    interval = pt.RationalPolytope(
        ("x",), (pt.Halfspace((-one,), one), pt.Halfspace((one,), one),
                 pt.Halfspace((zero,), zero)))
    assert interval.vertices() == ((-1,), (1,))
    assert interval.facet_count() == 2
    assert interval.to_json_dict()["facets"] == 2
    # an unsatisfiable zero row empties the polytope
    empty = pt.RationalPolytope(("x",), interval.halfspaces
                                + (pt.Halfspace((zero,), -one),))
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
