"""Polygon data model: lengths, diagonals, strata, predicates."""

import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polyspace import polygon as pg
from polyspace.errors import InputError
from polyspace.polygon import Polygon

from conftest import random_rotation, reflect, rotated

SQUARE = Polygon(3, [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
DEGENERATE = Polygon(3, [[1, 0, 0], [-1, 0, 0], [0, 0, 0]])


def test_closure_and_perimeter():
    assert pg.closure_defect(SQUARE) == 0.0
    assert pg.perimeter(SQUARE) == 4.0
    assert pg.perimeter(DEGENERATE) == 2.0
    open_path = Polygon(3, [[1, 0, 0], [1, 0, 0], [-1, 0, 0]])
    assert pg.closure_defect(open_path) == 1.0


def test_side_lengths_and_diagonals():
    assert np.allclose(pg.side_lengths(SQUARE), [1, 1, 1, 1])
    assert np.allclose(pg.diagonals(SQUARE), [1, np.sqrt(2), 1, 0])
    assert np.allclose(pg.diagonals(DEGENERATE), [1, 0, 0])
    tri = Polygon(2, [[1, 0], [-0.5, np.sqrt(3) / 2], [-0.5, -np.sqrt(3) / 2]])
    assert np.allclose(pg.diagonals(tri), [1, 1, 0])


def test_diagonal_endpoint_identities(rng):
    for m in (4, 5, 7):
        edges = rng.standard_normal((m, 3))
        edges -= edges.mean(axis=0)
        p = Polygon(3, edges)
        d = pg.diagonals(p)
        ell = pg.side_lengths(p)
        assert d[0] == ell[0]
        assert d[m - 2] == pytest.approx(ell[m - 1], abs=1e-12)
        assert d[m - 1] < 1e-9 * pg.perimeter(p)


def test_norm_has_the_bits_of_numpy_norm(rng):
    # vectors and stacks of rows, at scales from the subnormal, where the
    # squares underflow, to where they overflow; at the ends the norms are
    # taken again at a power of 2 and match the reference taken at scale 1
    for scale, in_range in ((5e-324, False), (1e-160, False), (1.0, True),
                            (1e150, True), (1e307, False)):
        for shape in ((3,), (7, 2), (4, 9, 3)):
            x = rng.standard_normal(shape) * scale
            axis = None if len(shape) == 1 else -1
            with np.errstate(over="ignore", under="ignore"):
                want = np.linalg.norm(x, axis=axis)
            got = pg.norm(x, axis)   # no warning where it has an answer
            if in_range:
                assert np.array_equal(got, want)
            else:   # to within one ulp, or one step of the subnormal grid
                ref = np.linalg.norm(x / scale, axis=axis) * scale
                assert np.isfinite(got).all() and np.allclose(
                    got, ref, rtol=2.0 ** -52, atol=2.0 ** -1074)
    rows = np.array([[1e308, 0.0], [0.0, -1e308]])
    assert np.array_equal(pg.norm(rows, -1), [1e308, 1e308])
    # squares that all underflow; a zero row stays 0
    rows = np.array([[3e-170, 4e-170], [0.0, 0.0], [-5e-320, 0.0]])
    assert np.array_equal(pg.norm(rows, -1), [5e-170, 0.0, 5e-320])


def test_stratum_index():
    assert pg.stratum_index(SQUARE) == 4
    assert pg.stratum_index(DEGENERATE) == 2
    assert pg.stratum_index(Polygon(2, np.zeros((3, 2)))) == 0


def test_predicates():
    assert pg.is_proper(SQUARE)
    assert not pg.is_lined(SQUARE)
    assert pg.is_prodigal(SQUARE)
    assert not pg.is_proper(DEGENERATE)
    flat = Polygon(3, [[1, 0, 0], [-1, 0, 0], [1, 0, 0], [-1, 0, 0]])
    assert pg.is_lined(flat)
    assert not pg.is_prodigal(flat)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("predicate", [
    pg.stratum_index, pg.is_proper, pg.is_lined, pg.is_prodigal])
def test_predicates_refuse_an_edge_that_is_not_finite(predicate, bad):
    p = Polygon(3, [[1, 0, 0], [bad, 0, 0], [0, 0, 0]])
    with pytest.raises(InputError, match="edge that is not finite"):
        predicate(p)


def test_reflect():
    r = reflect(SQUARE)
    assert np.allclose(r.edges[:, 2], 0.0)
    assert np.allclose(reflect(r).edges, SQUARE.edges)
    assert np.allclose(pg.diagonals(r), pg.diagonals(SQUARE))
    with pytest.raises(InputError, match="reflection is the identity"):
        reflect(Polygon(1, [[1.0], [-1.0], [0.0]]))


def test_isometry_invariance(rng):
    p = Polygon(3, rng.standard_normal((6, 3)))
    rot = random_rotation(rng)
    q = rotated(p, rot)
    assert np.abs(pg.side_lengths(q) - pg.side_lengths(p)).max() < 1e-12
    assert np.abs(pg.diagonals(q) - pg.diagonals(p)).max() < 1e-12


def test_even_step():
    half = pg.even_step(SQUARE)
    assert half.m == 2
    assert np.allclose(half.edges, [[1, 1, 0], [-1, -1, 0]])
    assert np.allclose(pg.even_diagonals(SQUARE), [np.sqrt(2), np.sqrt(2)])


def test_even_step_odd_keeps_last_edge(rng):
    edges = rng.standard_normal((5, 3))
    edges -= edges.mean(axis=0)
    p = Polygon(3, edges)
    e = pg.even_step(p)
    assert e.m == 3
    assert np.allclose(e.edges[-1], p.edges[-1])
    assert pg.closure_defect(e) < 1e-12


def test_even_step_commutes_with_rotation(rng):
    edges = rng.standard_normal((6, 3))
    edges -= edges.mean(axis=0)
    p = Polygon(3, edges)
    rot = random_rotation(rng)
    a = pg.even_step(rotated(p, rot))
    b = rotated(pg.even_step(p), rot)
    assert np.abs(a.edges - b.edges).max() < 1e-12


def test_genericity():
    assert pg.is_generic_lengths((1, 1, 1))
    assert not pg.is_generic_lengths((1, 1, 1, 1))
    assert pg.is_generic_lengths((2, 1, 5, 1, 2))
    assert pg.wall_distance((2, 1, 5, 1, 2)) == 1
    assert pg.wall_distance((1, 1, 1, 1)) == 0


def test_genericity_rejects_floats():
    with pytest.raises(TypeError):
        pg.is_generic_lengths((1.0, 1.0, 1.0))


def test_enumerate_lined():
    assert len(pg.enumerate_lined((1,) * 6)) == 10
    assert pg.enumerate_lined((1, 1, 1)) == []
    assert pg.enumerate_lined((1, 1, 2)) == [(1, 1, -1)]


def test_too_many_sides():
    with pytest.raises(InputError, match="brute force limited"):
        pg.is_generic_lengths((1,) * 25)


def test_side_lengths_exact_type():
    den, ints = pg.integer_lengths(["1/2", 1, Fraction(3, 4)])
    assert (den, ints) == (4, [2, 4, 3])
    assert all(type(a) is int for a in ints)
    assert pg.integer_lengths(()) == (1, [])
    for bad in ((Fraction(1), 2.0), (1, True, 1)):
        with pytest.raises(TypeError):
            pg.integer_lengths(bad)
    # as_fraction parses strings only
    for bad in (2.0, True, 1, Fraction(1)):
        with pytest.raises(TypeError):
            pg.as_fraction(bad)


def test_integer_lengths_builds_no_fraction(monkeypatch):
    # int and Fraction items pass through: only strings are parsed
    calls = []
    monkeypatch.setattr(pg, "as_fraction",
                        lambda a: calls.append(a) or Fraction(a))
    assert pg.integer_lengths((2, Fraction(1, 3), "3/2")) == (6, [12, 2, 9])
    assert calls == ["3/2"]


def test_lengths_past_the_digit_limit_are_refused():
    limit = sys.get_int_max_str_digits()
    top = (10 ** limit - 1) // 4   # the largest den and sum |ints| accepted
    for alpha in ([top], [top - 1, 1], [Fraction(1, top)],
                  [Fraction(top - 4, 3), Fraction(1, 3), 1]):
        pg.integer_lengths(alpha)
    for alpha in ([top + 1], [top, 1], [Fraction(1, top + 1)],
                  [Fraction(top - 3, 3), Fraction(1, 3), 1], [-top - 1]):
        with pytest.raises(InputError, match=f"more than {limit} digits"):
            pg.integer_lengths(alpha)
    # a token is refused from its exponent, before it is expanded
    for token in ("1e10000000", "1e-10000000", "-3.5E+99999999"):
        with pytest.raises(InputError, match=f"more than {limit} digits"):
            pg.as_fraction(token)
    assert pg.as_fraction(f"1e{limit - 1}") == 10 ** (limit - 1)
    assert pg.as_fraction(f"25e-{limit + 2}") == Fraction(1, 4 * 10 ** limit)



@given(st.lists(st.fractions(min_value=0, max_value=5), min_size=3,
                max_size=8))
def test_wall_distance_zero_iff_lined_exists(alpha):
    alpha = tuple(alpha)
    lined = pg.enumerate_lined(alpha)
    assert (pg.wall_distance(alpha) == 0) == bool(lined)


def _signed_sums(alpha):
    """Oracle: all 2^(m-1) signed sums with first sign +1, summed one by one
    in itertools.product((1, -1)) order."""
    alpha = tuple(map(Fraction, alpha))
    for rest in itertools.product((1, -1), repeat=len(alpha) - 1):
        eps = (1,) + rest
        yield eps, sum(e * a for e, a in zip(eps, alpha))


def _assert_wall_kernels_match_oracle(alpha):
    sums = list(_signed_sums(alpha))
    assert pg.is_generic_lengths(alpha) == all(t != 0 for _, t in sums)
    distance = pg.wall_distance(alpha)
    assert isinstance(distance, Fraction)
    assert distance == min(abs(t) for _, t in sums)
    assert pg.enumerate_lined(alpha) == [eps for eps, t in sums if t == 0]


def test_wall_kernels_match_oracle_seeded(rng):
    walls = 0
    for _ in range(100):
        m = int(rng.integers(1, 13))
        dens = rng.choice([1, 2, 3, 4, 6, 7, 12], size=m)
        alpha = [Fraction(int(n), int(d))
                 for n, d in zip(rng.integers(0, 30, size=m), dens)]
        if m >= 3 and rng.random() < 0.5:
            # balance a random split with the last entry: a wall vector
            split = int(rng.integers(1, m - 1))
            alpha[-1] = abs(sum(alpha[:split]) - sum(alpha[split:-1]))
            walls += 1
        alpha = tuple(alpha)
        _assert_wall_kernels_match_oracle(alpha)
    assert walls > 25


@settings(deadline=None)
@given(st.lists(st.fractions(min_value=0, max_value=5, max_denominator=12),
                min_size=1, max_size=9),
       st.integers(min_value=0, max_value=9))
def test_wall_kernels_match_oracle(alpha, split):
    _assert_wall_kernels_match_oracle(tuple(alpha))
    wall = tuple(alpha) + (abs(sum(alpha[:split]) - sum(alpha[split:])),)
    _assert_wall_kernels_match_oracle(wall)
    assert not pg.is_generic_lengths(wall)


def test_feasible_lengths_is_closing_condition():
    assert pg.is_feasible_lengths((1, 1, 1))
    assert pg.is_feasible_lengths((1, 1, 2))  # degenerate, still closes
    assert not pg.is_feasible_lengths((1, 1, 3))
    assert not pg.is_feasible_lengths((-1, 1, 1, 1))
    assert not pg.is_feasible_lengths((1, 1, 1, 1, 1, 1, 100))
