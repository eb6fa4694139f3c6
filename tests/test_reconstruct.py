"""Vertex-by-vertex reconstruction, the planar section and sampling."""

import functools
import math
from fractions import Fraction as F
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polyspace import (bending, polygon as pg, polytope as pt,
                       reconstruct as rec)
from polyspace.errors import (EmptyPolytope, Infeasible, InputError,
                              TriangleViolation, ZeroDiagonal)
from polyspace.reconstruct import LDPoint

from conftest import triangle_slacks


def test_square_round_trip():
    ld = LDPoint((1, 1, 1, 1), (math.sqrt(2),))
    p = rec.reconstruct(ld, 2)
    assert p.dim == 2
    assert np.abs(pg.side_lengths(p) - 1.0).max() < 1e-12
    assert abs(pg.diagonals(p)[1] - math.sqrt(2)) < 1e-12
    # it really is a square: consecutive edges orthogonal
    assert abs(np.dot(p.edges[0], p.edges[1])) < 1e-12


def test_right_triangle():
    ld = LDPoint((3, 4, 5), ())
    p = rec.reconstruct(ld, 2)
    assert np.allclose(pg.diagonals(p), [3, 5, 0])
    assert abs(np.dot(p.edges[0], p.edges[1])) < 1e-12


def test_three_dimensional_output():
    ld = LDPoint((1, 1, 1, 1, 1), (1.3, 1.1))
    p = rec.reconstruct(ld, 3)
    assert p.dim == 3
    assert np.abs(p.edges[:, 2]).max() == 0.0
    assert pg.closure_defect(p) < 1e-12


def test_boundary_collinear_step():
    # d3 = d2 + alpha3: the two circles touch instead of crossing
    ld = LDPoint((1, 1, 1, 1, 2), (2.0, 3.0))
    p = rec.reconstruct(ld, 2)
    assert np.abs(pg.diagonals(p)[:4] - [1, 2, 3, 2]).max() < 1e-9


def test_degenerate_zero_diagonal():
    # d2 = 0 is allowed on the boundary: the next vertex restarts anywhere
    ld = LDPoint((1, 1, 1, 1), (0.0,))
    p = rec.reconstruct(ld, 2)
    assert np.abs(pg.side_lengths(p) - 1.0).max() < 1e-12


def test_violations_report_first_index():
    with pytest.raises(TriangleViolation) as err:
        rec.reconstruct(LDPoint((1, 1, 3), ()), 2)
    assert (err.value.index, err.value.inequality) == (1, "C")
    with pytest.raises(TriangleViolation) as err:
        rec.reconstruct(LDPoint((1, 1, 1, 1), (3.0,)), 2)
    assert (err.value.index, err.value.inequality) == (1, "C")
    with pytest.raises(TriangleViolation) as err:
        rec.reconstruct(LDPoint((1, 5, 1, 1), (1.0,)), 2)
    assert (err.value.index, err.value.inequality) == (1, "A")
    # a small triangle beside sides of 1e11 keeps a tolerance of its size
    with pytest.raises(TriangleViolation) as err:
        rec.reconstruct(LDPoint((1e11, 1e11, 1, 1), (2.1,)), 2)
    assert (err.value.index, err.value.inequality) == (2, "B")


def test_nan_diagonal_is_a_violation():
    with pytest.raises(TriangleViolation) as err:
        rec.reconstruct(LDPoint((1, 1, 1, 1, 1), (math.nan, 1.2)), 3)
    assert (err.value.index, err.value.inequality) == (1, "A")


def _check_triangles_oracle(ld):
    """The triangle check one LDPoint at a time, from ``triangle_slacks``,
    as it was before the check took stacks."""
    d = ld.full_diagonals()
    tol = [1e-12 * abs(d[i]) + 1e-12 * abs(d[i + 1]) + 1e-12 * abs(a)
           for i, a in enumerate(ld.alpha)]
    for i, name, slack in triangle_slacks(ld.alpha, d[1:]):
        if not slack >= -tol[i]:  # NaN fails too
            raise TriangleViolation(i, name, slack)


def _bits(exc):
    """(index, inequality, slack bits) of a TriangleViolation, or None."""
    return exc and (exc.index, exc.inequality, float(exc.slack).hex())


def _violation(ld):
    """``_bits`` of the error the oracle raises on ld, or None."""
    try:
        _check_triangles_oracle(ld)
    except TriangleViolation as exc:
        return _bits(exc)
    return None


def test_stacked_triangle_check_gives_the_error_of_the_per_point_loop():
    alpha = (3, 2, 4, 2, 3, 5)
    rng = np.random.default_rng(4)
    good = [rec.sample_ld(alpha, rng) for _ in range(3)]

    def with_diagonal(ld, j, value):
        delta = list(ld.delta)
        delta[j] = value
        return LDPoint(ld.alpha, delta)
    d2, d4 = good[0].delta[0], good[1].delta[2]
    bad = [with_diagonal(good[0], 0, math.nan),
           # d_2 past d_1 + alpha_2 (C at step 1): far, then just past its
           # tolerance, then just inside it
           with_diagonal(good[0], 0, 5.0 + 1.0),
           with_diagonal(good[0], 0, 5.0 * (1 + 1e-11)),
           with_diagonal(good[1], 2, d4 + 100.0),
           with_diagonal(good[2], 1, -d2)]
    inside = with_diagonal(good[0], 0, 5.0 * (1 + 1e-13))
    assert _violation(inside) is None
    assert all(_violation(ld) for ld in bad)
    stacks = [good, good + [inside]]
    for b in bad:
        stacks += [[b] + good, good[:2] + [b] + good[2:], good + [b]]
    for b, c in zip(bad, bad[1:]):
        stacks += [[b, c], [good[0], c, b, good[1]]]
    for stack in stacks:
        first = next((n for n, ld in enumerate(stack) if _violation(ld)),
                     len(stack))
        want = _violation(stack[first]) if first < len(stack) else None
        # sample_moduli bends the members before the first that fails
        n, error = rec._check_triangles(stack)
        assert (n, _bits(error)) == (first, want)
        # reconstruct raises the error of its one point
        if want:
            with pytest.raises(TriangleViolation) as exc:
                rec.reconstruct(stack[first])
            assert _bits(exc.value) == want


def test_round_trip_random(rng):
    for _ in range(50):
        m = int(rng.integers(4, 8))
        alpha = tuple(F(int(n), 7) for n in rng.integers(1, 20, size=m))
        try:
            ld = rec.sample_ld(alpha, rng)
        except EmptyPolytope:
            continue
        for k in (2, 3):
            p = rec.reconstruct(ld, k)
            assert np.abs(pg.side_lengths(p) - ld.alpha).max() < 1e-9
            d = pg.diagonals(p)
            assert np.abs(d[1:m - 2] - ld.delta).max() < 1e-9


def test_fiber_sample():
    ld = LDPoint((1, 1, 1, 1, 1), (1.2, 1.2))
    base = rec.fiber_sample(ld, (0.0, 0.0))
    assert np.array_equal(base.edges, rec.reconstruct(ld, 3).edges)
    periodic = rec.fiber_sample(ld, (2 * math.pi, 2 * math.pi))
    assert np.abs(periodic.edges - base.edges).max() < 1e-9
    twisted = rec.fiber_sample(ld, (0.9, -0.4))
    assert np.abs(pg.side_lengths(twisted) - 1.0).max() < 1e-10
    assert np.abs(pg.diagonals(twisted) - pg.diagonals(base)).max() < 1e-10


def test_fiber_points_differ_beyond_rotation():
    ld = LDPoint((1, 1, 1, 1, 1), (1.2, 1.2))
    a = rec.fiber_sample(ld, (0.0, 0.0))
    b = rec.fiber_sample(ld, (1.0, 0.5))
    # rotation-invariant signature: the Gram matrix of the edge vectors
    ga = a.edges @ a.edges.T
    gb = b.edges @ b.edges.T
    assert np.abs(ga - gb).max() > 1e-3


def test_section_sigma_equilateral():
    p = rec.section_sigma((F(2, 3), F(2, 3), F(2, 3)))
    assert np.abs(pg.side_lengths(p) - 2.0 / 3.0).max() < 1e-12
    assert pg.closure_defect(p) < 1e-12


def test_section_sigma_boundary():
    p = rec.section_sigma((1, 1, 0, 0))
    assert np.abs(pg.side_lengths(p) - [1, 1, 0, 0]).max() < 1e-12
    assert pg.is_lined(p)


def test_section_sigma_random(rng):
    for _ in range(100):
        m = int(rng.integers(3, 9))
        nums = [int(n) for n in rng.integers(1, 30, size=m)]
        total = sum(nums)
        alpha = tuple(F(2 * n, total) for n in nums)
        if any(a > 1 for a in alpha):
            continue
        p = rec.section_sigma(alpha)
        assert np.abs(pg.side_lengths(p)
                      - [float(a) for a in alpha]).max() < 1e-12
        assert pg.closure_defect(p) < 1e-11


def _run_of_sum(rng, n, total):
    """n random nonnegative rationals that sum to total."""
    nums = [int(x) for x in rng.integers(0, 6, size=n)]
    nums[int(rng.integers(0, n))] += 1
    return [F(total * x, sum(nums)) for x in nums]


def _wall_lengths(rng, m):
    """Hypersimplex lengths on a wall: some beta_i = 1, or some alpha_i = 1."""
    if rng.integers(0, 2):
        cut = int(rng.integers(1, m))
        return tuple(_run_of_sum(rng, cut, 1) + _run_of_sum(rng, m - cut, 1))
    rest = _run_of_sum(rng, m - 1, 1)
    rest.insert(int(rng.integers(0, m)), F(1))
    return tuple(rest)


def _hypersimplex_lengths(rng, m):
    while True:
        alpha = tuple(_run_of_sum(rng, m, 2))
        if max(alpha) <= 1:
            return alpha


def test_section_sigma_on_a_wall_is_lined(rng):
    walls = [(F(1, 22), F(21, 22), F(1)), (F(1), F(1), F(0)),
             (F(1, 2), F(1, 2), F(1, 3), F(2, 3))]
    walls += [_wall_lengths(rng, m) for m in range(3, 12) for _ in range(30)]
    for alpha in walls:
        p = rec.section_sigma(alpha)
        assert pg.is_lined(p), alpha
        assert np.abs(pg.side_lengths(p)
                      - [float(a) for a in alpha]).max() < 1e-15


def _longest_diagonals(alpha):
    """d_i = min(beta_i, 2 - beta_i), i = 1..m: each diagonal as long as
    its two triangles allow."""
    return [min(b, 2 - b) for b in accumulate(alpha)]


def test_section_sigma_is_the_fan_polytope_vertex_of_longest_diagonals(rng):
    for m in range(4, 7):
        for _ in range(15):
            alpha = _hypersimplex_lengths(rng, m)
            top = tuple(_longest_diagonals(alpha)[1:m - 2])
            assert top in pt.diag_slice(alpha).vertices(), alpha
    for m in range(3, 13):
        for _ in range(30):
            alpha = _hypersimplex_lengths(rng, m)
            p = rec.section_sigma(alpha)
            want = [float(x) for x in _longest_diagonals(alpha)]
            error = np.abs(pg.diagonals(p) - want).max()
            assert error <= 1e-15 * pg.perimeter(p), alpha


def test_section_sigma_rejects_outside():
    with pytest.raises(Infeasible, match="hypersimplex"):
        rec.section_sigma((1, 1, 1))
    with pytest.raises(Infeasible, match="hypersimplex"):
        rec.section_sigma((F(3, 2), F(1, 4), F(1, 4)))


def test_sample_moduli_deterministic():
    a = rec.sample_moduli((1, 1, 1, 1, 1), 3, 5, seed=42)
    b = rec.sample_moduli((1, 1, 1, 1, 1), 3, 5, seed=42)
    for p, q in zip(a, b):
        assert np.array_equal(p.edges, q.edges)


def test_sample_moduli_pass_membership():
    for k in (2, 3):
        for p in rec.sample_moduli((2, 1, 3, 1, 2), k, 20, seed=1):
            assert np.abs(pg.side_lengths(p) - [2, 1, 3, 1, 2]).max() < 1e-9
            slacks = triangle_slacks(
                tuple(F(x) for x in (2, 1, 3, 1, 2)),
                [F(round(float(d) * 10**9), 10**9)
                 for d in pg.diagonals(p)])
            assert min(s for _, _, s in slacks) > -F(1, 10**6)


def test_sample_moduli_planar_flips_change_shape():
    polys = rec.sample_moduli((1, 1, 1, 1, 1), 2, 30, seed=3)
    assert all(p.dim == 2 for p in polys)
    ys = {round(float(p.edges[0, 1]), 6) for p in polys}
    assert len(ys) > 1


def test_sample_moduli_empty():
    with pytest.raises(EmptyPolytope):
        rec.sample_moduli((1, 1, 10, 1), 2, 5, seed=0)


@pytest.mark.parametrize("count, seed, message", [
    (-2, 0, "count must be >= 0, got -2"),
    (2, -1, "seed must be >= 0, got -1")])
def test_sample_moduli_refuses_a_negative_count_or_seed(count, seed, message):
    with pytest.raises(InputError, match=message):
        rec.sample_moduli((1, 1, 1, 1), 3, count, seed)


def test_sample_moduli_draws_from_default_rng():
    # the samples are draw_sample's draws from default_rng(seed), in order
    alpha = (1, 2, 2, 1, 1)
    for seed in (0, 5, 2**63 + 5):
        for k in (2, 3):
            rng = np.random.default_rng(seed)
            lds, turns = zip(*(rec.draw_sample(alpha, k, rng)
                               for _ in range(2)))
            edges = rec._bend(*rec._place(lds), turns)[0]
            for p, e in zip(rec.sample_moduli(alpha, k, 2, seed), edges):
                assert np.array_equal(p.edges, e[:, :k])


def test_quad_sampling_covers_interval():
    alpha = (1, 2, 3, 4)
    lo, hi = pt.quad_interval(alpha)["interval"]
    samples = rec.sample_moduli(alpha, 2, 2000, seed=9)
    d2 = [pg.diagonals(p)[1] for p in samples]
    assert min(d2) < float(lo) + 1e-2
    assert max(d2) > float(hi) - 1e-2


def _frac_uniform(rng, lo, hi):
    """Uniform rational in [lo, hi] with a fixed denominator grid."""
    span = hi - lo
    if span == 0:
        return lo
    k = int(rng.integers(0, rec._GRID + 1))
    return lo + span * F(k, rec._GRID)


def _sample_ld_oracle(alpha, rng):
    """The exact diagonals of sample_ld, drawn in Fraction arithmetic.

    This was sample_ld before it moved to integer numerators over one
    denominator; it must give the same values and leave the same rng state.
    """
    alpha = tuple(map(F, alpha))
    m = len(alpha)
    rests = list(accumulate(reversed(alpha)))[::-1]
    tops = list(accumulate(reversed(alpha), max))[::-1]
    d_prev = alpha[0]
    delta = []
    for i in range(1, m - 2):
        a = alpha[i]
        rest = rests[i + 1]
        tri_lo, tri_hi = pt._interval_pair(d_prev, a)
        lo = max(tri_lo, 2 * tops[i + 1] - rest)
        hi = min(tri_hi, rest)
        if lo > hi:
            raise EmptyPolytope("no diagonal data fits these lengths")
        d_next = _frac_uniform(rng, lo, hi)
        delta.append(d_next)
        d_prev = d_next
    return tuple(delta)


def _assert_matches_oracle(alpha, seed, draws=1):
    rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
    for _ in range(draws):
        try:
            drawn = _sample_ld_oracle(alpha, oracle_rng)
        except EmptyPolytope:
            with pytest.raises(EmptyPolytope):
                rec.sample_ld(alpha, rng)
        else:
            assert rec.sample_ld(alpha, rng) == LDPoint(alpha, drawn)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("m", range(3, 25))
def test_sample_ld_matches_fraction_oracle(m):
    for seed in range(5):
        rng = np.random.default_rng(100 * m + seed)
        den = int(rng.integers(1, 10))
        alpha = tuple(F(int(n), den) for n in rng.integers(1, 20, size=m))
        _assert_matches_oracle(alpha, seed, draws=5)


@pytest.mark.parametrize("alpha", [
    (1, 1, 1, 3),           # the only diagonal is forced: no draw
    (F(1, 3), F(1, 7), 1, F(11, 21)),
    (1, 0, 1, 1, 1),        # a zero side forces d_2; d_3 is drawn
    (1, 1, 1, 0, 1, 1),     # d_2 and d_3 drawn; a zero side forces d_4
    (1, 1, 1, 5),           # infeasible at the first step
    (1, 1, 10, 1, 1),
])
def test_sample_ld_matches_fraction_oracle_on_forced_and_empty_steps(alpha):
    _assert_matches_oracle(alpha, seed=5, draws=3)


@given(st.lists(st.integers(min_value=1, max_value=12), min_size=4,
                max_size=9),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_sample_ld_draws_inside_triangle_and_closing_ranges(nums, seed):
    alpha = tuple(F(n) for n in nums)
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    if not pg.is_feasible_lengths(alpha):
        # the first step already fails, before any draw
        with pytest.raises(EmptyPolytope):
            rec.sample_ld(alpha, rng)
        assert rng.bit_generator.state == state
        return
    drawn = _sample_ld_oracle(alpha, np.random.default_rng(seed))
    ld = rec.sample_ld(alpha, rng)
    assert ld.delta == tuple(float(d) for d in drawn)
    d_prev = alpha[0]
    for i, d in enumerate(drawn, start=1):
        assert abs(d_prev - alpha[i]) <= d <= d_prev + alpha[i]
        assert pg.is_feasible_lengths((d,) + alpha[i + 1:])
        d_prev = d


# Test-only oracles: reconstruct's vertex loop one vertex at a time,
# fiber_sample's chain of bend calls (each axis taken from the polygon bent
# so far) and sample_moduli one sample at a time, its planar flips as 2x2
# reflections in turn, as they were before the sampler became one stack.
def _reconstruct_oracle(ld, k):
    _check_triangles_oracle(ld)
    tiny = 1e-12 * sum(map(abs, ld.alpha))   # the degenerate-circle cut
    d = ld.full_diagonals()
    verts = [np.zeros(2), np.array([ld.alpha[0], 0.0])]
    for i in range(1, ld.m - 1):
        vi = verts[i]
        di, dj, a = d[i], d[i + 1], ld.alpha[i]
        if di < tiny:
            verts.append(np.array([dj, 0.0]))
            continue
        t = (di * di + dj * dj - a * a) / (2.0 * di)
        h2 = dj * dj - t * t
        h = math.sqrt(h2) if h2 > 0.0 and a != 0.0 else 0.0
        n = vi / di
        perp = np.array([-n[1], n[0]])
        cand1 = t * n + h * perp
        cand2 = t * n - h * perp
        verts.append(cand1 if cand1[1] >= cand2[1] else cand2)
    verts.append(np.zeros(2))
    poly = pg.Polygon(2, np.diff(np.array(verts), axis=0))
    return poly.embedded() if k == 3 else poly


def _fiber_oracle(ld, angles):
    poly = _reconstruct_oracle(ld, 3)
    for offset, theta in enumerate(angles):
        if theta != 0.0:
            poly = bending.bend(poly, offset + 2, theta)
    return poly


def _planar_flips_oracle(poly, signs):
    """Reflect the leading block across each chosen diagonal in turn; a
    chosen diagonal at or below 1e-9 x perimeter raises ZeroDiagonal."""
    edges, per = poly.edges.copy(), pg.perimeter(poly)
    for offset, s in enumerate(signs):
        if not s:
            continue
        i = offset + 2
        axis = edges[:i].sum(axis=0)
        norm = np.linalg.norm(axis)
        if norm <= 1e-9 * per:
            raise ZeroDiagonal(i)
        n = axis / norm
        refl = 2.0 * np.outer(n, n) - np.eye(2)
        edges[:i] = edges[:i] @ refl.T
    return pg.Polygon(2, edges)


def _sample_moduli_oracle(alpha, k, count, seed):
    """The samples, and how many of them kept a vanished axis unbent."""
    alpha = tuple(map(F, alpha))
    m = len(alpha)
    rng = np.random.default_rng(seed)
    out, fallen = [], 0
    for _ in range(count):
        ld = rec.sample_ld(alpha, rng)
        try:
            if k == 3:
                angles = rng.uniform(0.0, 2.0 * math.pi, size=m - 3)
                poly = _fiber_oracle(ld, tuple(angles))
            else:
                signs = rng.integers(0, 2, size=m - 3)
                poly = _planar_flips_oracle(_reconstruct_oracle(ld, 2), signs)
        except ZeroDiagonal:
            poly, fallen = _reconstruct_oracle(ld, k), fallen + 1
        out.append(poly)
    return out, fallen


def _seeded_lengths(m, seed):
    """Feasible rational lengths drawn from the seed, some with zero sides."""
    rng = np.random.default_rng(1000 * m + seed)
    while True:
        nums = rng.integers(0 if seed % 5 == 0 else 1, 30, size=m)
        alpha = tuple(F(int(n), int(rng.integers(1, 8))) for n in nums)
        if pg.is_feasible_lengths(alpha) and any(alpha):
            return alpha


def _assert_close(poly, oracle):
    """Within 1e-13 of the perimeter: the stack rounds in another order."""
    scale = 1e-13 * pg.perimeter(oracle)
    assert np.abs(poly.edges - oracle.edges).max() <= scale


def _assert_zero_sides_stay(poly, alpha):
    """A zero side stays on its vertex: at most 1e-15 x perimeter long."""
    zero = [i for i, a in enumerate(alpha) if a == 0]
    scale = 1e-15 * pg.perimeter(poly)
    assert np.abs(poly.edges[zero]).max(initial=0.0) <= scale


def _bent_or_zero_axis(fiber, ld, angles):
    """The bent polygon, or the index of the diagonal that vanished."""
    try:
        return fiber(ld, angles)
    except ZeroDiagonal as exc:
        return exc.index


@functools.cache
def _sampler_matches_oracles(m):
    """Compare the stack with the oracles at m, seeds 0..49; return how many
    dim-2 and dim-3 samples kept a vanished axis unbent."""
    fallen = [0, 0]
    for seed in range(50):
        alpha = _seeded_lengths(m, seed)
        ld = rec.sample_ld(alpha, np.random.default_rng(seed))
        for k in (2, 3):
            poly = rec.reconstruct(ld, k)
            assert np.array_equal(poly.edges, _reconstruct_oracle(ld, k).edges)
            _assert_zero_sides_stay(poly, alpha)
        angles = np.random.default_rng(seed).uniform(-7.0, 7.0, size=m - 3)
        angles[seed % (m - 3)] = 0.0  # a bend by 0 is skipped
        got, want = (_bent_or_zero_axis(f, ld, angles)
                     for f in (rec.fiber_sample, _fiber_oracle))
        if isinstance(want, int):
            assert got == want
        else:
            _assert_close(got, want)
            _assert_zero_sides_stay(got, alpha)
        for k in (2, 3):
            stack = rec.sample_moduli(alpha, k, 2, seed)
            oracle, lost = _sample_moduli_oracle(alpha, k, 2, seed)
            assert len(stack) == len(oracle) == 2
            for p, q in zip(stack, oracle):
                assert p.dim == q.dim == k
                _assert_close(p, q)
                _assert_zero_sides_stay(p, alpha)
            fallen[k - 2] += lost
    return tuple(fallen)


@pytest.mark.parametrize("m", range(4, 25))
def test_stacked_sampler_matches_per_sample_oracle(m):
    _sampler_matches_oracles(m)


def test_the_oracle_seeds_reach_a_vanished_axis():
    # keeps the zero-axis rule covered: some planar sample has a flipped,
    # and some spatial sample a bent, diagonal that vanishes
    fallen = np.sum([_sampler_matches_oracles(m) for m in range(4, 25)],
                    axis=0)
    assert fallen.min() >= 1, fallen


@pytest.mark.parametrize("k", (2, 3))
def test_a_sample_does_not_depend_on_the_count(k):
    for m in range(4, 25, 2):
        for seed in range(8):
            alpha = _seeded_lengths(m, seed)
            few = rec.sample_moduli(alpha, k, 2, seed)
            many = rec.sample_moduli(alpha, k, 6, seed)
            for p, q in zip(few, many[:2]):
                assert np.array_equal(p.edges, q.edges)


def test_the_sampler_raises_its_earliest_error(monkeypatch):
    # the second point is refused by LDPoint as it is drawn: after the
    # first, whose error (triangle A) is then the one raised, if it has one
    good = LDPoint((1,) * 5, (1.2, 1.2))
    nan = LDPoint((1,) * 5, (math.nan, 1.2))

    def points(first):
        yield first
        yield LDPoint((F(10) ** 400,) * 5, (1, 1))

    for first, error in ((nan, "triangle inequality 'A'"),
                         (good, "a length or diagonal is beyond the float "
                                "range")):
        monkeypatch.setattr(rec, "_ld_points",
                            lambda den, ints, rng, p=first: points(p))
        with pytest.raises((InputError, TriangleViolation), match=error):
            rec.sample_moduli((1, 1, 1, 1, 1), 3, 2, seed=0)


def test_a_vanishing_axis_unbends_only_its_member():
    alpha = (1, 1, 1, 1, 1)
    lds = [LDPoint(alpha, (1.2, 1.2)), LDPoint(alpha, (1.0, 0.0)),
           LDPoint(alpha, (1.0, 0.0)), LDPoint(alpha, (1.3, 1.1))]
    # d_3 of the second member vanishes; the third one bends by 0 about it,
    # so that axis is not checked
    angles = [(0.5, 0.7), (0.5, 0.7), (0.5, 0.0), (0.9, -0.4)]
    edges, fallen = rec._bend(*rec._place(lds), angles)
    assert fallen.tolist() == [0, 3, 0, 0]
    assert np.array_equal(edges[1], rec.reconstruct(lds[1], 3).edges)
    for b in (0, 2, 3):
        _assert_close(pg.Polygon(3, edges[b]), _fiber_oracle(lds[b], angles[b]))
    with pytest.raises(ZeroDiagonal) as err:
        rec.fiber_sample(lds[1], angles[1])
    assert err.value.index == 3
    with pytest.raises(ZeroDiagonal) as err:
        _fiber_oracle(lds[1], angles[1])
    assert err.value.index == 3
