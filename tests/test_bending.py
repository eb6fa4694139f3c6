"""Bending rotations, the sphere-product structures and the flow identity."""

import itertools
import math

import numpy as np
import pytest

from polyspace import bending, polygon as pg, quat
from polyspace.errors import InputError, ZeroDiagonal
from polyspace.verify import (kahler_probe_terms, random_prodigal_polygon,
                              trial_rng)

SQUARE = pg.Polygon(3, [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
# the bend suite's flow times
FLOW_TIMES = (0.1, 1.0, math.pi, 2.0 * math.pi)

# Test-only oracle: the Hamiltonian field of an arbitrary H from central
# differences of H, against which the closed-form diagonal field is checked.
FD_STEP = 1e-6


def fd_field(H):
    """X = -x x grad H per factor, with a central-difference gradient."""

    def X(points):
        pts = points.tolist()
        g = np.zeros_like(points)
        inv = 1.0 / (2.0 * FD_STEP)
        for r, row in enumerate(pts):
            for c in range(3):
                saved = row[c]
                row[c] = saved + FD_STEP
                hp = H(pts)
                row[c] = saved - FD_STEP
                hm = H(pts)
                row[c] = saved
                g[r, c] = (hp - hm) * inv
        return -np.cross(points, g)

    return X


def test_bend_identity_and_period():
    assert np.allclose(bending.bend(SQUARE, 2, 0.0).edges, SQUARE.edges)
    full = bending.bend(SQUARE, 2, 2 * math.pi)
    assert np.abs(full.edges - SQUARE.edges).max() < 1e-11


def test_bend_preserves_invariants(rng):
    p = random_prodigal_polygon(rng, 6)
    q = bending.bend(p, 3, 1.234)
    assert np.abs(pg.side_lengths(q) - pg.side_lengths(p)).max() < 1e-12
    assert np.abs(pg.diagonals(q) - pg.diagonals(p)).max() < 1e-11
    assert pg.closure_defect(q) < 1e-11


def test_bend_is_additive(rng):
    p = random_prodigal_polygon(rng, 5)
    a = bending.bend(bending.bend(p, 2, 0.7), 2, 0.5)
    b = bending.bend(p, 2, 1.2)
    assert np.abs(a.edges - b.edges).max() < 1e-11


def test_bend_square_fold():
    folded = bending.bend(SQUARE, 2, math.pi)
    assert np.abs(pg.diagonals(folded) - pg.diagonals(SQUARE)).max() < 1e-12
    # the first two edges land on the other two
    assert np.abs(folded.edges[0] + folded.edges[3]).max() < 1e-12


def test_bend_zero_diagonal():
    flat = pg.Polygon(3, [[1, 0, 0], [-1, 0, 0], [1, 0, 0], [-1, 0, 0]])
    with pytest.raises(ZeroDiagonal) as err:
        bending.bend(flat, 2, 1.0)
    assert err.value.index == 2


def test_bend_range_matches_bend(rng):
    p = random_prodigal_polygon(rng, 6)
    a = bending.bend_range(p, (1, 3), 0.9)
    b = bending.bend(p, 3, 0.9)
    assert np.array_equal(a.edges, b.edges)
    c = bending.bend_range(p, (2, 4), 0.9)
    assert pg.closure_defect(c) < 1e-11
    assert np.abs(pg.side_lengths(c) - pg.side_lengths(p)).max() < 1e-12


@pytest.mark.parametrize("block", [(0, 2), (3, 2), (2, 5), (1, 4)])
def test_bend_range_refuses_an_improper_block(block):
    # p = 0, p > q, q > m and all four edges of the square
    with pytest.raises(ValueError, match="proper subset"):
        bending.bend_range(SQUARE, block, 0.5)


@pytest.mark.parametrize("i", [0, 4])
def test_bend_refuses_a_diagonal_index_outside_1_to_m_minus_1(i):
    # bend_range's block check is the only one: (1, 0) and (1, m)
    with pytest.raises(InputError, match="proper subset"):
        bending.bend(SQUARE, i, 0.5)


def test_commutation():
    rng = np.random.default_rng(11)
    p = random_prodigal_polygon(rng, 6)
    assert bending.commute_defect(p, (1, 2), (1, 3), 0.8, 1.7) < 1e-9
    assert bending.commute_defect(p, (1, 2), (4, 5), 0.8, 1.7) < 1e-9
    linked = bending.commute_defect(p, (2, 4), (3, 5), 1.0, 1.0)
    assert linked > 1e-3


def test_km_form():
    x = np.array([2.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    assert bending.km_form(x, u, v) == pytest.approx(1.0 / 2.0)
    assert bending.km_form(x, v, u) == pytest.approx(-1.0 / 2.0)
    assert bending.km_form(x, u, u) == 0.0
    with pytest.raises(InputError, match="not tangent"):
        bending.km_form(x, x, u)


def test_km_complex():
    x = np.array([1.5, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    jv = bending.km_complex(x, v)
    assert np.allclose(jv, [0, 0, 1])
    assert np.allclose(bending.km_complex(x, jv), -v)
    assert np.linalg.norm(jv) == pytest.approx(np.linalg.norm(v))


# Test-only oracle: the Hermitian metric of Kapovich-Millson, as it was when
# the package kept it as bending.km_metric; its imaginary part is -km_form.
def km_metric(x, u, v):
    """Hermitian metric (1/r)<u,v> - (i/r^2)<x, u x v>, rowwise."""
    x, u, v = (np.asarray(w, dtype=float) for w in (x, u, v))
    r = bending._check_tangent(x, u, v)
    return (bending._dot(u, v) / r
            - 1j * (bending._dot(x, np.cross(u, v)) / (r * r)))


def test_km_metric():
    x = np.array([2.0, 0.0, 0.0])
    u = np.array([0.0, 1.0, 0.0])
    v = np.array([0.0, 0.0, 1.0])
    h = km_metric(x, u, v)
    assert h == pytest.approx(complex(0.0, -0.5))
    assert h.imag == pytest.approx(-bending.km_form(x, u, v))
    assert km_metric(x, u, u).real >= 0.0
    assert km_metric(x, u, u).imag == 0.0


def _tangent_stack(rng, n):
    """n base points x with two tangent vectors each."""
    x = rng.standard_normal((n, 3))
    u, v = (np.cross(x, rng.standard_normal((n, 3))) for _ in range(2))
    return x, u, v


def test_km_structures_on_rows_match_per_row_calls(rng):
    x, u, v = _tangent_stack(rng, 40)
    form, metric = bending.km_form(x, u, v), km_metric(x, u, v)
    turn = bending.km_complex(x, v)
    assert form.shape == metric.shape == (40,) and turn.shape == (40, 3)
    for b in range(40):
        assert form[b] == pytest.approx(bending.km_form(x[b], u[b], v[b]),
                                        rel=1e-14)
        assert metric[b] == pytest.approx(
            km_metric(x[b], u[b], v[b]), rel=1e-14)
        assert np.array_equal(turn[b], bending.km_complex(x[b], v[b]))


def test_tangency_guard_rejects_nan(rng):
    with pytest.raises(InputError, match="not tangent"):
        bending.km_form([1, 0, 0], [0, 1, 0], [0, math.nan, 0])
    with pytest.raises(InputError, match="not tangent"):
        bending.km_complex([math.nan, 0, 0], [0, 1, 0])
    x, u, v = _tangent_stack(rng, 5)
    u[3, 1] = math.nan
    with pytest.raises(InputError, match="not tangent"):
        bending.km_form(x, u, v)
    x[2, 0] = math.nan
    with pytest.raises(InputError, match="not tangent"):
        km_metric(x, v, v)
    # a tangency defect on one row is refused too
    x, u, v = _tangent_stack(rng, 5)
    v[4] = x[4]
    with pytest.raises(InputError, match="not tangent"):
        bending.km_complex(x, v)


def test_so3_moment(rng):
    # a closed polygon's edges are a point of the product of spheres of
    # radii alpha_i at which the SO(3) moment map (their sum) vanishes
    p = random_prodigal_polygon(rng, 5)
    assert np.abs(p.edges.sum(axis=-2)).max() < 1e-12
    assert np.abs(np.linalg.norm(p.edges, axis=-1)
                  - pg.side_lengths(p)).max() < 1e-12


def test_flow_of_constant_is_identity(rng):
    p = random_prodigal_polygon(rng, 5)
    out = bending.hamiltonian_flow(p.edges, np.zeros_like, 1.0)
    assert np.abs(out - p.edges).max() < 1e-12


def test_flow_matches_bend(rng):
    p = random_prodigal_polygon(rng, 5)
    X = bending.diagonal_field(3)
    for t in (0.1, 1.0):
        flowed = bending.hamiltonian_flow(p.edges, X, t)
        target = bending.bend(p, 3, t)
        assert np.abs(flowed - target.edges).max() < 1e-6


def _one_turn_miss():
    """How far a unit radius about d_2 lands from its start after a turn."""
    # x_1 = e_1 and x_2 = e_3 - e_1: d_2 = e_3, and x_1 is perpendicular to it
    w = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    out = bending.hamiltonian_flow(w, bending.diagonal_field(2), math.tau)
    return float(np.linalg.norm(out[0] - w[0]))


def test_one_turn_misses_by_the_closed_form_rk4_error(monkeypatch):
    # RK4 at S steps per turn lags a unit rotation by tau (tau/S)^4 / 120
    def bound(steps):
        return math.tau * (math.tau / steps) ** 4 / 120.0

    miss = _one_turn_miss()
    assert miss == pytest.approx(bound(bending.STEPS_PER_TURN), rel=0.01)
    # STEPS_PER_TURN is the least step count within 1e-10
    assert miss <= 1e-10 < bound(bending.STEPS_PER_TURN - 1)
    half = bending.STEPS_PER_TURN // 2
    monkeypatch.setattr(bending, "STEPS_PER_TURN", half)
    coarse = _one_turn_miss()
    assert coarse == pytest.approx(bound(half), rel=0.01)
    assert coarse / miss == pytest.approx(16.0, rel=0.02)


def test_flow_sign_is_measured_by_finite_differences():
    # the finite-difference flow of d_2 on this pentagon is bend(+t)
    edges = np.array([
        [1.0, 0.0, 0.0],
        [0.3, 0.9, 0.1],
        [-0.5, 0.2, 0.6],
        [-0.4, -0.8, -0.3],
    ])
    p = pg.Polygon(3, np.vstack([edges, -edges.sum(axis=0)]))
    t = 0.5
    flowed = bending.hamiltonian_flow(
        p.edges, fd_field(bending.diagonal_hamiltonian(2)), t)
    dev_plus = np.abs(bending.bend(p, 2, t).edges - flowed).max()
    dev_minus = np.abs(bending.bend(p, 2, -t).edges - flowed).max()
    assert dev_plus < 1e-6 < dev_minus


def test_diagonal_field_matches_finite_differences(rng):
    for m in range(4, 9):
        p = random_prodigal_polygon(rng, m)
        for i in range(1, m):
            H = bending.diagonal_hamiltonian(i)
            fd = fd_field(H)(p.edges)
            exact = bending.diagonal_field(i)(p.edges)
            assert np.abs(exact - fd).max() < 1e-7, (m, i)
            assert not exact[i:].any()


def test_flow_with_and_without_field_agree():
    # the bend suite's polygons and diagonals at seed 0
    for k in range(2):
        rng = trial_rng(0, k)
        p = random_prodigal_polygon(rng, 5 + k % 2)
        i = int(rng.integers(2, p.m - 1))
        H = bending.diagonal_hamiltonian(i)
        for t in (0.1, 1.0):
            fd = bending.hamiltonian_flow(p.edges, fd_field(H), t)
            exact = bending.hamiltonian_flow(p.edges,
                                             bending.diagonal_field(i), t)
            assert np.abs(exact - fd).max() < 1e-8, (k, t)


def test_diagonal_field_zero_diagonal_raises():
    flat = pg.Polygon(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    X = bending.diagonal_field(2)
    with pytest.raises(InputError, match="diagonal vanished"):
        X(flat.edges)
    with pytest.raises(InputError, match="diagonal vanished"):
        bending.hamiltonian_flow(flat.edges, X, 0.1)


def _batch(polys):
    return np.stack([p.edges for p in polys])


def _suite_batch(seed, m):
    """The bend suite's m-gons at ``seed`` with mixed head lengths, each
    one member per flow time: (polygons, heads)."""
    polys, heads = [], []
    for k in range(m - 5, 4, 2):
        rng = trial_rng(seed, k)
        p = random_prodigal_polygon(rng, m)
        i = int(rng.integers(2, m - 1))
        polys += [p] * len(FLOW_TIMES)
        heads += [i, 1, m - 2, i]
    return polys, heads


def _check_batch(w, out):
    assert out.shape == w.shape
    assert np.abs(np.linalg.norm(out, axis=-1)
                  - np.linalg.norm(w, axis=-1)).max() < 1e-12
    assert np.abs(out.sum(axis=-2)).max() < 1e-12


def test_equal_time_batch_matches_single_member_flows():
    # one shared time: the batch takes the step count of each single flow
    for seed, t in itertools.product(range(4), (0.1, -0.3)):
        for m in (5, 6):
            polys, heads = _suite_batch(seed, m)
            w = _batch(polys)
            out = bending.hamiltonian_flow(w, bending.diagonal_field(heads), t)
            _check_batch(w, out)
            for b, (p, head) in enumerate(zip(polys, heads)):
                one = bending.hamiltonian_flow(
                    p.edges, bending.diagonal_field(head), t)
                assert one.shape == (m, 3)
                assert np.abs(out[b] - one).max() < 1e-13, (seed, t, m, b)


def test_mixed_time_batch_matches_bend():
    # the bend suite's flow times, mixed across members: each member takes
    # the longest time's step count and still follows bend(+t)
    for seed in range(4):
        for m in (5, 6):
            polys, heads = _suite_batch(seed, m)
            times = FLOW_TIMES * (len(polys) // len(FLOW_TIMES))
            w = _batch(polys)
            out = bending.hamiltonian_flow(
                w, bending.diagonal_field(heads), times)
            _check_batch(w, out)
            for b, (p, head, t) in enumerate(zip(polys, heads, times)):
                target = bending.bend(p, head, t).edges
                assert np.abs(out[b] - target).max() < 1e-9, (seed, m, b)


def test_empty_batch_takes_no_step():
    def never(points):
        raise AssertionError("the field was evaluated")

    w = np.zeros((0, 5, 3))
    assert bending.hamiltonian_flow(w, never, 1.0).shape == (0, 5, 3)


@pytest.mark.parametrize("shape", [(0, 3), (2, 0, 3)])
def test_flow_refuses_points_with_no_rows(shape):
    with pytest.raises(InputError, match="m >= 1"):
        bending.hamiltonian_flow(np.zeros(shape), np.zeros_like, 1.0)


def test_flow_names_the_collapsing_member(rng):
    p = random_prodigal_polygon(rng, 5)
    w = _batch([p] * 3)
    # a constant field: the one step of length t takes member 1 to the
    # origin
    t = 0.5 * math.tau / bending.STEPS_PER_TURN
    push = np.zeros_like(w)
    push[1] = -w[1] / t
    with pytest.raises(InputError, match="collapsed") as err:
        bending.hamiltonian_flow(w, lambda points: push, t)
    assert "member 1" in str(err.value)
    assert "member 0" not in str(err.value)


def test_bend_range_refuses_a_diagonal_past_the_float_range():
    # finite edges whose block sums past the largest float
    p = pg.Polygon(3, [[1e308, 0, 0], [1e308, 0, 0], [-1e308, 0, 0],
                       [-1e308, 0, 0]])
    with pytest.raises(InputError, match=r"^diagonal \(1, 2\) is beyond "
                                         "the float range$"):
        bending.bend_range(p, (1, 2), 0.5)


@pytest.mark.parametrize("block", [(1, 1), (1, 2), (2, 3)])
def test_bend_range_takes_an_axis_beside_a_perimeter_that_overflows(block):
    # every coordinate and axis is finite, the perimeter is not: the bend is
    # the one of the polygon times 2^-1024, scaled back
    edges = np.array([[1.5e308, 0, 0], [-1.5e308, 0, 1e308],
                      [0, 0, -1e308]])
    assert math.isinf(1.5e308 + math.hypot(1.5e308, 1e308) + 1e308)
    got = bending.bend_range(pg.Polygon(3, edges), block, 0.7)
    unit = bending.bend_range(pg.Polygon(3, np.ldexp(edges, -1024)), block,
                              0.7)
    assert np.array_equal(got.edges, np.ldexp(unit.edges, 1024))


@pytest.mark.parametrize("match", ["collapsed", "domain"])
def test_single_flow_reports_leaving_the_region(rng, match):
    # one (m, 3) point: the one step of length t goes to the origin or
    # past the float range
    p = random_prodigal_polygon(rng, 5)
    t = 0.5 * math.tau / bending.STEPS_PER_TURN
    push = (-p.edges / t if match == "collapsed"
            else np.full_like(p.edges, 1e308))
    with pytest.raises(InputError, match=match):
        bending.hamiltonian_flow(p.edges, lambda points: push, t)


def _blows_up(member, after_steps):
    """Zero field, except on ``member`` from step ``after_steps`` on."""
    calls = [0]

    def X(points):
        calls[0] += 1
        out = np.zeros_like(points)
        if calls[0] > 4 * after_steps:
            out[member] = 1e308
        return out

    return X


def test_error_names_only_the_failing_member(rng):
    p = random_prodigal_polygon(rng, 5)
    w = _batch([p, p])
    with pytest.raises(InputError, match="domain") as err:
        bending.hamiltonian_flow(w, _blows_up(1, 100), (0.1, 1.0))
    assert "member 1" in str(err.value)
    assert "member 0" not in str(err.value)


def test_batched_field_names_the_vanishing_member():
    flat = pg.Polygon(3, [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    X = bending.diagonal_field((1, 2))
    with pytest.raises(InputError, match="member 1: diagonal"):
        X(np.stack([flat.edges, flat.edges]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_flow_refuses_a_time_that_is_not_finite(rng, bad):
    p = random_prodigal_polygon(rng, 5)
    with pytest.raises(ValueError, match="finite"):
        bending.hamiltonian_flow(p.edges, bending.diagonal_field(2), bad)
    # one bad member refuses the whole batch
    with pytest.raises(ValueError, match="finite"):
        bending.hamiltonian_flow(_batch([p] * 3), bending.diagonal_field(2),
                                 (0.1, bad, 1.0))


def test_flow_conserves_energy(rng):
    p = random_prodigal_polygon(rng, 5)
    H = bending.diagonal_hamiltonian(2)
    out = bending.hamiltonian_flow(p.edges, bending.diagonal_field(2),
                                   2 * math.pi)
    assert abs(H(out) - H(p.edges)) < 1e-8


def test_kahler_anchor_probe():
    # at row (sqrt(r), 0) the probe pair ((0,1), (0,i)) gives exactly 4/1
    for r in (0.5, 1.0, 1.7):
        row = np.array([math.sqrt(r), 0.0], dtype=complex)
        u = np.array([0.0, 1.0], dtype=complex)
        v = np.array([0.0, 1j], dtype=complex)
        num, den = kahler_probe_terms(row, u, v)
        assert num == pytest.approx(4.0, abs=1e-9)
        assert den == pytest.approx(1.0, abs=1e-9)


def test_kahler_ratio_random(rng):
    # 50 random rows, each with two horizontal tangents z (-conj v, conj u)
    row = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    z = rng.standard_normal((50, 2)) + 1j * rng.standard_normal((50, 2))
    horizontal = np.stack([-row[:, 1].conj(), row[:, 0].conj()], axis=-1)
    num, den = kahler_probe_terms(row, z[:, :1] * horizontal,
                                  z[:, 1:] * horizontal)
    assert num.shape == den.shape == (50,) and (abs(den) >= 1e-9).all()
    assert (abs(num / den - 4.0) < 1e-6).all()


def _central_hopf_differential(row, tangent, h=1e-6):
    plus = quat.hopf_complex(row[0] + h * tangent[0], row[1] + h * tangent[1])
    minus = quat.hopf_complex(row[0] - h * tangent[0], row[1] - h * tangent[1])
    return (plus - minus) / (2.0 * h)


def test_hopf_differential_matches_central_differences(rng):
    for _ in range(200):
        row = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        tangent = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        exact = quat.hopf_differential(*row, *tangent)
        fd = _central_hopf_differential(row, tangent)
        assert np.abs(exact - fd).max() < 1e-7


def test_degenerate_probe_pair():
    # the flat form vanishes on a repeated vector; the probe still answers
    row = np.array([1.0, 0.0], dtype=complex)
    u = np.array([0.0, 1.0], dtype=complex)
    num, den = kahler_probe_terms(row, u, u)
    assert num == 0.0 and den == 0.0
