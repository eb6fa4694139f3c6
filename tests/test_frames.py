"""Frames, moment maps and the truncated-matrix eigenvalue identities."""

import math

import numpy as np
import pytest

from polyspace import frames, polygon as pg, quat
from polyspace.errors import InputError
from polyspace.frames import Frame

from conftest import reflect


# Test-only oracles: three frame maps as they were when the package kept
# them as frames.conjugate_frame, frames.gram and frames.u2_moment.
def conjugate_frame(f: Frame) -> Frame:
    """Entrywise conjugation; reflects the polygon across the i-k plane."""
    return Frame(f.a.conj(), f.b.conj())


def gram(f: Frame) -> np.ndarray:
    """The m x m matrix (a, b)(a, b)*, a rank-2 hermitian projector."""
    mat = np.column_stack(f)
    return mat @ mat.conj().T


def u2_moment(f: Frame) -> np.ndarray:
    """(a, b)*(a, b) - I; vanishes exactly on valid frames."""
    mat = np.column_stack(f)
    return mat.conj().T @ mat - np.eye(2)


def basis_frame(m=3):
    a = np.zeros(m, dtype=complex)
    b = np.zeros(m, dtype=complex)
    a[0] = 1.0
    b[1] = 1.0
    return Frame(a, b)


def test_orthonormalize_basis_fixed():
    f = frames.frame_orthonormalize([1, 0, 0], [0, 1, 0])
    assert np.allclose(f.a, [1, 0, 0])
    assert np.allclose(f.b, [0, 1, 0])


def test_orthonormalize_gram_schmidt():
    f = frames.frame_orthonormalize([2, 0, 0], [1, 1, 0])
    assert np.allclose(f.a, [1, 0, 0])
    assert np.allclose(f.b, [0, 1, 0])


def test_orthonormalize_random(rng):
    for _ in range(50):
        a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        f = frames.frame_orthonormalize(a, b)
        assert np.abs(u2_moment(f)).max() < 1e-12


def test_orthonormalize_dependent():
    with pytest.raises(InputError, match="linearly dependent"):
        frames.frame_orthonormalize([1, 1j, 0], [2, 2j, 0])
    with pytest.raises(InputError, match="first column"):
        frames.frame_orthonormalize([math.nan, 1, 0], [0, 1, 0])
    for a, b in (([1, 0, 0], [1, 0]), ([[1, 0], [0, 1]], [[0, 1], [1, 0]])):
        with pytest.raises(InputError, match="vectors of equal length"):
            frames.frame_orthonormalize(a, b)


@pytest.mark.parametrize("a, b, match", [
    ([math.inf, 1, 0], [0, 1, 0], "first column has an entry that is not"),
    ([1, 0, 0], [math.inf, 1, 0], "second column has an entry that is not"),
    ([1, 0, 0], [math.nan, 1, 0], "second column has an entry that is not"),
    ([1, complex(0, -math.inf), 0], [0, 1, 0], "first column has an entry"),
    # finite entries whose norm overflows, refused without a RuntimeWarning
    ([1e200, 1e200, 0], [0, 1, 0], "first column has a norm beyond"),
    ([1, 0, 0], [0, 1e200, 0], "second column has a norm beyond"),
])
def test_orthonormalize_names_the_column_that_is_not_finite(a, b, match):
    with pytest.raises(InputError, match=match):
        frames.frame_orthonormalize(a, b)


def test_frame_to_polygon_basis():
    p = frames.frame_to_polygon(basis_frame())
    assert np.allclose(p.edges, [[1, 0, 0], [-1, 0, 0], [0, 0, 0]])


def test_frame_to_polygon_two_rows():
    # degenerate 2-gon, allowed by the permissive constructor
    p = frames.frame_to_polygon(basis_frame(2))
    assert np.allclose(p.edges, [[1, 0, 0], [-1, 0, 0]])


def test_frame_to_polygon_closure_and_perimeter(rng):
    for m in (3, 5, 8):
        f = frames.random_frame(m, rng)
        p = frames.frame_to_polygon(f)
        assert pg.perimeter(p) == pytest.approx(2.0, abs=1e-10)
        assert pg.closure_defect(p) < 1e-10


def test_torus_action_fixes_polygon(rng):
    f = frames.random_frame(5, rng)
    p = frames.frame_to_polygon(f)
    theta = rng.uniform(0, 2 * math.pi, size=5)
    q = frames.frame_to_polygon(frames.torus_act(f, theta))
    assert np.abs(p.edges - q.edges).max() < 1e-12
    g = frames.torus_act(f, np.full(5, math.pi))
    assert np.allclose(g.a, -f.a)


def test_torus_phase_recovery(rng):
    # frames over the same proper polygon differ by recoverable phases
    f = frames.random_frame(4, rng)
    theta = rng.uniform(0, 2 * math.pi, size=4)
    g = frames.torus_act(f, theta)
    recovered = np.angle(g.a * f.a.conj() + g.b * f.b.conj())
    assert np.abs(frames.torus_act(f, recovered).a - g.a).max() < 1e-12


def _random_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_u2_equivariance(rng):
    f = frames.random_frame(5, rng)
    P = _random_unitary(rng)
    lhs = frames.frame_to_polygon(frames.u2_act(f, P)).edges
    rhs = np.array([quat.conjugate_vector(P, e)
                    for e in frames.frame_to_polygon(f).edges])
    assert np.abs(lhs - rhs).max() < 1e-10


def test_u2_preserves_lengths_and_gram(rng):
    f = frames.random_frame(6, rng)
    P = _random_unitary(rng)
    g = frames.u2_act(f, P)
    assert np.abs(frames.moment_mu(g) - frames.moment_mu(f)).max() < 1e-11
    assert np.abs(gram(g) - gram(f)).max() < 1e-12
    with pytest.raises(InputError, match="not unitary"):
        frames.u2_act(f, np.ones((2, 2)))
    with pytest.raises(InputError, match="not unitary"):
        frames.u2_act(f, [[math.nan, 0], [0, 1]])


def test_conjugate_frame_is_reflection(rng):
    f = frames.random_frame(5, rng)
    p = frames.frame_to_polygon(f)
    q = frames.frame_to_polygon(conjugate_frame(f))
    # conjugation flips the j-coordinate and fixes the i-k plane
    assert np.abs(q.edges - reflect(p, axis=1).edges).max() < 1e-12
    back = conjugate_frame(conjugate_frame(f))
    assert np.abs(back.a - f.a).max() == 0.0


def test_real_frame_polygon_in_ik_plane():
    f = frames.frame_orthonormalize([0.6, 0.8, 0.0], [-0.8, 0.6, 0.0])
    p = frames.frame_to_polygon(f)
    assert np.abs(p.edges[:, 1]).max() < 1e-15


def test_gram_is_projector(rng):
    f = frames.random_frame(5, rng)
    psi = gram(f)
    assert np.trace(psi).real == pytest.approx(2.0, abs=1e-10)
    assert np.abs(psi @ psi - psi).max() < 1e-9
    assert np.allclose(gram(basis_frame()), np.diag([1, 1, 0]))


def test_u2_moment_vanishes(rng):
    f = frames.random_frame(4, rng)
    assert np.abs(u2_moment(f)).max() < 1e-10
    stretched = Frame(f.a * np.sqrt(2), f.b)
    m = u2_moment(stretched)
    assert m[0, 0].real == pytest.approx(1.0, abs=1e-9)


def test_moment_mu(rng):
    assert np.allclose(frames.moment_mu(basis_frame()), [1, 1, 0])
    f = frames.random_frame(7, rng)
    mu = frames.moment_mu(f)
    assert mu.sum() == pytest.approx(2.0, abs=1e-12)
    ell = pg.side_lengths(frames.frame_to_polygon(f))
    assert np.abs(mu - ell).max() < 1e-12


def test_truncated_gram(rng):
    f = frames.random_frame(5, rng)
    assert np.abs(frames.truncated_gram2(f, 5) - np.eye(2)).max() < 1e-10
    assert np.allclose(frames.truncated_gram2(basis_frame(), 1),
                       np.diag([1, 0]))
    h = frames.truncated_gram2(f, 3)
    assert np.abs(h - h.conj().T).max() < 1e-14
    lo, hi = frames.eig2(h)
    assert lo >= -1e-12


def test_eig2():
    assert frames.eig2(np.diag([1.0, 0.0])) == (0.0, 1.0)
    assert frames.eig2(np.array([[1.0, 1.0], [1.0, 1.0]])) == pytest.approx(
        (0.0, 2.0))
    with pytest.raises(InputError, match="not hermitian"):
        frames.eig2(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InputError, match="not hermitian"):
        frames.eig2(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_eig2_matches_numpy(rng):
    for _ in range(100):
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = g + g.conj().T
        lo, hi = frames.eig2(h)
        ref = np.linalg.eigvalsh(h)
        assert abs(lo - ref[0]) < 1e-12
        assert abs(hi - ref[1]) < 1e-12


def test_gc_pattern_identities(rng):
    for m in (3, 5, 8):
        f = frames.random_frame(m, rng)
        p = frames.frame_to_polygon(f)
        pat = frames.gc_pattern(f)
        assert np.abs(pat.sums - np.cumsum(pg.side_lengths(p))).max() < 1e-10
        assert np.abs(pat.diffs - pg.diagonals(p)).max() < 1e-10
        assert pat.sums[-1] == pytest.approx(2.0, abs=1e-10)
        assert pat.diffs[-1] < 1e-10
        assert frames.interlacing_slack(pat) > -1e-9


def test_gc_pattern_matches_truncated_loop(rng):
    for m in range(3, 11):
        f = frames.random_frame(m, rng)
        pat = frames.gc_pattern(f)
        for i in range(1, m + 1):
            lo, hi = frames.eig2(frames.truncated_gram2(f, i))
            assert abs(pat.sums[i - 1] - (lo + hi)) <= 1e-14
            assert abs(pat.diffs[i - 1] - (hi - lo)) <= 1e-14
        # a (k, m) stack gives each member's one-frame values
        members = [frames.random_frame(m, rng) for _ in range(5)]
        stack = Frame(*map(np.array, zip(*members)))
        pats = frames.gc_pattern(stack)
        slacks = frames.interlacing_slack(pats)
        mus = frames.moment_mu(stack)
        edges = quat.hopf_complex(*stack)
        assert pats.sums.shape == mus.shape == (5, m)
        assert slacks.shape == (5,) and edges.shape == (5, m, 3)
        for j, g in enumerate(members):
            one = frames.gc_pattern(g)
            assert np.array_equal(pats.sums[j], one.sums)
            assert np.array_equal(pats.diffs[j], one.diffs)
            assert slacks[j] == frames.interlacing_slack(one)
            assert np.array_equal(mus[j], frames.moment_mu(g))
            assert np.array_equal(edges[j], frames.frame_to_polygon(g).edges)


def test_gc_first_row():
    pat = frames.gc_pattern(basis_frame())
    assert pat.sums[0] == pytest.approx(pat.diffs[0])


def test_frame_from_polygon_round_trip(rng):
    for m in (3, 5, 6):
        f = frames.random_frame(m, rng)
        p = frames.frame_to_polygon(f)
        g = frames.frame_from_polygon(p)
        assert np.abs(u2_moment(g)).max() < 1e-9
        q = frames.frame_to_polygon(g)
        assert np.abs(q.edges - p.edges).max() < 1e-9


def test_frame_from_polygon_validation():
    square = pg.Polygon(3, [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    with pytest.raises(InputError, match="perimeter is"):
        frames.frame_from_polygon(square)
    open_path = pg.Polygon(3, [[1, 0, 0], [0, 0.75, 0], [-0.25, 0, 0]])
    with pytest.raises(InputError, match="do not sum"):
        frames.frame_from_polygon(open_path)
    nan_edge = pg.Polygon(3, [[1, 0, 0], [math.nan, 0, 0], [-0.5, 0, 0]])
    with pytest.raises(InputError, match="perimeter is|do not sum"):
        frames.frame_from_polygon(nan_edge)


def _closed_stack(rng, count=4, m=5):
    """A stack of closed perimeter-2 polygons, their edges (count, m, 3)."""
    edges = rng.standard_normal((count, m, 3))
    edges -= edges.mean(axis=1, keepdims=True)
    return edges * (2.0 / np.linalg.norm(edges, axis=-1).sum(axis=-1))[
        :, None, None]


def test_stacked_lift_is_each_polygons_lift(rng):
    edges = _closed_stack(rng)
    f = frames.frame_from_edges(edges)
    assert f.a.shape == f.b.shape == (4, 5)
    for b, e in enumerate(edges):
        g = frames.frame_from_polygon(pg.Polygon(3, e))
        assert np.array_equal(f.a[b], g.a) and np.array_equal(f.b[b], g.b)


def test_stacked_lift_refuses_one_bad_member(rng):
    edges = _closed_stack(rng)
    scaled = edges.copy()
    scaled[2] *= 1.5
    opened = edges.copy()
    # a perimeter-2 path that does not close: its last edge reversed
    opened[1, -1] *= -1.0
    for stack, bad, message in ((scaled, 2, r"perimeter is 2\.99"),
                                (opened, 1, "edge vectors do not sum")):
        with pytest.raises(InputError, match=message) as one:
            frames.frame_from_polygon(pg.Polygon(3, stack[bad]))
        # the stack says what the lift of its bad member alone says
        with pytest.raises(InputError) as err:
            frames.frame_from_edges(stack)
        assert str(err.value) == str(one.value)


def test_frame_from_polygon_deterministic():
    p = pg.Polygon(3, [[0.5, 0, 0], [0, 0.5, 0], [-0.5, 0, 0], [0, -0.5, 0]])
    f = frames.frame_from_polygon(p)
    g = frames.frame_from_polygon(p)
    assert np.array_equal(f.a, g.a) and np.array_equal(f.b, g.b)
