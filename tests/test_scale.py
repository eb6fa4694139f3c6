"""Scale invariance: every zero test reads the polygon's own scale.

Multiplying every input by 2^k scales every float exactly, far from the
ends of the float range, so each output must be the unit-scale output
times 2^k and each exit code must be the unit-scale one. Every length
here lies far from those ends at every k in SCALES.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from polyspace import bending, cli, frames, polygon as pg, reconstruct as rec
from polyspace.errors import InputError
from polyspace.verify import random_prodigal_polygon

SCALES = (-60, -40, -20, 0, 20, 40, 60)


def _run(capsys, *argv):
    """Exit code and parsed stdout (None unless the exit code is 0)."""
    code = cli.main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, json.loads(out) if code == 0 else None


def _floats(values, k):
    return ",".join(repr(math.ldexp(float(v), k)) for v in values)


def _unscaled(doc, k):
    """A polygon document (or a list of them) times 2^-k, as arrays."""
    if isinstance(doc, list):
        return [_unscaled(d, k) for d in doc]
    return [np.ldexp(np.array(v, dtype=float), -k) for v in
            (doc["edges"], doc["meta"]["alpha"], doc["meta"]["diagonals"])]


def _assert_covariant(capsys, argv_at):
    """``argv_at(k)`` exits as at k = 0 at every scale, and its output is
    the unit-scale one times 2^k."""
    code, doc = _run(capsys, *argv_at(0))
    for k in SCALES:
        code_k, doc_k = _run(capsys, *argv_at(k))
        assert code_k == code, (k, argv_at(k))
        if code == 0:
            for got, want in zip(_unscaled(doc_k, k), _unscaled(doc, 0)):
                assert all(map(np.array_equal, got, want)), (k, argv_at(k))
    return code


def _clear_of_tiny(alpha, delta):
    """Each diagonal is 0 or above 1e-9 times the perimeter sum(alpha) >= 1,
    so it stays on one side of ``_tiny``'s degenerate-circle cut, 1e-12
    min(1, perimeter), at every scale, and at least 1e3 from it."""
    per = sum(alpha)
    return all(d == 0 or d > 1e-9 * per for d in delta)


def _lengths(rng, m):
    """Feasible integer side lengths 1..19."""
    while True:
        alpha = [int(a) for a in rng.integers(1, 20, size=m)]
        if pg.is_feasible_lengths(alpha):
            return alpha


def _reconstruct_cases():
    """(alpha, delta, exit code) for m = 4..7: a diagonal point drawn by
    ``sample_ld``, and its twin with one diagonal stretched by the
    perimeter, which breaks a triangle inequality by about the perimeter."""
    rng = np.random.default_rng(26)
    cases = []
    for m in range(4, 8):
        while len(cases) < 16 * (m - 3):
            alpha = _lengths(rng, m)
            delta = [float(d) for d in rec.sample_ld(alpha, rng).delta]
            if not _clear_of_tiny(alpha, delta):
                continue
            stretched = list(delta)
            stretched[rng.integers(m - 3)] += sum(alpha)
            cases += [(alpha, delta, 0), (alpha, stretched, 3)]
    return cases


def _reconstruct_argv(alpha, delta, extra):
    return lambda k: ["reconstruct", "--alpha", _floats(alpha, k),
                      "--diag", _floats(delta, k), *extra]


@pytest.mark.parametrize("alpha, delta, code", _reconstruct_cases())
def test_reconstruct_is_scale_covariant(capsys, alpha, delta, code):
    planar = _reconstruct_argv(alpha, delta, ["--dim", "2"])
    assert _assert_covariant(capsys, planar) == code
    # bent about every free diagonal: a zero one exits 3 at every scale
    angles = ",".join(["0.7"] * len(delta))
    _assert_covariant(capsys, _reconstruct_argv(alpha, delta,
                                                ["--angles", angles]))


def _sample_argv(alpha, dim, seed):
    return lambda k: ["sample", "--alpha", ",".join(
        str(Fraction(a) * Fraction(2) ** k) for a in alpha),
        "--dim", dim, "--count", 1, "--seed", seed]


def test_sample_and_bend_are_scale_covariant(capsys, tmp_path):
    rng = np.random.default_rng(27)
    for m in range(4, 10):
        for seed in range(2):
            alpha = _lengths(rng, m)
            if seed:  # a zero side
                alpha[rng.integers(m)] = 0
            if pg.is_feasible_lengths(alpha):
                # sample 1 of a count of 1 is sample_ld's first draw
                ld = rec.sample_ld(alpha, np.random.default_rng(seed))
                assert _clear_of_tiny(alpha, ld.delta)
            for dim in (2, 3):
                argv = _sample_argv(alpha, dim, seed)
                code = _assert_covariant(capsys, argv)
            if code:
                continue
            edges = _run(capsys, *argv(0))[1][0]["edges"]
            for k in SCALES:
                (tmp_path / f"{k}.json").write_text(json.dumps(
                    {"dim": 3, "edges": np.ldexp(edges, k).tolist()}))
            _assert_covariant(capsys, lambda k: [
                "bend", "--in", tmp_path / f"{k}.json", "--range",
                f"2,{m - 1}", "--angle", 1.1])


@pytest.mark.parametrize("k", (532, 1020))
def test_bend_keeps_sides_whose_squares_overflow(capsys, tmp_path, k):
    # sides of about 1e160 (k = 532) and 1e307: far inside the float range,
    # though their squares are not, so the norms are taken at a smaller
    # power of two; the bent triangle is the unit one's times 2^k
    edges = np.array([[1.0, 0.0, 0.0], [-0.5, math.sqrt(3) / 2, 0.5]])
    edges = np.vstack([edges, -edges.sum(axis=0)])
    docs = []
    for scale in (0, k):
        (tmp_path / f"{scale}.json").write_text(json.dumps(
            {"dim": 3, "edges": np.ldexp(edges, scale).tolist()}))
        code, doc = _run(capsys, "bend", "--in", tmp_path / f"{scale}.json",
                         "--range", "1,2", "--angle", 0.7)
        assert code == 0, scale
        docs.append(_unscaled(doc, scale))
    assert all(map(np.array_equal, docs[1], docs[0]))


def _predicates(p):
    return pg.stratum_index(p), pg.is_lined(p), pg.is_prodigal(p)


def test_polygon_predicates_are_scale_invariant(rng):
    square = [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]]
    polygons = [
        square,
        square[:2] + [[0, 0, 0]] + square[2:],      # one zero edge
        [[1, 0, 0], [2, 0, 0], [0, 0, 0], [-3, 0, 0]],   # lined
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]],  # not prodigal
        random_prodigal_polygon(rng, 6).edges,
    ]
    for edges in polygons:
        want = _predicates(pg.Polygon(3, edges))
        for k in SCALES:
            assert _predicates(pg.Polygon(3, np.ldexp(edges, k))) == want, k
    assert [_predicates(pg.Polygon(3, e)) for e in polygons[:4]] == [
        (4, False, True), (4, False, True), (3, True, True),
        (4, False, False)]


def test_flow_matches_bend_at_every_scale(rng):
    p = random_prodigal_polygon(rng, 5)
    for k in SCALES:
        pk = pg.Polygon(3, np.ldexp(p.edges, k))
        flowed = bending.hamiltonian_flow(pk.edges, bending.diagonal_field(3),
                                          1.0)
        dev = np.abs(flowed - bending.bend(pk, 3, 1.0).edges).max()
        assert dev <= 1e-9 * pg.perimeter(pk), k


def test_tangency_refusal_is_scale_invariant():
    x, u, v = [0.6, 0.8, 0.0], [-0.8, 0.6, 0.0], [0.0, 0.0, 1.0]
    # 53 degrees out of the tangent plane at x
    tilted = np.cos(np.radians(37)) * np.array(x) + np.sin(
        np.radians(37)) * np.array(v)
    unit = bending.km_form(x, u, v)
    for k in SCALES:
        xk, uk, vk = (np.ldexp(w, k) for w in (x, u, v))
        assert bending.km_form(xk, uk, vk) == math.ldexp(unit, k), k
        with pytest.raises(InputError, match="not tangent"):
            bending.km_form(xk, uk, np.ldexp(tilted, k))


def test_orthonormalize_is_scale_invariant(rng):
    a = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    frame = frames.frame_orthonormalize(a, b)
    refused = [(1e-10 * a, b, "first column"),
               (a, 2 * a + 1e-10 * b, "linearly dependent")]
    for k in SCALES:
        # a complex vector times a power of 2 is exact
        scaled = frames.frame_orthonormalize(a * 2.0 ** k, b * 2.0 ** k)
        assert all(map(np.array_equal, scaled, frame)), k
        for a_bad, b_bad, match in refused:
            with pytest.raises(InputError, match=match):
                frames.frame_orthonormalize(a_bad * 2.0 ** k,
                                            b_bad * 2.0 ** k)
