"""Scale invariance: every zero test reads the polygon's own scale.

Multiplying every input by 2^k scales every float exactly, so each exit
code must be the unit-scale one and each output the unit-scale output
times 2^k. The library functions are checked at SCALES. The commands run
each float kernel on its input times a power of 2 of its own, and are
checked at WIDE, across the float range: bit for bit wherever an entry
is a normal float, and its squares too for a norm.
"""

import json
import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from polyspace import bending, cli, frames, polygon as pg, reconstruct as rec
from polyspace.errors import InputError
from polyspace.verify import random_prodigal_polygon

SCALES = (-60, -40, -20, 0, 20, 40, 60)
WIDE = range(-1000, 1001, 25)
NORMAL = sys.float_info.min       # the least normal float, 2^-1022
SQUARE_NORMAL = 2.0 ** -480       # a norm whose squares are all normal


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


def _assert_scaled(got, want, k, floor):
    """got is want times 2^k: bit for bit where |got| >= floor, and within
    2^-50 of the largest |want| elsewhere."""
    got = np.array(got, dtype=float)
    back, exact = np.ldexp(got, -k), np.abs(got) >= floor
    assert np.array_equal(back[exact], want[exact])
    assert np.abs(back - want).max() <= 2.0 ** -50 * np.abs(want).max()


def _assert_document_scaled(doc_k, doc, k):
    """A polygon document at scale 2^k against the one at scale 1: edges
    with the unit-scale bits where they are normal floats, and sides and
    diagonals that are the norms of its edges recomputed at scale 1 by
    numpy, bit for bit where their squares are normal (a norm whose
    squares underflow beside larger ones is only near)."""
    _assert_scaled(doc_k["edges"], np.array(doc["edges"]), k, NORMAL)
    edges = np.ldexp(np.array(doc_k["edges"], dtype=float), -k)
    for name, rows in (("alpha", edges),
                       ("diagonals", np.cumsum(edges, axis=0))):
        _assert_scaled(doc_k["meta"][name], np.linalg.norm(rows, axis=1), k,
                       SQUARE_NORMAL)


def _assert_covariant(capsys, argv_at, scales=WIDE):
    """``argv_at(k)`` exits as at k = 0 at every k in ``scales``, and its
    output is the unit-scale one times 2^k."""
    code, doc = _run(capsys, *argv_at(0))
    docs = doc if isinstance(doc, list) else [doc]
    for k in scales:
        code_k, doc_k = _run(capsys, *argv_at(k))
        assert code_k == code, (k, argv_at(k))
        if code == 0:
            docs_k = doc_k if isinstance(doc_k, list) else [doc_k]
            assert len(docs_k) == len(docs)
            for got, want in zip(docs_k, docs):
                _assert_document_scaled(got, want, k)
    return code


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
            for dim in (2, 3):
                argv = _sample_argv(alpha, dim, seed)
                code = _assert_covariant(capsys, argv)
            if code:
                continue
            edges = _run(capsys, *argv(0))[1][0]["edges"]
            for k in WIDE:
                (tmp_path / f"{k}.json").write_text(json.dumps(
                    {"dim": 3, "edges": np.ldexp(edges, k).tolist()}))
            _assert_covariant(capsys, lambda k: [
                "bend", "--in", tmp_path / f"{k}.json", "--range",
                f"2,{m - 1}", "--angle", 1.1])


def test_bend_reads_every_file_sample_writes(capsys, tmp_path):
    # up to k = 1020, where the perimeter sum overflows though every side
    # and diagonal is finite: the bend is the unit-scale one times 2^k
    scales = [*WIDE, 1020]
    sample = _sample_argv((3, 4, 5, 6, 2, 7), 3, 11)
    for k in [0, *scales]:
        out = ["--out", str(tmp_path / f"{k}.json")]
        assert cli.main([str(a) for a in sample(k)] + out) == 0
    assert _assert_covariant(capsys, lambda k: [
        "bend", "--in", tmp_path / f"{k}.json", "--range", "2,5",
        "--angle", 1.1], scales) == 0


@pytest.mark.parametrize("dim", (2, 3))
def test_a_stack_of_samples_is_scale_covariant(capsys, dim):
    alpha = (3, 4, 5, 6, 2, 7)
    _assert_covariant(capsys, lambda k: [
        "sample", "--alpha", ",".join(str(a * Fraction(2) ** k)
                                      for a in alpha),
        "--dim", dim, "--count", 4, "--seed", 11])


@pytest.mark.parametrize("alpha, diag", [
    ("1e308,1e308,1e308", ""), ("1.7e308,1.7e308,1.7e308", ""),
    ("1e308,1.7e308,1.7e308", ""), ("1.7e308,1e308,1.7e308", ""),
    ("1.7e308,1.7e308,1e308,1e308", "1.5e308"),
    ("1.7e308,1e308,1.7e308,1e308", "1.7e308"),
    (f"{sys.float_info.max},1e308,{sys.float_info.max},1e308", "1.5e308"),
])
@pytest.mark.parametrize("argv", (["reconstruct", "--dim", "2"],
                                  ["reconstruct", "--dim", "3"],
                                  ["reconstruct", "--angles"],
                                  ["sample", "--dim", "2"],
                                  ["sample", "--dim", "3"]))
def test_lengths_whose_sum_overflows_are_placed_or_refused(capsys, alpha,
                                                            diag, argv):
    # the perimeter is past the float range, the lengths are not: the
    # polygon written has the lengths and closes, or the command exits 1
    lengths = np.array(alpha.split(","), dtype=float)
    if argv[0] == "sample":
        argv = argv + ["--count", 3]
    elif argv[1] == "--angles":
        argv = argv + ["2.5" if diag else "", "--diag", diag]
    else:
        argv = argv + ["--diag", diag]
    code, doc = _run(capsys, *argv, "--alpha", alpha)
    assert code in (0, 1)
    for d in doc if isinstance(doc, list) else [doc] if code == 0 else []:
        # taken at 2^-1024, where nothing overflows
        edges = np.ldexp(np.array(d["edges"]), -1024)
        sides = np.linalg.norm(edges, axis=1)
        assert np.allclose(sides, np.ldexp(lengths, -1024), rtol=1e-15,
                           atol=0.0)
        assert np.linalg.norm(edges.sum(axis=0)) <= 1e-15 * sides.max()
        if argv[0] == "reconstruct" and diag:
            d2 = np.linalg.norm(edges[:2].sum(axis=0))
            assert d2 == pytest.approx(math.ldexp(float(diag), -1024),
                                       rel=1e-15)


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
    # a square whose perimeter sum overflows reads as its 2^-1024 copy
    huge = np.multiply(square, 1e308)
    for edges in (huge, np.ldexp(huge, -1024)):
        assert _predicates(pg.Polygon(3, edges)) == (4, False, True)


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
