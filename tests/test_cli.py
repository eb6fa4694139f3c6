"""CLI surface: documents, exit codes, determinism."""

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyspace import bending, cli, errors
from polyspace import polygon as pg
from polyspace import reconstruct as rec

MAX = repr(sys.float_info.max)   # the largest float, 1.7976931348623157e308


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_input_error(capsys, *argv):
    """Run a command that must fail with exit 1 and a one-line message."""
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    assert code == 1, (argv, captured.out)
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1, captured.err
    return captured.err


def test_polytope_json(capsys):
    code, out = run(capsys, "polytope", "--alpha", "2,1,5,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["variables"] == ["d2", "d3"]
    assert doc["facets"] == 3
    assert doc["generic"] is True


def test_polytope_quad_interval(capsys):
    code, out = run(capsys, "polytope", "--alpha", "1,2,3,5")
    assert code == 0
    doc = json.loads(out)
    verts = sorted(v[0] for v in doc["vertices"])
    assert verts == ["2", "3"]


def test_polytope_even_nongeneric_flag(capsys):
    code, out = run(capsys, "polytope", "--alpha", "1,1,1,1,1,1",
                    "--system", "even")
    assert code == 0
    assert json.loads(out)["generic"] is False


def test_polytope_csv_and_svg(tmp_path, capsys):
    svg = tmp_path / "out.svg"
    code, out = run(capsys, "polytope", "--alpha", "2,1,3,1,2",
                    "--format", "csv", "--svg", str(svg))
    assert code == 0
    assert out.splitlines()[0] == "vertex,d2,d3"
    text = svg.read_text()
    assert text.startswith("<svg")
    assert 'viewBox="0 0 800 800"' in text


@pytest.mark.parametrize("argv, digest", [
    # dim 1, with labels
    ("polytope --alpha 1,2,2,1",
     "6b1aa5a2e535a996d801884facdd71edeae7c6181b19829b8d590af5852df3e1"),
    # dim 2, vertices sorted by angle about their centroid
    ("polytope --alpha 2,1,3,1,2",
     "ce0962af79445c4a6aa105fe47e3edde254775701832e3957548845ac84b373d"),
    # a polygon: unfilled path, no labels
    ("section --alpha 2/3,2/3,2/3",
     "66ea819d2ed54d00ab7076860936860759151cebe9fb75027d374c2b4399cfba"),
])
def test_svg_bytes_are_pinned(tmp_path, capsys, argv, digest):
    svg = tmp_path / "f.svg"
    assert run(capsys, *argv.split(), "--svg", str(svg))[0] == 0
    assert hashlib.sha256(svg.read_bytes()).hexdigest() == digest


def test_svg_fits_a_polygon_of_any_scale(tmp_path, capsys):
    # times 2^-50 every coordinate is exactly scaled: the page is the same
    drawings = []
    for k in (0, -50):
        alpha, diag = ([repr(math.ldexp(x, k)) for x in values]
                       for values in ((1, 2, 2, 1, 1), (2.5, 2)))
        svg = tmp_path / f"{k}.svg"
        assert run(capsys, "reconstruct", "--alpha", ",".join(alpha),
                   "--diag", ",".join(diag), "--dim", "2",
                   "--svg", str(svg))[0] == 0
        drawings.append(svg.read_bytes())
    assert drawings[0] == drawings[1]


@pytest.mark.parametrize("argv, digest", [
    ("polytope --alpha 2,1,3,1,2",
     "46d76a9c9d30ab8eb8ace8b51ddb556add18277b56d4e50ad891c07f342e22e9"),
    # dim 0: the header is "vertex," and the one row "0,"
    ("polytope --alpha 1,1,1",
     "b103eb669a2d40427a1813938320abd71db79bdef346b1f220b8a1018422a826"),
    # the planar flips are bends by pi, one suffix product per edge
    ("sample --alpha 1,1,1,1,1 --count 2 --seed 3 --dim 2",
     "e22688c2b895255c53fc715fa45a816d95e6472ffd11c7730079b0fdf73cf478"),
    ("sample --alpha 1,1,1,1,1 --count 2 --seed 3 --dim 3",
     "e5a91df1cad3432e737969b9e0de1347e05966f754c8f614654a190af933f92a"),
])
def test_csv_bytes_are_pinned(capsys, argv, digest):
    code, out = run(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    ("polytope --alpha 2,1,5,1,2",
     "2aabb28b5f4cb04efd15a9d0cc8919ea89f9c3c9b1ae7766c1e567d6074a9e7a"),
    # the pairing tree: the triangle rows of (a1, a2, x1), (a3, a4, x2)
    # and (x1, x2, a5)
    ("polytope --alpha 2,1,5,1,2 --system even",
     "1c74b6569bd801fe909672159920a84be7cdabbcf32da1e7a85e3f7d476e0852"),
    # dim 0: no rows, and the one vertex is the empty point
    ("polytope --alpha 1,1,1",
     "ec926722bb35cbc2e140fccd8cfff0e3511d66149caed60166f3d4216a9c9ccc"),
    # on a wall (beta_2 = 1): the triangle is flat and every edge lies on
    # the x-axis, with no rounding left in its exact-cosine direction
    ("section --alpha 1/22,21/22,1",
     "859bd32d00702d0cdba8d90b0f707e873055be56bb6dc59a466f80f71d6ec266"),
    # the polygon documents: json.dumps(indent=2) bytes, lists included
    ("sample --alpha 1,1,1,1,1 --count 2 --seed 3 --dim 2",
     "d8ee91dcef168b4f388a205154e431bf685d2c3c8de59c077d93ab43e1126189"),
    ("sample --alpha 1,1,1,1,1 --count 2 --seed 3 --dim 3",
     "d7716cbda657d373c00e395398452b229a53e7691daa30b0fe4a293f96ba1c88"),
    # an empty sample is the empty list "[]" and a newline
    ("sample --alpha 1,1,1,1,1 --count 0",
     "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570"),
    ("reconstruct --alpha 1,1,1,1,1 --diag 1.2,1.2",
     "0867c7018570a2b91bcfaca252277c5845815d60ed57f7b1c661888cbc7c417c"),
    ("reconstruct --alpha 1,1,1,1,1 --diag 1.2,1.2 --angles 0.5,-0.7",
     "25ce3cd0387dbca5ebaab7a1cb61d49f3f14fdb5d400a95c5b1b4d5519b3f1e2"),
    ("bend --in {dir}/square.json --range 2,3 --angle 0.7",
     "99abb2de2a3d8b65b04cb2d5d74b808167698121ce5f0d0d09dd27cef00d698a"),
])
def test_json_bytes_are_pinned(capsys, polygon_dir, argv, digest):
    code, out = run(capsys, *argv.format(dir=polygon_dir).split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_polytope_empty_exit_code(capsys):
    code, _ = run(capsys, "polytope", "--alpha", "1,1,10,1")
    assert code == 3


def test_polytope_infeasible_heptagon_exits_3(capsys):
    code, out = run(capsys, "polytope", "--alpha", "1,1,1,1,1,1,100")
    assert code == 3
    assert out == ""


def test_classify_pentagon(capsys):
    code, out = run(capsys, "classify", "--alpha", "2,1,5,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["sides"] == 3
    assert doc["labels"]["planar"] == "RP^2"


def test_classify_quad(capsys):
    code, out = run(capsys, "classify", "--alpha", "1,2,3,5")
    assert code == 0
    assert json.loads(out)["label_planar"] == "S^1"


QUAD_DOCS = {
    # the diagonal meets I_1 = [1, 3] and I_2 = [1/2, 7/2]
    "1,2,3/2,2": {"interval": ["1", "3"], "i1": ["1", "3"],
                  "i2": ["1/2", "7/2"], "label_planar": "S^1 u S^1",
                  "generic": True, "diagonal_can_vanish": False},
    "1,5/2,3/2,5/3": {"interval": ["3/2", "19/6"], "i1": ["3/2", "7/2"],
                      "i2": ["1/6", "19/6"], "label_planar": "S^1",
                      "generic": True, "diagonal_can_vanish": False},
}


@pytest.mark.parametrize("alpha", sorted(QUAD_DOCS))
def test_classify_quad_bytes_are_pinned(capsys, alpha):
    # the exact interval ends are written as the strings of their Fractions
    assert run(capsys, "classify", "--alpha", alpha) == (
        0, json.dumps(QUAD_DOCS[alpha], indent=2) + "\n")


@pytest.mark.parametrize("alpha, row, digest", [
    ("2,1,5,1,2", "3",
     "289b576339136807a1c875257eb1894a72ccbc4642e3a6b14cd0d5945ea662c3"),
    ("3,2,5,1,2", "4a",
     "a1b52b7c365a863b4939070733d8b6e5953bdbc5a4233f02f642f16e9cb20888"),
    ("3,1,3,1,3", "4b",
     "e45c07ee0dfdc73abada04972f2164efad49d041ef23e1234016de5297cf8d25"),
    ("2,1,3,1,2", "5",
     "1e5f3cb78fd4e058e76a7b6a04cc2de1cbb6358b9971567bb36a99da1cfb815b"),
    ("4,2,2,2,4", "6",
     "c918f725c8d87d744e810ab84794d0b838f9a7ad7512a256c627778bc21a1400"),
    ("4,3,4,3,4", "7",
     "0c039851d52df9cf4ffd9ade7e69cc8294a2e295aef8463b16174e35d0cd4770"),
])
def test_classify_pentagon_bytes_are_pinned(capsys, alpha, row, digest):
    code, out = run(capsys, "classify", "--alpha", alpha)
    assert (code, json.loads(out)["row"]) == (0, row)
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    if row == "3":
        assert out == """{
  "m": 5,
  "generic": true,
  "sides": 3,
  "row": "3",
  "orientable": false,
  "labels": {
    "spatial_rotation": "CP^2",
    "planar": "RP^2",
    "planar_rotation": "S^2"
  },
  "euler_planar": 1
}
"""


# a box of lengths with rational denominators, walls and infeasible
# lengths: m = 6 gives the 3-dimensional diagonal and even-step polytopes
EXACT_BOX = ((4, ("1", "3/2", "2", "4")), (5, ("1", "3/2", "9/2")),
             (6, ("1", "5/3")))


def test_exact_documents_on_a_box_are_pinned(capsys):
    digest, codes = hashlib.sha256(), set()
    for m, values in EXACT_BOX:
        # at m = 6 the last length is also 11/2, beyond the sum of the rest
        last = values + ("11/2",) if m == 6 else values
        for alpha in itertools.product(*[values] * (m - 1), last):
            alpha = ",".join(alpha)
            runs = [["polytope", "--alpha", alpha, "--system", system,
                     "--format", form]
                    for system in ("diag", "even") for form in ("json", "csv")]
            if m < 6:
                runs.append(["classify", "--alpha", alpha])
            for argv in runs:
                code, out = run(capsys, *argv)
                codes.add(code)
                digest.update(f"{' '.join(argv)}\n{code}\n{out}".encode())
    assert codes == {0, 3}
    assert digest.hexdigest() == (
        "ecfd72350736e3f0ea5053e7f68a55222fd3fe72a8d735d4fcad1a8488056b00")


def _exact_runs(alpha, m):
    """Every polytope document of ``alpha``, and classify for m = 4, 5."""
    runs = [["polytope", "--alpha", alpha, "--system", system,
             "--format", form]
            for system in ("diag", "even") for form in ("json", "csv")]
    return runs + [["classify", "--alpha", alpha]] * (m in (4, 5))


def _outputs(capsys, runs):
    """(argv, exit code, stdout, stderr) of each run, in turn."""
    return [(argv, cli.main(argv), *capsys.readouterr()) for argv in runs]


# m = 7..9: the documents hold halfspaces only, and the CSV, which lists
# vertices, is refused; one generic length vector and one on a wall each
HALFSPACES_ONLY = (("3/2,4,5,6,2,7,1", True), ("1,1,1,1,1,1,2", False),
                   ("3,4,5/3,6,2,7,1,2", True), ("1,2,3,4,1,2,3,4", False),
                   ("2,3,5,7,11,13,1,2,5/2", True),
                   ("1,1,1,1,1,1,1,1,2", False))
# lengths spelled outside the plain n or n/d tokens, or with leading
# zeros, each beside its plain spelling
SPELLINGS = {"3/2": ("1.5", "15e-1", "6/4", " 3/2 "), "7/2": ("007/2",)}
SPELLED_BASE = ("1", "2", "5/2", "2", "1", "3")


def test_exact_documents_off_the_box_are_pinned(capsys):
    runs = []
    for alpha, generic in HALFSPACES_ONLY:
        runs += [["polytope", "--alpha", alpha, "--format", form]
                 for form in ("json", "csv")]
        assert json.loads(run(capsys, *runs[-2])[1])["generic"] is generic
    outputs = _outputs(capsys, runs)
    assert [code for _, code, _, _ in outputs] == [0, 1] * 6
    for m in (4, 5, 6):
        for k in range(m):
            for plain, spellings in SPELLINGS.items():
                # each spelling of one alpha writes the same bytes
                spelled = [_outputs(capsys, _exact_runs(",".join(
                    SPELLED_BASE[:k] + (token,) + SPELLED_BASE[k + 1:m]), m))
                    for token in (plain, *spellings)]
                for other in spelled[1:]:
                    assert [out[1:] for out in other] == [
                        out[1:] for out in spelled[0]], other[0][0]
                outputs += [out for group in spelled for out in group]
    digest = hashlib.sha256()
    for argv, code, out, err in outputs:
        digest.update(f"{argv!r}\n{code}\n{out}{err}".encode())
    assert {code for _, code, _, _ in outputs} == {0, 1, 3}
    assert digest.hexdigest() == (
        "505530823410359c0d6e1226ec366710a2a957700fe229a67a9d7b2eaa473a94")


# one generic length vector for each m = 3..9, with rational lengths
FRACTION_FREE = ("3,4,5", "3/2,4,5,6", "3,4,5/3,6,2", "3,4,5,6,2,7/2",
                 "3,4,5,6,2,7,1", "3/2,4,5,6,2,7,1,5/3", "3,4,5,6,2,7,1,2,7/4")


def test_polytope_documents_are_written_without_fractions(monkeypatch,
                                                          capsys):
    # the JSON and CSV are written from the integer keys and offsets, with
    # no Fraction per value; only the SVG, which needs floats, builds them
    runs = [["polytope", "--alpha", alpha, "--system", system,
             "--format", form] for alpha in FRACTION_FREE
            for system in ("diag", "even") for form in ("json", "csv")]
    before = _outputs(capsys, runs)

    def refuse(*args):
        raise AssertionError(f"Fraction{args} built")

    monkeypatch.setattr(cli.pt, "Fraction", refuse)
    assert _outputs(capsys, runs) == before
    # every diag JSON, the CSV up to m = 6 and the even system at m = 4..6
    assert [argv for argv, code, _, _ in before if code == 0] == [
        argv for argv in runs if argv[4] == "diag" and (
            argv[6] == "json" or argv[2].count(",") < 6)
        or argv[4] == "even" and 3 <= argv[2].count(",") <= 5]


# the plain n and n/d tokens, and tokens just beside them: signs, blanks,
# underscores, non-ASCII digits, decimals, exponents, a zero denominator
# and a numerator past the 4300-digit limit
TOKENS = ("0", "007/010", "1/0", "0/0", "/2", "2/", "+3", "-3", " 3", "1_0",
          "٣", "²", "1.5", "15e-1", "3/4/5", "1" * 4301, "1e4301")


def _parsed(parse, token):
    try:
        value = parse(token)
    except Exception as exc:
        return type(exc)
    return type(value), value


@pytest.mark.parametrize("token", TOKENS, ids=lambda t: repr(t[:8]))
def test_length_tokens_parse_as_their_fractions(monkeypatch, capsys, token):
    argv = ["polytope", "--alpha", f"{token},2,2"]
    before = _outputs(capsys, [argv])
    _, code, out, err = before[0]
    assert code == 0 or (out, err.count("\n")) == ("", 1), err
    if token == "1" * 4301:
        # Fraction raises a bare ValueError there; the message names the limit
        assert _parsed(Fraction, token) is ValueError
        assert _parsed(pg.as_fraction, token) is errors.InputError
        assert err == "error: a length needs more than 4300 digits\n"
        return
    assert _parsed(pg.as_fraction, token) == _parsed(Fraction, token)
    monkeypatch.setattr(cli, "as_fraction", Fraction)
    assert _outputs(capsys, [argv]) == before


@pytest.mark.parametrize("command", ("polytope", "classify", "sample"))
@pytest.mark.parametrize("token", (
    "1" * 4301, "1" * 4301 + "/3", "3/" + "1" * 4301,
    "1" * 4301 + "/" + "1" * 4301), ids=("n", "n/d", "d", "n/n"))
def test_a_plain_token_past_the_digit_limit_names_it(capsys, command, token):
    assert sys.get_int_max_str_digits() == 4300
    err = run_input_error(capsys, command, "--alpha", f"2,{token},2,2")
    assert err == "error: a length needs more than 4300 digits\n"


POLYSPACE_ERRORS = sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.PolyspaceError)),
    key=lambda cls: cls.__name__)


def test_exit_3_is_the_infeasible_errors():
    assert {cls.__name__ for cls in POLYSPACE_ERRORS
            if issubclass(cls, errors.Infeasible)} == {
        "Infeasible", "TriangleViolation", "EmptyPolytope", "ZeroDiagonal"}


@pytest.mark.parametrize("cls", POLYSPACE_ERRORS, ids=lambda c: c.__name__)
def test_error_classes_map_to_exit_codes(monkeypatch, capsys, cls):
    args = (0, "A", -1) if cls is errors.TriangleViolation else ("boom",)

    def fail(alpha):
        raise cls(*args)

    monkeypatch.setattr(cli.pt, "classify_pentagon", fail)
    code = cli.main(["classify", "--alpha", "2,1,5,1,2"])
    captured = capsys.readouterr()
    infeasible = issubclass(cls, errors.Infeasible)
    assert code == (3 if infeasible else 1)
    assert captured.out == ""
    assert captured.err == ("infeasible: " if infeasible else "error: ") + (
        str(cls(*args)) + "\n")


def test_classify_non_generic_exits_3(capsys):
    for alpha in ("4,2,4,2,4", "1,2,3,4"):
        assert cli.main(["classify", "--alpha", alpha]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("infeasible: ")
        assert captured.err.count("\n") == 1, captured.err


def test_classify_wrong_m_exits_1(capsys):
    assert run(capsys, "classify", "--alpha", "1,1,1")[0] == 1


def test_classify_non_positive_lengths_exit_1(capsys):
    for alpha in ("0,1,1,1", "1,1,0,1,1"):
        assert cli.main(["classify", "--alpha", alpha]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: side lengths must be positive\n"


def test_reconstruct_square(capsys):
    code, out = run(capsys, "reconstruct", "--alpha", "1,1,1,1",
                    "--diag", str(math.sqrt(2)), "--dim", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 2
    assert np.allclose(doc["meta"]["alpha"], 1.0)


def test_reconstruct_violation_exits_3(capsys):
    code, _ = run(capsys, "reconstruct", "--alpha", "1,1,3", "--dim", "2")
    assert code == 3


def test_reconstruct_mixed_scale_violation_exits_3(capsys):
    # the tolerance follows the triangle, not the perimeter: a slack of
    # -0.1 in the triangle (2.1, 1, 1) fails beside sides of 1e11
    assert cli.main(["reconstruct", "--alpha", "100000000000,100000000000,1,1",
                     "--diag", "2.1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "infeasible: triangle inequality 'B' violated at step 2 ")


@pytest.mark.parametrize("argv, code, message", [
    # a parallelogram whose sides of the largest float lie on the x axis:
    # the third edge rounds past it, so the bend is refused as not finite,
    # not as a zero axis
    (f"reconstruct --alpha {MAX},1e308,{MAX},1e308 --diag 1.5e308 "
     "--angles 3.141592653589793", 1, "error: the polygon is not finite in "
     "floating point; the input lengths are out of range"),
    # the first sample bends; a later one draws a diagonal past the float
    # range, which is refused as it is drawn
    ("sample --alpha 1e308,1e308,1e308,1e308,1e308 --dim 3 --count 3 "
     "--seed 1", 1, "error: a length or diagonal is beyond the float range"),
    ("reconstruct --alpha 1,1,1,1,1 --diag 1,0 --angles 0.5,0.7", 3,
     "infeasible: diagonal 3 has zero length; no bending axis"),
])
def test_bend_axis_errors_are_pinned(capsys, argv, code, message):
    assert cli.main(argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_reconstruct_with_angles(capsys):
    code, out = run(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
                    "--diag", "1.2,1.2", "--angles", "0.5,0.7")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert np.allclose(doc["meta"]["alpha"], 1.0, atol=1e-9)


def test_bend_round_trip(tmp_path, capsys):
    src = tmp_path / "p.json"
    code, out = run(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
                    "--diag", "1.2,1.2", "--out", str(src))
    assert code == 0
    code, out = run(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", "0.0")
    assert code == 0
    bent = json.loads(out)
    original = json.loads(src.read_text())
    assert bent["edges"] == original["edges"]
    code, out = run(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", str(2 * math.pi))
    assert code == 0
    moved = np.array(json.loads(out)["edges"])
    assert np.abs(moved - np.array(original["edges"])).max() < 1e-9


def test_bend_reads_a_sampled_polygon(tmp_path, capsys):
    # the README pipeline: sample one polygon to a file, then bend it
    src, one = tmp_path / "polygon.json", tmp_path / "one.json"
    assert run(capsys, "sample", "--alpha", "1,1,1,1,1", "--count", "1",
               "--seed", "3", "--out", str(src))[0] == 0
    one.write_text(json.dumps(json.loads(src.read_text())[0]))
    bend = ["--range", "1,3", "--angle", "0.7"]
    code, out = run(capsys, "bend", "--in", str(src), *bend)
    assert code == 0
    assert (code, out) == run(capsys, "bend", "--in", str(one), *bend)
    for count in ("0", "2"):
        assert run(capsys, "sample", "--alpha", "1,1,1,1,1", "--count", count,
                   "--out", str(src))[0] == 0
        assert cli.main(["bend", "--in", str(src), *bend]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: bend reads one polygon, but the file "
                                f"holds a list of {count}\n")


def test_bend_zero_diagonal_exits_3(tmp_path, capsys):
    doc = {"dim": 3, "edges": [[1, 0, 0], [-1, 0, 0],
                               [1, 0, 0], [-1, 0, 0]]}
    src = tmp_path / "flat.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "bend", "--in", str(src), "--range", "1,2",
               "--angle", "1.0")[0] == 3


def test_read_enforces_closure(tmp_path, capsys):
    doc = {"dim": 3, "edges": [[1, 0, 0], [1, 0, 0], [-1, 0, 0]]}
    src = tmp_path / "open.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "bend", "--in", str(src), "--range", "1,2",
               "--angle", "1.0")[0] == 1
    src.write_text('{"dim": 3, "edges": [[1, 0, 0], [NaN, 0, 0], [-1, 0, 0]]}')
    run_input_error(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", "1.0")


@pytest.mark.parametrize("content", [
    b'\xff\xfe{"dim": 3}',                         # not UTF-8
    b"[" * 100_000 + b"]" * 100_000,              # nested past the stack
    b'{"dim": 3, "edges": [[1.5e308, 1.5e308, 0], [0, -1.5e308, 0], '
    b'[-1.5e308, 0, 0]]}',                        # a side beyond the range
    b'{"dim": 3, "edges": [[1, 0, 0],',           # not JSON
    # a dim that is no JSON integer
    b'{"dim": 2.7, "edges": [[1, 0], [0, 1], [-1, 0], [0, -1]]}',
    b'{"dim": true, "edges": [[1], [1], [-2]]}',
    b'{"dim": "3", "edges": [[1, 0, 0], [0, 1, 0], [-1, -1, 0]]}',
], ids=["not-utf8", "too-deep", "overflow", "not-json", "float-dim",
        "bool-dim", "string-dim"])
def test_bend_refuses_an_unreadable_polygon_file(tmp_path, capsys, content):
    src = tmp_path / "bad.json"
    src.write_bytes(content)
    run_input_error(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", "1.0")


def test_bend_about_an_axis_whose_square_overflows(tmp_path, capsys):
    # every edge, prefix diagonal and the axis of edges 2..3 is finite,
    # though the axis's square is not: edges 2 and 3 turn about -x
    src = tmp_path / "axis.json"
    src.write_text('{"dim": 3, "edges": [[7e153, 0, 0], [-7e153, 0.1, 0], '
                   '[-7e153, -0.1, 0], [7e153, 0, 0]]}')
    code, out = run(capsys, "bend", "--in", str(src), "--range", "2,3",
                    "--angle", "1.0")
    assert code == 0
    y, z = 0.1 * math.cos(1.0), 0.1 * math.sin(1.0)
    assert np.allclose(json.loads(out)["edges"], [
        [7e153, 0, 0], [-7e153, y, -z], [-7e153, -y, z], [7e153, 0, 0]],
        rtol=1e-15, atol=1e-15)


def test_bend_reads_a_square_whose_perimeter_overflows(tmp_path, capsys):
    # every edge, side and diagonal is finite, the perimeter sum is not:
    # closure is tested on the edges times a power of 2
    src = tmp_path / "square308.json"
    src.write_text('{"dim": 3, "edges": [[1e308, 0, 0], [0, 1e308, 0], '
                   '[-1e308, 0, 0], [0, -1e308, 0]]}')
    code, out = run(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", "0.5")
    assert code == 0
    unit = pg.Polygon(3, [[1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]])
    want = bending.bend_range(unit, (1, 2), 0.5).edges * 1e308
    assert np.allclose(json.loads(out)["edges"], want, rtol=1e-15,
                       atol=1e-15 * 1e308)


def test_closure_tolerance_is_fixed(tmp_path, capsys):
    # a closure defect of 1e-5 against a perimeter near 2 is above 1e-9
    doc = {"dim": 3, "edges": [[1, 0, 0], [-1, 1e-5, 0], [0, 0, 0]]}
    src = tmp_path / "near.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "bend", "--in", str(src), "--range", "1,2",
               "--angle", "0.0")[0] == 1


def test_sample_deterministic(capsys):
    _, a = run(capsys, "sample", "--alpha", "1,1,1,1,1", "--count", "3",
               "--seed", "17")
    _, b = run(capsys, "sample", "--alpha", "1,1,1,1,1", "--count", "3",
               "--seed", "17")
    assert a == b
    docs = json.loads(a)
    assert len(docs) == 3
    for doc in docs:
        assert np.allclose(doc["meta"]["alpha"], 1.0, atol=1e-9)


def test_sample_csv_header(capsys):
    code, out = run(capsys, "sample", "--alpha", "1,1,1,1", "--count", "1",
                    "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "polygon,edge,x,y,z"


@pytest.mark.parametrize("count", ["0", "1"])
@pytest.mark.parametrize("dim,header", [("2", "polygon,edge,x,y"),
                                        ("3", "polygon,edge,x,y,z")])
def test_sample_csv_header_follows_dim(capsys, count, dim, header):
    code, out = run(capsys, "sample", "--alpha", "1,1,1,1", "--count", count,
                    "--dim", dim, "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == header
    assert len(lines) == 1 + 4 * int(count)
    assert all(len(row.split(",")) == 2 + int(dim) for row in lines[1:])


@pytest.mark.parametrize("alpha, dim", [
    # slacks of about -8e-6 on lengths near 1e11 are rounding, not violations
    ("100000000000/3,100000000000/7,1,1000000000021/21", "3"),
    # every diagonal of a pentagon with sides 1e-13 is below 1e-12
    (",".join(["1/10000000000000"] * 5), "2"),
], ids=("large", "tiny"))
def test_sample_at_large_and_tiny_scale(capsys, alpha, dim):
    code, out = run(capsys, "sample", "--alpha", alpha, "--dim", dim,
                    "--count", "3")
    assert code == 0
    target = [float(cli.as_fraction(a)) for a in alpha.split(",")]
    for doc in json.loads(out):
        sides = np.linalg.norm(doc["edges"], axis=1)
        assert np.abs(sides / target - 1).max() < 1e-9


def test_angles_with_dim_2_names_the_conflict(capsys):
    argv = ["reconstruct", "--alpha", "1,1,1,1", "--diag", "1",
            "--angles", "0.5"]
    assert cli.main(argv + ["--dim", "2"]) == 1
    err = capsys.readouterr().err
    assert "--angles" in err and "--dim 2" in err
    assert run(capsys, *argv, "--dim", "3")[0] == 0


def test_sample_count_zero(capsys):
    code, out = run(capsys, "sample", "--alpha", "1,1,1,1", "--count", "0")
    assert code == 0
    assert json.loads(out) == []


def test_section(capsys):
    code, out = run(capsys, "section", "--alpha", "2/3,2/3,2/3")
    assert code == 0
    doc = json.loads(out)
    assert np.allclose(doc["meta"]["alpha"], 2.0 / 3.0)
    assert run(capsys, "section", "--alpha", "1,1,1")[0] == 3


def test_parse_error_exits_1(capsys):
    assert run(capsys, "polytope", "--alpha", "frog")[0] == 1
    assert run(capsys, "polytope", "--alpha", "-1,2,3,4")[0] == 1
    assert run(capsys, "bend", "--in", "/nonexistent", "--range", "1,2",
               "--angle", "0.1")[0] == 1


def test_verify_exit_codes(capsys):
    code, out = run(capsys, "verify", "--suite", "hexcount")
    assert code == 0
    reports = json.loads(out)
    assert reports[0]["suite"] == "hexcount"
    assert reports[0]["ok"]


def test_verify_small_suites(capsys):
    for suite in ("hopf", "gc", "kahler", "dh", "roundtrip"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--trials", "10", "--seed", "3")
        assert code == 0, (suite, out)
        [report] = json.loads(out)
        assert report["wall_clock"] > 0


def test_emitted_polygon_parses_back(tmp_path, capsys):
    _, out = run(capsys, "reconstruct", "--alpha", "3,4,5", "--dim", "2")
    doc = json.loads(out)
    poly = cli.polygon_from_doc(doc)
    assert np.array_equal(poly.edges, np.array(doc["edges"]))
    assert pg.perimeter(poly) == pytest.approx(12.0)
    # the written floats keep the sign of zero and tiny magnitudes
    [tiny] = cli.polygon_docs(np.array(
        [[[1.0, 1e-300, -0.0], [-1.0, -1e-300, 0.0]]]))
    assert json.dumps(tiny) == (
        '{"dim": 3, "edges": [[1.0, 1e-300, -0.0], [-1.0, -1e-300, 0.0]], '
        '"meta": {"alpha": [1.0, 1.0], "diagonals": [1.0, 0.0]}}')
    # and so does the writer every polygon command uses
    assert cli._json(tiny) == (
        '{\n  "dim": 3,\n  "edges": [\n    [\n      1.0,\n      1e-300,\n'
        '      -0.0\n    ],\n    [\n      -1.0,\n      -1e-300,\n      0.0\n'
        '    ]\n  ],\n  "meta": {\n    "alpha": [\n      1.0,\n      1.0\n'
        '    ],\n    "diagonals": [\n      1.0,\n      0.0\n    ]\n  }\n}')


# the float extremes a document can hold: a signed zero, the least
# subnormal, a tiny normal and the largest finite float
EXTREME_FLOATS = (-0.0, 5e-324, 1e-300, 1.7976931348623157e308)


def _polygon_doc_oracle(p):
    """A polygon's document one polygon at a time, from ``side_lengths``
    and ``diagonals``, as the CLI wrote it before it wrote stacks."""
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, diags = pg.side_lengths(p), pg.diagonals(p)
    return {"dim": p.dim, "edges": p.edges.tolist(),
            "meta": {"alpha": alpha.tolist(), "diagonals": diags.tolist()}}


@st.composite
def polygon_docs(draw):
    """A ``polygon_docs`` document, m = 2..24 and dim 1..3, whose edges
    may hold the extreme floats; the largest is put in afterwards, since
    polygon_docs refuses the overflow of its square."""
    m, dim = draw(st.integers(2, 24)), draw(st.integers(1, 3))
    cell = st.floats(-1e6, 1e6) | st.sampled_from(EXTREME_FLOATS[:3])
    edges = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                          min_size=m, max_size=m))
    [doc] = cli.polygon_docs(np.array([edges]).reshape(1, m, dim))
    assert json.dumps(doc) == json.dumps(
        _polygon_doc_oracle(pg.Polygon(dim, edges)))
    if draw(st.booleans()):
        doc["edges"][draw(st.integers(0, m - 1))][dim - 1] = EXTREME_FLOATS[3]
    return doc


@given(polygon_docs() | st.lists(polygon_docs(), max_size=3))
def test_polygon_writer_gives_the_json_dumps_bytes(x):
    assert cli._json(x) == json.dumps(x, indent=2)


@pytest.mark.parametrize("m", range(3, 25))
def test_a_stack_writes_the_bytes_of_its_members_alone(m):
    alpha = [2 + i % 3 for i in range(m)]
    for dim in (2, 3):
        for count in (0, 1, 6):
            polys = rec.sample_moduli(alpha, dim, count, seed=m)
            stack = np.reshape([p.edges for p in polys], (count, m, dim))
            alone = [cli.polygon_docs(e[None])[0] for e in stack]
            assert cli._json(cli.polygon_docs(stack)) == json.dumps(
                alone, indent=2) == json.dumps(
                    [_polygon_doc_oracle(p) for p in polys], indent=2)


def test_an_overflowing_member_refuses_the_stack():
    stack = np.array([[[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]] * 3)
    stack[1] *= 1e308   # its diagonal d_2 overflows
    for edges in (stack, stack[1:2]):
        with pytest.raises(errors.InputError, match="^the polygon is not "
                           "finite in floating point; the input lengths are "
                           "out of range$"):
            cli.polygon_docs(edges)
    assert cli.polygon_docs(stack[::2]) == cli.polygon_docs(stack[:1]) * 2


# strings json escapes or that look like its words: the item separator,
# quotes, backslashes, control and non-ASCII characters
TEXTS = st.text() | st.sampled_from(
    ('", "', ",\n  ", '"', "\\", "\\u00e9", "\x00\t\n\x1f\x7f", "é€😀",
     "nan", "-inf", "NaN", ""))
# the floats whose json form is no repr, beside the extremes of a document
ODD_FLOATS = st.sampled_from(EXTREME_FLOATS + (math.nan, math.inf, -math.inf))
FLOATS = st.floats() | ODD_FLOATS
SCALARS = (st.none() | st.booleans() | st.integers() | FLOATS | TEXTS
           | st.fractions())
# rows as the writer joins them whole, and rows that mix in other types:
# ints and bools among floats, Fractions among strings
ROWS = (st.lists(FLOATS) | st.lists(TEXTS)
        | st.lists(FLOATS | st.integers() | st.booleans())
        | st.lists(st.integers() | st.booleans())
        | st.lists(TEXTS | st.fractions() | st.none()))


@given(st.recursive(SCALARS | ROWS, lambda inner: (
    st.lists(inner, max_size=4) | st.dictionaries(TEXTS, inner, max_size=4)),
    max_leaves=12))
@example({"": [], "a": {}, "b": [[], {}], "c": [1.0, True, 2]})
@example([-0.0, math.nan, 5e-324, -math.inf])
# lists of rows: floats, strings, an empty row, an int or a bool among
# floats, nan and inf in one row
@example([[1.0, -0.0, 5e-324], [2.5, 1.7976931348623157e308]])
@example([["a", "", "é"], ['"', "nan"]])
@example([[1.0, 2.0], [], [3.0]])
@example([[1.0, 2], [3.0]])
@example([[1.0, 2.0], [True, 3.0]])
@example([[1.0, 2.0], [3.0, math.nan]])
@example([[-math.inf], [1.0]])
# the scalars json writes as words or digits, and an int past the digit
# limit, which both refuse with one ValueError
@example([True, False, None, 0, -7, 2**64])
@example([[1, 2], [True, None]])
@example(10**4301)
@example({"a": [10**4301]})
def test_writer_gives_the_json_dumps_bytes(x):
    def written(write):
        try:
            return write(x)
        except ValueError as exc:
            return repr(exc)
    assert written(cli._json) == written(
        lambda v: json.dumps(v, indent=2, default=str))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_verify_reports_are_written_as_json_dumps_writes_them(
        monkeypatch, capsys, seed):
    reports, run_suite = [], cli.verify.run_suite

    def kept(*args):
        reports.append(run_suite(*args))
        return reports[-1]
    monkeypatch.setattr(cli.verify, "run_suite", kept)
    code, out = run(capsys, "verify", "--suite", "all", "--trials", "3",
                    "--seed", str(seed))
    assert code == 0
    assert len(reports) == len(cli.verify.SUITES)
    assert out == json.dumps([r.to_json_dict() for r in reports],
                             indent=2) + "\n"


def test_non_finite_numbers_exit_1(capsys):
    run_input_error(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
                    "--diag", "nan,1.2")
    run_input_error(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
                    "--diag", "inf,1.2")
    run_input_error(capsys, "reconstruct", "--alpha", "1,1,nan", "--dim", "2")
    run_input_error(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
                    "--diag", "1.2,1.2", "--angles", "0.5,-inf")


def test_reconstruct_wrong_angle_count_exits_1(capsys):
    for angles in ("0.5", "0.5,0.7,0.9"):
        run_input_error(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
                        "--diag", "1.2,1.2", "--angles", angles)


def test_bend_bad_range_exits_1(tmp_path, capsys):
    src = tmp_path / "p.json"
    assert run(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
               "--diag", "1.2,1.2", "--out", str(src))[0] == 0
    for block in ("1,x", "2,1", "0,2", "1,5", "2,6", "1,2,3"):
        run_input_error(capsys, "bend", "--in", str(src), "--range", block,
                        "--angle", "0.5")
    assert run(capsys, "bend", "--in", str(src), "--range", "2,5",
               "--angle", "0.5")[0] == 0


def test_bend_planar_polygon(tmp_path, capsys):
    src = tmp_path / "planar.json"
    assert run(capsys, "reconstruct", "--alpha", "1,1,1,1", "--diag",
               "1.2", "--dim", "2", "--out", str(src))[0] == 0
    code, out = run(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", "0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert np.allclose(doc["meta"]["alpha"], 1.0)
    assert np.allclose(doc["meta"]["diagonals"][1], 1.2)


def test_negative_counts_exit_1(capsys):
    run_input_error(capsys, "sample", "--alpha", "1,1,1,1", "--count", "-3")
    run_input_error(capsys, "verify", "--suite", "hexcount", "--trials", "-1")
    run_input_error(capsys, "sample", "--alpha", "1,1", "--count", "1")


def test_overflowing_polygon_exits_1(capsys):
    # the parallelogram of test_bend_axis_errors_are_pinned, unbent
    err = run_input_error(capsys, "reconstruct", "--alpha",
                          f"{MAX},1e308,{MAX},1e308", "--diag", "1.5e308",
                          "--dim", "2")
    assert err.startswith("error: the polygon is not finite")


@pytest.mark.parametrize("argv", [
    "polytope --alpha 1,1",
    "reconstruct --alpha 1,1",
    "polytope --alpha 1,1,1 --out {tmp}/t.json --svg {tmp}/t.svg",
    "bend --in {tmp}/p.json --range 1,2 --angle inf",
    "bend --in {tmp}/huge.json --range 1,2 --angle 0.5",
    "section --alpha 1,1",
    "section --alpha 1",
    "section --alpha 2",
    "polytope --alpha 1,1,1 --system even",
    "polytope --alpha 1,1,1,1,1,1,1 --system even",
    "polytope --alpha 1,1,1,1,1,1,1 --format csv",
    "reconstruct --alpha 1,1,1,1,1 --diag 1",
    "sample --alpha 1,1,1 --count 1 --seed -1",
    "reconstruct --alpha 1,1,1,1 --diag 1 --dim 2 --angles 0.5",
    "sample --alpha 0,0,0,0 --dim 2",
    "sample --alpha 0,0,0,0 --dim 3",
    "reconstruct --alpha 0,0,0,0 --diag 0",
    "reconstruct --alpha 0,0,0,0 --diag 0 --angles 0.5",
    # lengths below half the least subnormal float, which round to 0
    "sample --alpha 1e-400,1e-400,1e-400,1e-400,1e-400",
    "sample --dim 2 --alpha 1e-400,1e-400,1e-400,1e-400,1e-400",
    "sample --alpha 2e-324,2e-324,2e-324,2e-324 --dim 2 --count 2",
    "reconstruct --alpha 1e-400,1e-400,1e-400,1e-400 --diag 1e-400",
    # a polygon file: edges of 1e-170 that do not close
    "bend --in {tmp}/open170.json --range 1,2 --angle 0.5",
    # the CSV form checks that the polygons are finite, as JSON does: an
    # edge along a side of the largest float rounds past it
    f"sample --alpha {MAX},{MAX},{MAX},1 --count 1 --format csv --dim 2",
    f"sample --alpha {MAX},{MAX},{MAX},1 --count 1 --format csv --seed 2",
    # lengths whose documents would hold ints past Python's digit limit
    "polytope --alpha 1e4300,1,1e4300,1",
    "classify --alpha 1e5000,2,1e5000,1",
    "polytope --alpha 1e5000,2,1e5000,1,3 --system even",
    "polytope --alpha 1e10000000,1,1",
    "sample --alpha 1e10000000,1,1",
])
def test_bad_input_exits_1_without_traceback(tmp_path, capsys, argv):
    assert run(capsys, "reconstruct", "--alpha", "1,1,1,1,1", "--diag",
               "1.2,1.2", "--out", str(tmp_path / "p.json"))[0] == 0
    # an integer edge too large for a float
    (tmp_path / "huge.json").write_text(
        '{"dim": 3, "edges": [[1%s, 0, 0], [-1, 0, 0]]}' % ("0" * 400))
    (tmp_path / "open170.json").write_text(
        '{"dim": 3, "edges": [[1e-170, 0, 0], [0, 1e-170, 0], '
        '[0, 0, 1e-170], [1e-170, 1e-170, 0]]}')
    err = run_input_error(capsys, *argv.format(tmp=tmp_path).split())
    if "0,0,0,0" in argv or "e-4" in argv or "e-3" in argv:
        assert err == "error: the side lengths sum to 0\n"
    if "open170" in argv:
        assert err == "error: polygon document is not closed\n"
    if MAX in argv:
        assert err.startswith("error: the polygon is not finite")
    if any(f"e{k}" in argv for k in (4300, 5000, 10000000)):
        assert err.endswith(f"more than {sys.get_int_max_str_digits()} "
                            "digits\n")


# lengths whose sum S is as large as the written documents allow: 4 S
# stays below 10^4300, the default digit limit. With the last length
# raised to ``past``, 4 S is 10^4300 and the lengths are refused.
@pytest.mark.parametrize("alpha, past, argv", [
    ("7e4298,6e4298,5e4298,69999e4294", "7e4298", "classify"),
    ("7e4298,6e4298,5e4298,69999e4294", "7e4298", "polytope --format csv"),
    ("5e4298,5e4298,5e4298,5e4298,49999e4294", "5e4298", "classify"),
    ("5e4298,5e4298,5e4298,5e4298,49999e4294", "5e4298",
     "polytope --system even"),
    ("4e4298,4e4298,4e4298,4e4298,4e4298,49999e4294", "5e4298", "polytope"),
    ("4e4298,4e4298,4e4298,4e4298,4e4298,49999e4294", "5e4298",
     "polytope --system even --format csv"),
])
def test_lengths_at_the_digit_limit_are_written(capsys, alpha, past, argv):
    assert sys.get_int_max_str_digits() == 4300
    command, *options = argv.split()
    code, out = run(capsys, command, "--alpha", alpha, *options)
    assert code == 0
    if "csv" not in options:
        json.loads(out)
    raised = alpha.rsplit(",", 1)[0] + "," + past
    err = run_input_error(capsys, command, "--alpha", raised, *options)
    assert err == "error: the lengths need more than 4300 digits\n"


def test_each_length_token_is_parsed_once(monkeypatch, capsys):
    calls = []

    def counted(value):
        calls.append(value)
        return parse(value)

    parse = pg.as_fraction
    monkeypatch.setattr(pg, "as_fraction", counted)
    monkeypatch.setattr(cli, "as_fraction", counted)
    for argv in ("polytope --alpha 2,1,5/2,1,2", "polytope --alpha 3/2,1,1,1 "
                 "--system even --format csv", "classify --alpha 1,2,3/2,2",
                 "classify --alpha 3,2,5,1,2", "polytope --alpha 1,1,1,1,1,1"):
        calls.clear()
        assert run(capsys, *argv.split())[0] == 0
        assert calls == argv.split()[2].split(","), argv


@pytest.mark.parametrize("argv", [
    "sample --alpha {a},{a},{a},{a} --count 2",
    "sample --alpha {a},{a},{a},{a} --count 2 --dim 2",
    "reconstruct --alpha {a},{a},{a},{a} --diag 3e-151",
])
def test_lengths_at_perimeter_1e_150_are_kept(capsys, argv):
    # four lengths of 2.5e-151, whose squares underflow
    a = 2.5e-151
    code, out = run(capsys, *argv.format(a=a).split())
    assert code == 0
    docs = json.loads(out)
    for doc in docs if isinstance(docs, list) else [docs]:
        edges = np.array(doc["edges"]) / a
        assert np.abs(np.linalg.norm(edges, axis=1) - 1.0).max() < 5e-15
        assert np.abs(np.array(doc["meta"]["alpha"]) / a - 1.0).max() < 5e-15
        assert np.linalg.norm(edges.sum(axis=0)) < 5e-15


def test_bend_refuses_non_finite_angle_by_name(tmp_path, capsys):
    src = tmp_path / "p.json"
    assert run(capsys, "reconstruct", "--alpha", "1,1,1,1,1",
               "--diag", "1.2,1.2", "--out", str(src))[0] == 0
    for angle in ("nan", "inf", "-inf"):
        assert cli.main(["bend", "--in", str(src), "--range", "1,2",
                         "--angle", angle]) == 1
        assert "--angle" in capsys.readouterr().err


def test_svg_above_dimension_2_keeps_its_message(tmp_path, capsys):
    assert cli.main(["polytope", "--alpha", "1,1,1,1,1,1,1", "--out",
                     str(tmp_path / "p.json"), "--svg",
                     str(tmp_path / "p.svg")]) == 1
    assert capsys.readouterr().err == (
        "error: SVG output is only available in dimension <= 2\n")


@pytest.mark.parametrize("argv", [
    "polytope --alpha 1,1,1 --svg {tmp}/f.svg",
    "polytope --alpha 1,1,1,1,1,1 --svg {tmp}/f.svg",
    "polytope --alpha 1,1,1,1 --svg {tmp}/missing/f.svg",
    "reconstruct --alpha 3,4,5 --svg {tmp}/missing/f.svg",
    "section --alpha 2/3,2/3,2/3 --svg {tmp}/missing/f.svg",
])
def test_failed_svg_writes_no_output(tmp_path, capsys, argv):
    run_input_error(capsys, *argv.format(tmp=tmp_path).split())


SUITE_CHOICES = ("'all', 'hopf', 'gc', 'bend', 'kahler', 'dh', 'hexcount', "
                 "'roundtrip'")


@pytest.mark.parametrize("argv, message", [
    ([], "the following arguments are required: command"),
    (["nope"], "argument command: invalid choice: 'nope' (choose from "
               "'polytope', 'classify', 'reconstruct', 'bend', 'sample', "
               "'section', 'verify')"),
    (["polytope"], "the following arguments are required: --alpha"),
    (["polytope", "--alpha"], "argument --alpha: expected one argument"),
    (["verify", "--suite", "nope"],
     f"argument --suite: invalid choice: 'nope' (choose from {SUITE_CHOICES})"),
])
def test_parse_errors_are_pinned(capsys, argv, message):
    assert cli.main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


TOP_HELP = """\
usage: polyspace [-h]
                 {polytope,classify,reconstruct,bend,sample,section,verify}
                 ...

positional arguments:
  {polytope,classify,reconstruct,bend,sample,section,verify}
    polytope            emit a diagonal or even-step polytope
    classify            moduli classification for m = 4, 5
    reconstruct         polygon from lengths and diagonals
    bend                bend a polygon about a diagonal block
    sample              sample polygons with given lengths
    section             planar polygon with given lengths
    verify              run randomized verification suites

options:
  -h, --help            show this help message and exit
"""
POLYTOPE_HELP = """\
usage: polyspace polytope [-h] --alpha ALPHA [--system {diag,even}]
                          [--format {json,csv}] [--svg SVG] [--out OUT]

options:
  -h, --help            show this help message and exit
  --alpha ALPHA         comma-separated lengths
  --system {diag,even}
  --format {json,csv}
  --svg SVG             also write an SVG drawing
  --out OUT             output file (stdout)
"""


@pytest.mark.parametrize("argv, text", [(["-h"], TOP_HELP),
                                        (["polytope", "-h"], POLYTOPE_HELP)])
def test_help_is_pinned(monkeypatch, capsys, argv, text):
    monkeypatch.setenv("COLUMNS", "80")   # argparse wraps to the terminal
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr() == (text, "")


def test_parser_is_reused_after_a_parse_error(capsys):
    run_input_error(capsys, "classify", "--bogus")
    first = run(capsys, "classify", "--alpha", "2,1,5,1,2")
    assert first[0] == 0
    assert run(capsys, "classify", "--alpha", "2,1,5,1,2") == first


# --------------------------------------------------------------- contract

# lengths, some of them near or beyond the float range, and values that
# are no length at all
LENGTHS = ("1", "2", "3", "3/2", "5", "1e300", "1e400", "5e-324", "1e4299",
           "1e4300", "1e-4299", "1e10000000")
HOSTILE = ("nan", "inf", "-inf", "3/0", "", "0", "-1", "x")
# polygon files for bend: closed, planar, open, NaN, edges and an axis
# whose squares overflow, an integer beyond the float range
POLYGON_FILES = {
    "square": '{"dim": 3, "edges": [[1, 0, 0], [0, 1, 0], [-1, 0, 0], '
              '[0, -1, 0]]}',
    "planar": '{"dim": 2, "edges": [[1, 0], [0, 1], [-1, 0], [0, -1]]}',
    "open": '{"dim": 3, "edges": [[1, 0, 0], [1, 0, 0], [-1, 0, 0]]}',
    "nan": '{"dim": 3, "edges": [[1, 0, 0], [NaN, 0, 0], [-1, 0, 0]]}',
    "overflow": '{"dim": 3, "edges": [[1e200, 0, 0], [-1e200, 1e200, 0], '
                '[0, -1e200, 0]]}',
    "big-axis": '{"dim": 3, "edges": [[1.3e154, 0, 0], [1.3e154, 1, 0], '
                '[-1.3e154, 0, 0], [-1.3e154, -1, 0]]}',
    "huge-int": '{"dim": 3, "edges": [[1%s, 0, 0], [-1, 0, 0]]}' % ("0" * 400),
    "flat": '{"dim": 3, "edges": [[1, 0, 0], [-1, 0, 0], [1, 0, 0], '
            '[-1, 0, 0]]}',
}


@st.composite
def numbers(draw, count):
    """``count`` comma-joined lengths, or one more or one fewer; sometimes
    with hostile values among them."""
    pool = draw(st.sampled_from((LENGTHS, LENGTHS + HOSTILE)))
    n = max(draw(st.sampled_from((count, count, count - 1, count + 1))), 0)
    return ",".join(draw(st.lists(st.sampled_from(pool), min_size=n,
                                  max_size=n)))


@st.composite
def cli_argv(draw, command):
    """An argument list for the subcommand ``command``."""
    m = draw(st.integers(4, 5) if command == "classify"
             else st.integers(3, 7))
    argv = [command]
    if command == "bend":
        p, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        argv += ["--in", "{dir}/" + draw(st.sampled_from(tuple(
                    POLYGON_FILES))) + ".json",
                 "--range", draw(st.sampled_from((f"{p},{q}", f"{p}")
                                                 + HOSTILE)),
                 "--angle", draw(st.sampled_from(LENGTHS + HOSTILE))]
    elif command == "verify":
        argv += ["--suite", draw(st.sampled_from(("all", "hopf", "gc", "bend",
                                                  "kahler", "dh", "hexcount",
                                                  "roundtrip"))),
                 # at most one trial: the bend suite takes 0.25 s for it
                 "--trials", draw(st.sampled_from(("0", "1", "-1", "1e400",
                                                   "x", ""))),
                 "--seed", draw(st.sampled_from(("0", "5", "-1")))]
    else:
        argv += ["--alpha", draw(numbers(m))]
    if command == "polytope":
        argv += draw(st.sampled_from(([], ["--system", "even"],
                                      ["--format", "csv"])))
    if command in ("polytope", "reconstruct", "section") and draw(
            st.booleans()):
        argv += ["--svg", "{dir}/drawing.svg"]
    if command in ("reconstruct", "sample"):
        argv += ["--dim", draw(st.sampled_from(("3", "2", "1")))]
    if command == "reconstruct":
        argv += ["--diag", draw(numbers(m - 3))]
        if draw(st.booleans()):
            argv += ["--angles", draw(numbers(m - 3))]
    if command == "sample":
        argv += ["--count", draw(st.sampled_from(("2", "1", "0", "-1",
                                                  "1e400"))),
                 "--seed", draw(st.sampled_from(("6", "5", "0", "-1"))),
                 "--format", draw(st.sampled_from(("json", "csv")))]
    return argv


@pytest.fixture(scope="module")
def polygon_dir(tmp_path_factory):
    folder = tmp_path_factory.mktemp("polygons")
    for name, text in POLYGON_FILES.items():
        (folder / f"{name}.json").write_text(text)
    return folder


def check_contract(argv):
    """Exit 0-3; on 1 and 3 one line on stderr and nothing on stdout; on 0
    no stderr and no NaN or Infinity, nor a nan or inf CSV cell; no
    exception or warning escapes."""
    out, err = io.StringIO(), io.StringIO()
    with (warnings.catch_warnings(), contextlib.redirect_stdout(out),
          contextlib.redirect_stderr(err)):
        warnings.simplefilter("error")
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    if code in (1, 3):
        assert out == "", argv
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    if code == 0:
        assert err == "", (argv, err)
        assert "NaN" not in out and "Infinity" not in out, argv
        # CSV cells are float reprs: nan, inf or -inf when not finite
        cells = set(out.replace("\n", ",").split(","))
        assert not cells & {"nan", "inf", "-inf"}, argv


@pytest.mark.parametrize("command", ("polytope", "classify", "reconstruct",
                                     "bend", "sample", "section", "verify"))
@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_contract_on_hostile_arguments(polygon_dir, command, data):
    argv = data.draw(cli_argv(command))
    check_contract([a.replace("{dir}", str(polygon_dir)) for a in argv])


@pytest.mark.parametrize("argv", [
    # an OverflowError traceback: a length beyond the float range
    "sample --alpha 1e400,5,3,1e400 --count 2 --seed 6",
    "sample --alpha 1e400,5,3,1e400 --count 2 --seed 6 --dim 2",
    # numpy RuntimeWarnings on stderr before the one-line error
    "sample --alpha 1e300,8,7,9,1,1e300,3 --count 1 --seed 5",
    "sample --alpha 1e300,8,7,9,1,1e300,3 --count 1 --seed 5 --dim 2",
    "bend --in {dir}/big-axis.json --range 1,2 --angle 1",
    # an OverflowError traceback: a vertex beyond the float range
    "polytope --alpha 1e400,1,1e400,1 --svg {dir}/f.svg",
    "polytope --alpha 1e400,1,1e400,1,1 --svg {dir}/f.svg",
])
def test_cli_contract_on_found_cases(polygon_dir, argv):
    check_contract(argv.format(dir=polygon_dir).split())
