"""CLI surface: documents, exit codes, determinism."""

import hashlib
import json
import math

import numpy as np
import pytest

from polyspace import cli
from polyspace import polygon as pg


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


def test_classify_non_generic_exits_3(capsys):
    assert run(capsys, "classify", "--alpha", "4,2,4,2,4")[0] == 3
    assert run(capsys, "classify", "--alpha", "1,2,3,4")[0] == 3


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
    b'{"dim": 3, "edges": [[1e200, 0, 0], [-1e200, 1e200, 0], '
    b'[0, -1e200, 0]]}',                          # norms overflow
], ids=["not-utf8", "too-deep", "overflow"])
def test_bend_refuses_an_unreadable_polygon_file(tmp_path, capsys, content):
    src = tmp_path / "bad.json"
    src.write_bytes(content)
    run_input_error(capsys, "bend", "--in", str(src), "--range", "1,2",
                    "--angle", "1.0")


def test_read_tolerance_env(tmp_path, capsys, monkeypatch):
    doc = {"dim": 3, "edges": [[1, 0, 0], [-1, 1e-5, 0], [0, 0, 0]]}
    src = tmp_path / "near.json"
    src.write_text(json.dumps(doc))
    assert run(capsys, "bend", "--in", str(src), "--range", "1,2",
               "--angle", "0.0")[0] == 1
    monkeypatch.setenv("POLYSPACE_TOL", "1e-3")
    assert run(capsys, "bend", "--in", str(src), "--range", "1,2",
               "--angle", "0.0")[0] == 0
    # a tolerance that is not finite or is negative would switch the
    # closure check off or make it fail on every input
    for bad in ("nan", "inf", "-1"):
        monkeypatch.setenv("POLYSPACE_TOL", bad)
        run_input_error(capsys, "bend", "--in", str(src), "--range", "1,2",
                        "--angle", "0.0")


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
    poly = cli.polygon_from_doc(doc, 1e-9)
    assert np.array_equal(poly.edges, np.array(doc["edges"]))
    assert pg.perimeter(poly) == pytest.approx(12.0)
    # the written floats keep the sign of zero and tiny magnitudes
    tiny = pg.Polygon(3, [[1.0, 1e-300, -0.0], [-1.0, -1e-300, 0.0]])
    assert json.dumps(cli.polygon_to_doc(tiny)) == (
        '{"dim": 3, "edges": [[1.0, 1e-300, -0.0], [-1.0, -1e-300, 0.0]], '
        '"meta": {"alpha": [1.0, 1.0], "diagonals": [1.0, 0.0]}}')


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
    run_input_error(capsys, "reconstruct", "--alpha", "1e200,1e200,1e200",
                    "--dim", "2")


@pytest.mark.parametrize("argv", [
    "polytope --alpha 1,1",
    "reconstruct --alpha 1,1",
    "polytope --alpha 1,1,1 --out {tmp}/t.json --svg {tmp}/t.svg",
    "bend --in {tmp}/p.json --range 1,2 --angle inf",
    "bend --in {tmp}/huge.json --range 1,2 --angle 0.5",
    "section --alpha 1,1",
    "section --alpha 1",
    "sample --alpha 1,1,1 --count 1 --seed -1",
    "reconstruct --alpha 1,1,1,1 --diag 1 --dim 2 --angles 0.5",
])
def test_bad_input_exits_1_without_traceback(tmp_path, capsys, argv):
    assert run(capsys, "reconstruct", "--alpha", "1,1,1,1,1", "--diag",
               "1.2,1.2", "--out", str(tmp_path / "p.json"))[0] == 0
    # an integer edge too large for a float
    (tmp_path / "huge.json").write_text(
        '{"dim": 3, "edges": [[1%s, 0, 0], [-1, 0, 0]]}' % ("0" * 400))
    run_input_error(capsys, *argv.format(tmp=tmp_path).split())


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


def test_parser_is_reused_after_a_parse_error(capsys):
    run_input_error(capsys, "classify", "--bogus")
    first = run(capsys, "classify", "--alpha", "2,1,5,1,2")
    assert first[0] == 0
    assert run(capsys, "classify", "--alpha", "2,1,5,1,2") == first
