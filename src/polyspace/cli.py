"""Command-line interface: polytopes, classification, reconstruction,
bending, sampling, the planar section and the verification suites.

Exit codes: 0 success, 1 input error, 2 verification failure,
3 infeasible or degenerate input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import reconstruct as rec
from . import polytope as pt
from . import verify
from .bending import DiagonalRange, bend_range
from .errors import (EmptyPolytope, NonGeneric, NotInHypersimplex,
                     PolyspaceError, TriangleViolation, ZeroDiagonal)
from .polygon import (Polygon, as_fraction, closure_defect, diagonals,
                      perimeter, side_lengths)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3


class InputError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we use 1
        raise InputError(message)


def read_tolerance() -> float:
    raw = os.environ.get("POLYSPACE_TOL")
    if raw is None:
        return 1e-9
    try:
        tol = float(raw)
    except ValueError as exc:
        raise InputError(f"POLYSPACE_TOL is not a float: {raw!r}") from exc
    if not 0.0 <= tol < math.inf:
        raise InputError(f"POLYSPACE_TOL must be finite and >= 0: {raw!r}")
    return tol


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(as_fraction(tok.strip()) for tok in text.split(","))
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot parse rational list {text!r}") from exc


def parse_lengths(text: str) -> tuple[Fraction, ...]:
    alpha = parse_rationals(text)
    if any(a <= 0 for a in alpha):
        raise InputError("side lengths must be positive")
    return alpha


def require_polygon(values):
    if len(values) < 3:
        raise InputError(f"a polygon needs at least 3 lengths, got "
                         f"{len(values)}")


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse number list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"number list {text!r} has a non-finite entry")
    return values


def polygon_to_doc(p: Polygon) -> dict:
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, diags = side_lengths(p), diagonals(p)
    if not all(np.isfinite(a).all() for a in (p.edges, alpha, diags)):
        raise InputError("the polygon is not finite in floating point; "
                         "the input lengths are out of range")
    return {
        "dim": p.dim,
        "edges": [[float(c) for c in row] for row in p.edges],
        "meta": {
            "alpha": [float(a) for a in alpha],
            "diagonals": [float(d) for d in diags],
        },
    }


def polygon_from_doc(doc: dict, tol: float) -> Polygon:
    try:
        poly = Polygon(int(doc["dim"]), np.array(doc["edges"], dtype=float))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad polygon document: {exc}") from exc
    if not np.isfinite(poly.edges).all():
        raise InputError("polygon document has a non-finite edge")
    if not closure_defect(poly) <= tol * max(perimeter(poly), 1e-300):
        raise InputError("polygon document is not closed")
    return poly


def write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(path, "w") as fh:
            fh.write(text)


def polygons_to_csv(polys: list[Polygon]) -> str:
    dim = max(p.dim for p in polys)
    header = "polygon,edge," + ",".join("xyz"[:dim])
    lines = [header]
    for idx, p in enumerate(polys):
        for e, row in enumerate(p.edges):
            coords = [float(c) for c in row] + [0.0] * (dim - p.dim)
            lines.append(f"{idx},{e + 1}," + ",".join(repr(c) for c in coords))
    return "\n".join(lines) + "\n"


def polytope_to_csv(poly: pt.RationalPolytope) -> str:
    header = "vertex," + ",".join(poly.variables)
    lines = [header]
    for idx, v in enumerate(poly.vertices()):
        lines.append(f"{idx}," + ",".join(str(c) for c in v))
    return "\n".join(lines) + "\n"


def _svg_document(paths: list[str], labels: list[tuple[float, float, str]]):
    body = "\n".join(paths + [
        f'<text x="{x:.2f}" y="{y:.2f}" font-size="14">{t}</text>'
        for x, y, t in labels
    ])
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="0 0 800 800">\n' + body + "\n</svg>\n")


def _fit(points: list[tuple[float, float]]):
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    span = max(hi_x - lo_x, hi_y - lo_y, 1e-12)
    scale = 720.0 / span

    def to_px(p):
        return (40.0 + (p[0] - lo_x) * scale,
                760.0 - (p[1] - lo_y) * scale)

    return to_px


def svg_polygon(p: Polygon) -> str:
    verts = [(float(v[0]), float(v[1]) if p.dim >= 2 else 0.0)
             for v in p.vertices()]
    to_px = _fit(verts)
    px = [to_px(v) for v in verts]
    path = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in px) + " Z"
    parts = [f'<path d="{path}" fill="none" stroke="black" stroke-width="2"/>']
    for x, y in px:
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="red"/>')
    return _svg_document(parts, [])


def svg_polytope(poly: pt.RationalPolytope) -> str:
    if poly.dim > 2:
        raise InputError("SVG output is only available in dimension <= 2")
    if poly.dim == 0:
        raise InputError("a 0-dimensional polytope has no SVG drawing")
    verts = poly.vertices()
    if not verts:
        raise EmptyPolytope("nothing to draw")
    if poly.dim == 1:
        pts = [(float(v[0]), 0.0) for v in verts]
    else:
        pts = [(float(v[0]), float(v[1])) for v in verts]
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    to_px = _fit(pts)
    px = [to_px(p) for p in pts]
    if len(px) >= 2:
        path = "M " + " L ".join(f"{x:.2f} {y:.2f}" for x, y in px) + " Z"
        parts = [f'<path d="{path}" fill="#cce5ff" stroke="black" '
                 'stroke-width="2"/>']
    else:
        parts = []
    labels = []
    for (x, y), v in zip(px, pts):
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="red"/>')
        labels.append((x + 8.0, y - 8.0, f"({v[0]:g}, {v[1]:g})"
                       if poly.dim == 2 else f"{v[0]:g}"))
    return _svg_document(parts, labels)


def cmd_polytope(args) -> int:
    alpha = parse_lengths(args.alpha)
    if args.system == "diag":
        require_polygon(alpha)
        poly = pt.diag_slice(alpha)
    else:
        if not 4 <= len(alpha) <= 6:
            raise InputError("the even-step system needs 4 to 6 lengths")
        poly = pt.even_step_polytope(alpha)
    if args.format == "json":
        text = json.dumps(poly.to_json_dict(), indent=2)
    else:
        if poly.dim > 3:
            raise InputError("CSV vertices need dimension <= 3")
        text = polytope_to_csv(poly)
    write_output(text, args.out)
    if args.svg:
        write_output(svg_polytope(poly), args.svg)
    return EXIT_OK


def cmd_classify(args) -> int:
    alpha = parse_lengths(args.alpha)
    if len(alpha) == 4:
        report = pt.quad_interval(alpha)
        if not report.generic:
            sys.stderr.write("non-generic side lengths: interval "
                             "boundaries meet\n")
            return EXIT_INFEASIBLE
        doc = report.to_json_dict()
    elif len(alpha) == 5:
        doc = pt.classify_pentagon(alpha).to_json_dict()
    else:
        raise InputError("classification is implemented for m = 4 and m = 5")
    write_output(json.dumps(doc, indent=2), args.out)
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    alpha = parse_floats(args.alpha)
    require_polygon(alpha)
    diag = parse_floats(args.diag) if args.diag else ()
    if len(diag) != max(len(alpha) - 3, 0):
        raise InputError(f"need {max(len(alpha) - 3, 0)} free diagonals "
                         f"for m = {len(alpha)}")
    ld = rec.LDPoint(alpha, diag)
    if args.angles:
        angles = parse_floats(args.angles)
        if len(angles) != len(diag):
            raise InputError(f"need {len(diag)} bending angles, one per free "
                             f"diagonal, for m = {len(alpha)}")
        poly = rec.fiber_sample(ld, angles)
    else:
        poly = rec.reconstruct(ld, args.dim)
    text = json.dumps(polygon_to_doc(poly), indent=2)
    write_output(text, args.out)
    if args.svg:
        write_output(svg_polygon(poly), args.svg)
    return EXIT_OK


def cmd_bend(args) -> int:
    if not math.isfinite(args.angle):
        raise InputError(f"--angle must be finite, got {args.angle}")
    tol = read_tolerance()
    with open(getattr(args, "in")) as fh:
        poly = polygon_from_doc(json.load(fh), tol)
    try:
        p, q = (int(t) for t in args.range.split(","))
    except ValueError as exc:
        raise InputError(f"--range needs two integers 'p,q', "
                         f"got {args.range!r}") from exc
    if not 1 <= p <= q <= poly.m or (p, q) == (1, poly.m):
        raise InputError(f"--range {p},{q} is not a proper block of edges: "
                         f"need 1 <= p <= q <= {poly.m}, not all of them")
    out = bend_range(poly.embedded(3), DiagonalRange(p, q), args.angle)
    write_output(json.dumps(polygon_to_doc(out), indent=2), args.out)
    return EXIT_OK


def cmd_sample(args) -> int:
    alpha = parse_rationals(args.alpha)
    require_polygon(alpha)
    if args.count < 0:
        raise InputError(f"--count must be >= 0, got {args.count}")
    polys = rec.sample_moduli(alpha, args.dim, args.count, args.seed)
    if args.format == "json":
        text = json.dumps([polygon_to_doc(p) for p in polys], indent=2)
    else:
        text = polygons_to_csv(polys) if polys else "polygon,edge,x,y,z\n"
    write_output(text, args.out)
    return EXIT_OK


def cmd_section(args) -> int:
    alpha = parse_rationals(args.alpha)
    poly = rec.section_sigma(alpha)
    text = json.dumps(polygon_to_doc(poly), indent=2)
    write_output(text, args.out)
    if args.svg:
        write_output(svg_polygon(poly), args.svg)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials is not None and args.trials < 0:
        raise InputError(f"--trials must be >= 0, got {args.trials}")
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [verify.run_suite(name, args.trials, args.seed)
               for name in names]
    text = json.dumps([r.to_json_dict() for r in reports], indent=2)
    write_output(text, args.out)
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY


def build_parser() -> _Parser:
    parser = _Parser(prog="polyspace")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", default=None, help="output file (stdout)")

    p = sub.add_parser("polytope", help="emit a diagonal or even-step polytope")
    p.add_argument("--alpha", required=True, help="comma-separated lengths")
    p.add_argument("--system", choices=("diag", "even"), default="diag")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--svg", default=None, help="also write an SVG drawing")
    common_out(p)
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("classify", help="moduli classification for m = 4, 5")
    p.add_argument("--alpha", required=True)
    common_out(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("reconstruct", help="polygon from lengths and diagonals")
    p.add_argument("--alpha", required=True)
    p.add_argument("--diag", default="", help="free diagonals d2..d(m-2)")
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--angles", default=None, help="bending angles (dim 3)")
    p.add_argument("--svg", default=None)
    common_out(p)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("bend", help="bend a polygon about a diagonal block")
    p.add_argument("--in", required=True, help="polygon JSON file")
    p.add_argument("--range", required=True, help="edge block 'p,q'")
    p.add_argument("--angle", type=float, required=True)
    common_out(p)
    p.set_defaults(func=cmd_bend)

    p = sub.add_parser("sample", help="sample polygons with given lengths")
    p.add_argument("--alpha", required=True)
    p.add_argument("--dim", type=int, choices=(2, 3), default=3)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common_out(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("section", help="planar polygon with given lengths")
    p.add_argument("--alpha", required=True)
    p.add_argument("--svg", default=None)
    common_out(p)
    p.set_defaults(func=cmd_section)

    p = sub.add_parser("verify", help="run randomized verification suites")
    p.add_argument("--suite", default="all",
                   choices=("all",) + tuple(verify.SUITES))
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    common_out(p)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (TriangleViolation, EmptyPolytope, NonGeneric, NotInHypersimplex,
            ZeroDiagonal) as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (InputError, OSError, json.JSONDecodeError, PolyspaceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
