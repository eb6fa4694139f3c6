"""Command-line interface: polytopes, classification, reconstruction,
bending, sampling, the planar section and the verification suites.

Exit codes: 0 success, 1 input error, 2 verification failure,
3 infeasible or degenerate input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import reconstruct as rec
from . import polytope as pt
from . import verify
from .bending import bend_range
from .errors import EmptyPolytope, Infeasible, InputError, PolyspaceError
from .polygon import (Polygon, as_fraction, closure_defect, is_zero, norm,
                      perimeter, unit_scaled)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_INFEASIBLE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exit code is 2; we use 1
        raise InputError(message)


def parse_rationals(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(as_fraction(tok.strip()) for tok in text.split(","))
    except InputError:
        raise
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InputError(f"cannot parse rational list {text!r}") from exc


def parse_lengths(text: str) -> tuple[Fraction, ...]:
    alpha = parse_rationals(text)
    if any(a.numerator <= 0 for a in alpha):
        raise InputError("side lengths must be positive")
    return alpha


def parse_floats(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse number list {text!r}") from exc
    if not all(math.isfinite(v) for v in values):
        raise InputError(f"number list {text!r} has a non-finite entry")
    return values


def polygon_docs(edges: np.ndarray) -> list[dict]:
    """The documents of an (N, m, dim) edge stack, refused whole if a side
    or diagonal is not finite (a side is not where its edge is not)."""
    with np.errstate(over="ignore", invalid="ignore"):
        alpha, diags = norm(edges, -1), norm(np.cumsum(edges, axis=-2), -1)
    if not np.isfinite([alpha, diags]).all():
        raise InputError("the polygon is not finite in floating point; "
                         "the input lengths are out of range")
    return [{"dim": edges.shape[-1], "edges": e,
             "meta": {"alpha": a, "diagonals": d}}
            for e, a, d in zip(edges.tolist(), alpha.tolist(), diags.tolist())]


_value_json = json.JSONEncoder(default=str).encode   # one value, as json.dumps
_str_json = json.encoder.encode_basestring_ascii
_ROW_JSON = {float: float.__repr__, str: _str_json}
_TEXT_JSON = {str: _str_json, Fraction: lambda x: _str_json(str(x)),
              int: int.__repr__, bool: ("false", "true").__getitem__,
              type(None): lambda x: "null"}


def _json(x, pad: str = "") -> str:
    """``json.dumps(x, indent=2, default=str)`` of a document with string
    keys, its first line at ``pad``, by string joins: one over ``_ROW_JSON``
    per list of finite floats or strings and per row of a list of such
    lists; a string, Fraction, int, bool or None is a ``_TEXT_JSON`` call."""
    if not isinstance(x, (dict, list, tuple)) or not x:
        text = _TEXT_JSON.get(type(x))
        return text(x) if text else _value_json(x)
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(x, dict):
        ends, body = "{}", sep.join([f"{_str_json(k)}: {_json(v, inner)}"
                                     for k, v in x.items()])
    else:
        ends, cell = "[]", sep + "  "
        rows = type(x[0]) is list and all(type(r) is list and r for r in x)
        kind = type(x[0][0] if rows else x[0])
        try:   # a row is "[", its items joined by cell, then "]" on its line
            write = _ROW_JSON[kind]
            body = (f"[{cell[1:]}" + f"\n{inner}]{sep}[{cell[1:]}".join(map(
                cell.join, map(functools.partial(map, write), x)))
                + f"\n{inner}]" if rows else sep.join(map(write, x)))
        except (KeyError, TypeError):   # another type, or mixed types
            body = None
        if body is None or kind is float and "n" in body:   # nan or inf
            body = sep.join([_json(v, inner) for v in x])
    return ends[0] + "\n" + inner + body + "\n" + pad + ends[1]


def polygon_from_doc(doc: dict) -> Polygon:
    try:
        poly = Polygon(doc["dim"], np.array(doc["edges"], dtype=float))
    except (KeyError, ValueError, TypeError, OverflowError) as exc:
        raise InputError(f"bad polygon document: {exc}") from exc
    if not np.isfinite(poly.edges).all():
        raise InputError("polygon document has a non-finite edge")
    # closure of the unit_scaled edges: the perimeter sum stays finite
    unit = Polygon(poly.dim, unit_scaled(poly.edges)[0])
    per, defect = perimeter(unit), closure_defect(unit)
    if not is_zero(defect, per):
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


def _emit(args, text: str, draw=None, shape=None) -> int:
    """Write the ``--svg`` drawing ``draw(shape)``, if asked for, then the
    text; the drawing goes first, so that a failed one leaves no output."""
    if draw is not None and args.svg:
        write_output(draw(shape), args.svg)
    write_output(text, args.out)
    return EXIT_OK


def _csv(header, rows) -> str:
    """CSV text: each line, the header first, is a (label, cells) pair
    written as the label, a comma and the cells joined by commas."""
    return "".join(f"{label}," + ",".join(cells) + "\n"
                   for label, cells in [header, *rows])


def _svg(points: list[tuple[float, float]], fill: str, labels=()) -> str:
    """Fit the points to an 800 x 800 page; draw their closed path (if
    there are at least 2), a dot on each, then each label beside its dot."""
    xs, ys = zip(*points)
    lo_x, lo_y = min(xs), min(ys)
    scale = 720.0 / (max(max(xs) - lo_x, max(ys) - lo_y) or 1.0)
    px = [(40.0 + (x - lo_x) * scale, 760.0 - (y - lo_y) * scale)
          for x, y in points]
    parts = []
    if len(px) >= 2:
        path = " L ".join(f"{x:.2f} {y:.2f}" for x, y in px)
        parts.append(f'<path d="M {path} Z" fill="{fill}" stroke="black" '
                     'stroke-width="2"/>')
    parts += [f'<circle cx="{x:.2f}" cy="{y:.2f}" r="4" fill="red"/>'
              for x, y in px]
    parts += [f'<text x="{x + 8.0:.2f}" y="{y - 8.0:.2f}" '
              f'font-size="14">{label}</text>'
              for (x, y), label in zip(px, labels)]
    return ('<svg xmlns="http://www.w3.org/2000/svg" '
            'viewBox="0 0 800 800">\n' + "\n".join(parts) + "\n</svg>\n")


def svg_polygon(p: Polygon) -> str:
    return _svg([(float(v[0]), float(v[1]) if p.dim >= 2 else 0.0)
                 for v in p.vertices()], "none")


def svg_polytope(poly: pt.RationalPolytope) -> str:
    if poly.dim > 2:
        raise InputError("SVG output is only available in dimension <= 2")
    if poly.dim == 0:
        raise InputError("a 0-dimensional polytope has no SVG drawing")
    verts = poly.vertices()
    if not verts:
        raise EmptyPolytope("nothing to draw")
    try:
        pts = [(float(v[0]), float(v[1]) if poly.dim == 2 else 0.0)
               for v in verts]
    except OverflowError as exc:
        raise InputError("the polytope is beyond the float range; "
                         "it has no SVG drawing") from exc
    if poly.dim == 1:
        labels = [f"{x:g}" for x, _ in pts]
    else:
        cx = sum(p[0] for p in pts) / len(pts)
        cy = sum(p[1] for p in pts) / len(pts)
        pts.sort(key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
        labels = [f"({x:g}, {y:g})" for x, y in pts]
    return _svg(pts, "#cce5ff", labels)


def cmd_polytope(args) -> int:
    alpha = parse_lengths(args.alpha)
    if args.system == "diag":
        poly = pt.diag_slice(alpha)
    else:
        poly = pt.even_step_polytope(alpha)
    if args.format == "json":
        text = _json(poly.to_json_dict())
    else:
        text = _csv(("vertex", poly.variables),
                    enumerate(poly.vertex_strings()))
    return _emit(args, text, svg_polytope, poly)


def cmd_classify(args) -> int:
    alpha = parse_lengths(args.alpha)
    if len(alpha) == 4:
        doc = pt.quad_interval(alpha)
        if not doc["generic"]:
            raise Infeasible("non-generic side lengths: interval "
                             "boundaries meet")
    elif len(alpha) == 5:
        doc = pt.classify_pentagon(alpha)
    else:
        raise InputError("classification is implemented for m = 4 and m = 5")
    return _emit(args, _json(doc))


def cmd_reconstruct(args) -> int:
    alpha = parse_floats(args.alpha)
    diag = parse_floats(args.diag) if args.diag else ()
    ld = rec.LDPoint(alpha, diag)
    if args.angles:
        if args.dim == 2:
            raise InputError("--angles bends the polygon in 3-space; "
                             "it cannot be combined with --dim 2")
        p = rec.fiber_sample(ld, parse_floats(args.angles))
    else:
        p = rec.reconstruct(ld, args.dim)
    return _emit(args, _json(*polygon_docs(p.edges[None])), svg_polygon, p)


def cmd_bend(args) -> int:
    if not math.isfinite(args.angle):
        raise InputError(f"--angle must be finite, got {args.angle}")
    try:
        with open(getattr(args, "in"), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"cannot read the polygon file: {exc}") from exc
    if isinstance(doc, list):  # a file written by ``sample``
        if len(doc) != 1:
            raise InputError(f"bend reads one polygon, but the file holds "
                             f"a list of {len(doc)}")
        doc = doc[0]
    poly = polygon_from_doc(doc)
    try:
        p, q = (int(t) for t in args.range.split(","))
    except ValueError as exc:
        raise InputError(f"--range needs two integers 'p,q', "
                         f"got {args.range!r}") from exc
    out = bend_range(poly.embedded(), (p, q), args.angle)
    return _emit(args, _json(*polygon_docs(out.edges[None])))


def cmd_sample(args) -> int:
    alpha = parse_rationals(args.alpha)
    polys = rec.sample_moduli(alpha, args.dim, args.count, args.seed)
    docs = polygon_docs(np.reshape([p.edges for p in polys],
                                   (len(polys), len(alpha), args.dim)))
    if args.format == "json":
        text = _json(docs)
    else:
        text = _csv(("polygon,edge", "xyz"[:args.dim]),
                    ((f"{i},{e + 1}", map(repr, row))
                     for i, doc in enumerate(docs)
                     for e, row in enumerate(doc["edges"])))
    return _emit(args, text)


def cmd_section(args) -> int:
    alpha = parse_rationals(args.alpha)
    p = rec.section_sigma(alpha)
    return _emit(args, _json(*polygon_docs(p.edges[None])), svg_polygon, p)


def cmd_verify(args) -> int:
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    reports = [verify.run_suite(name, args.trials, args.seed)
               for name in names]
    _emit(args, _json([r.to_json_dict() for r in reports]))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VERIFY


@functools.cache
def build_parser() -> tuple[_Parser, dict]:
    """The top-level parser and {subcommand name: its parser}."""
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
    return parser, sub.choices


def main(argv=None) -> int:
    parser, commands = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # a known subcommand goes straight to the parser it would be handed to
        args = (commands[argv[0]].parse_args(argv[1:])
                if argv and argv[0] in commands else parser.parse_args(argv))
        return args.func(args)
    except Infeasible as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return EXIT_INFEASIBLE
    except (OSError, PolyspaceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
