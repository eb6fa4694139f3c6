"""Tests of the benchmark's independent checkers on known answers.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import workloads  # noqa: E402


def F(*xs):
    return [Fraction(x) for x in xs]


def test_walls_and_genericity():
    assert checks.on_wall(F(4, 2, 4, 2, 4))          # 4 - 2 + 4 - 2 - 4 = 0
    assert not checks.on_wall(F(4, 3, 4, 3, 4))
    assert checks.on_wall(F(1, 1, 1, 1, 1, 1))
    assert not checks.on_wall(F(1, 1, 1, 1, 1))      # odd perimeter
    assert checks.on_wall([Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)])
    assert checks.subset_sums([2, 3]) == 0b101101


def test_euler_characteristic_known_rows():
    assert checks.euler_characteristic(F(4, 3, 4, 3, 4)) == 7
    assert checks.euler_characteristic(F(2, 1, 5, 1, 2)) == 3
    assert checks.euler_characteristic(F(1, 1, 1, 1, 1)) == 7
    assert checks.euler_characteristic(F(5, 5, 10, 6, 5)) == 6


def test_feasibility_is_the_closing_condition():
    assert checks.feasible(F(1, 1, 2))
    assert not checks.feasible(F(1, 1, 1, 1, 1, 1, 100))


def test_classify_flags_wrong_rows():
    doc = {"m": 5, "generic": True, "row": "5"}
    problems, fault = checks.check_classify(F(1, 1, 1, 1, 1), 0, doc)
    assert problems and fault == "axis-row"
    problems, fault = checks.check_classify(F(4, 3, 4, 3, 4), 0, doc)
    assert problems and fault is None               # off the axes: plain wrong
    assert checks.check_classify(F(4, 3, 4, 3, 4), 0,
                                 dict(doc, row="7")) == ([], None)
    assert checks.check_classify(F(4, 2, 4, 2, 4), 3, None) == ([], None)


def pentagon_doc(alpha):
    rows, _ = checks.chain_constraints(alpha)
    verts = checks.enumerate_vertices(rows, 2)
    return {"variables": ["d2", "d3"], "generic": not checks.on_wall(alpha),
            "vertices": [[str(c) for c in v] for v in sorted(verts)],
            "facets": len(verts), "halfspaces": []}


def test_polytope_vertices_and_corruption():
    alpha = F(4, 3, 4, 3, 4)
    doc = pentagon_doc(alpha)
    assert len(doc["vertices"]) == 7
    assert checks.check_polytope(alpha, "diag", 0, doc) == ([], None)
    moved = dict(doc, vertices=[["1", "1"]] + doc["vertices"][1:])
    assert checks.check_polytope(alpha, "diag", 0, moved)[0]
    assert checks.check_polytope(alpha, "diag", 0, dict(doc, generic=False))[0]
    dropped = dict(doc, vertices=doc["vertices"][1:], facets=6)
    assert checks.check_polytope(alpha, "diag", 0, dropped)[0]


def test_polytope_infeasible_exit_codes():
    hept = F(1, 1, 1, 1, 1, 1, 100)
    assert checks.check_polytope(hept, "diag", 3, None) == ([], None)
    assert checks.check_polytope(hept, "diag", 0, {})[1] == "infeasible-accepted"
    problems, fault = checks.check_polytope(F(1, 1, 1, 10), "diag", 0, {})
    assert problems and fault is None


def test_even_step_box_of_a_hexagon():
    alpha = F(2, 3, 4, 5, 6, 7)
    rows = checks.even_constraints(alpha)
    verts = checks.enumerate_vertices(rows, 3)
    assert (Fraction(1), Fraction(1), Fraction(1)) in verts
    assert all(abs(v[0] - Fraction(5)) <= 5 for v in verts)


def square(scale=1.0):
    return [[scale, 0.0, 0.0], [0.0, scale, 0.0], [-scale, 0.0, 0.0],
            [0.0, -scale, 0.0]]


def polygon_doc(edges):
    return {"dim": 3, "edges": edges,
            "meta": {"alpha": [checks._norm(e) for e in edges],
                     "diagonals": [checks._norm(s)
                                   for s in checks.partial_sums(edges)]}}


def test_polygon_checks_and_corruption():
    doc = polygon_doc(square())
    assert checks.check_polygon(doc, [1, 1, 1, 1], 3, diag=[math.sqrt(2)]) == []
    bad = polygon_doc([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                       [0.0, -1.1, 0.0]])
    assert checks.check_polygon(bad, [1, 1, 1, 1], 3)
    assert checks.check_polygon(doc, [1, 1, 1, 1], 3, diag=[1.5])


def test_bend_rotation():
    edges = square()
    out = checks.bend_expected(edges, 1, 2, math.pi)
    # half a turn about (1, 1, 0) swaps the first two edges
    assert max(abs(x - y) for e, f in zip(out[:2], [[0, 1, 0], [1, 0, 0]])
               for x, y in zip(e, f)) < 1e-12
    assert checks.check_bend(edges, 1, 2, math.pi, 0, polygon_doc(out)) == []
    assert checks.check_bend(edges, 1, 2, math.pi / 2, 0, polygon_doc(out))
    assert checks.bend_expected(edges, 1, 3, 0.3) is not None
    assert checks.bend_expected([[1, 0, 0], [-1, 0, 0], [1, 0, 0], [-1, 0, 0]],
                                1, 2, 0.3) is None


def test_lift_identity_and_corruption():
    # the square of perimeter 2 lifts row by row: hopf(u, v) = edge
    edges = square(0.5)
    rows = []
    for x, y, z in edges:
        r = math.sqrt(x * x + y * y + z * z)
        # u real, v = (z - i y) / (2u) solves the chart equations
        u = math.sqrt((r + x) / 2.0)
        v = complex(z, -y) / (2.0 * u) if u > 1e-12 else complex(math.sqrt(r), 0.0)
        rows.append((complex(u), v))
    a = [u for u, _ in rows]
    b = [v for _, v in rows]
    for u, v, e in zip(a, b, edges):
        assert max(abs(p - q) for p, q in zip(checks.hopf_row(u, v), e)) < 1e-12
    cum = [0.5, 1.0, 1.5, 2.0]
    diags = [checks._norm(s) for s in checks.partial_sums(edges)]
    assert checks.check_lift(edges, a, b, edges, cum, diags) == []
    assert checks.check_lift(edges, a, [2 * v for v in b], edges, cum, diags)
    assert checks.check_lift(edges, a, b, edges, cum, [d + 1e-6 for d in diags])
    assert checks.check_lift(edges, a, b, edges, [c * 1.01 for c in cum], diags)


def test_verify_reports():
    ok = [{"suite": "gc", "trials": 200, "ok": True, "failures": [],
           "wall_clock": 0.1}]
    assert checks.check_verify("gc", 200, 0, ok) == ([], None)
    assert checks.check_verify("gc", 100, 0, ok)[0]
    miss = [{"suite": "kahler", "trials": 200, "ok": False, "wall_clock": 0.1,
             "failures": [{"case": "ratio[188]", "deviation": 1.09e-6,
                           "tolerance": 1e-6}]}]
    assert checks.check_verify("kahler", 200, 2, miss)[1] == "kahler-tolerance"
    assert checks.check_verify("hopf", 200, 2, [dict(miss[0], suite="hopf")])[1] is None


def test_generators_are_seeded_and_classed():
    rng = random.Random(5)
    for m in range(4, 15):
        assert checks.on_wall(workloads.wall_lengths(rng, m))
        assert checks.feasible(workloads.wall_lengths(rng, m))
        assert not checks.feasible(workloads.infeasible_lengths(rng, m))
        alpha = workloads.generic_lengths(rng, m)
        assert checks.feasible(alpha) and not checks.on_wall(alpha)
    labels = [op.argv for op in workloads.exact_ops(7, "unused")]
    assert labels == [op.argv for op in workloads.exact_ops(7, "unused")]
    assert labels != [op.argv for op in workloads.exact_ops(8, "unused")]
