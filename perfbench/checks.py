"""Independent checkers for polyspace outputs.

Nothing here imports polyspace: every expected value is recomputed from
the inputs by a separate method (integer bitsets for walls, short-subset
counts for the Euler characteristic, integer Cramer solves for vertices,
plain-float geometry for polygons). Each ``check_*`` function returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from math import lcm


# ---------------------------------------------------------------- walls

def scale_to_ints(alpha) -> list[int]:
    """alpha times the common denominator of its entries."""
    den = lcm(*(Fraction(a).denominator for a in alpha))
    return [int(Fraction(a) * den) for a in alpha]


def subset_sums(ints) -> int:
    """Bitset whose bit s is set iff some subset of ``ints`` sums to s."""
    reach = 1
    for a in ints:
        reach |= reach << a
    return reach


def on_wall(alpha) -> bool:
    """Some signed sum of the lengths vanishes: a subset carries half."""
    ints = scale_to_ints(alpha)
    total = sum(ints)
    return total % 2 == 0 and bool(subset_sums(ints) >> (total // 2) & 1)


def feasible(alpha) -> bool:
    """Closing condition: a polygon with these sides exists."""
    return 2 * max(alpha) <= sum(alpha)


def euler_characteristic(alpha) -> int:
    """chi(M_alpha) = sum over short J containing m of (m - 2|J|).

    J is short when its lengths sum to less than half the perimeter; the
    formula holds for generic alpha (Hausmann-Knutson).
    """
    m = len(alpha)
    total = sum(alpha)
    rest = range(m - 1)
    chi = 0
    for size in range(m - 1):
        for extra in itertools.combinations(rest, size):
            if 2 * (alpha[-1] + sum(alpha[j] for j in extra)) < total:
                chi += m - 2 * (size + 1)
    return chi


# Euler characteristic of each row of the pentagon table.
PENTAGON_ROW_CHI = {"3": 3, "4a": 4, "4b": 4, "5": 5, "6": 6, "7": 7}


def touches_axis(alpha) -> bool:
    """The (d2, d3) box of a pentagon reaches d2 = 0 or d3 = 0."""
    return alpha[0] == alpha[1] or alpha[3] == alpha[4]


# ------------------------------------------------------ exact polytopes

def chain_constraints(alpha):
    """Triangle inequalities of the diagonal chain as rows (normal, offset).

    Free coordinates are d_2..d_{m-2}; d_0 = d_m = 0, d_1 = alpha_1 and
    d_{m-1} = alpha_m. Each row reads normal . d <= offset. Rows whose
    normal vanishes are returned separately as constant offsets.
    """
    m = len(alpha)
    n = m - 3

    def coord(j):
        row = [0] * n
        if j in (0, m):
            return row, Fraction(0)
        if j == 1:
            return row, alpha[0]
        if j == m - 1:
            return row, alpha[-1]
        row[j - 2] = 1
        return row, Fraction(0)

    rows, constants = [], []
    for i in range(m):
        (ri, ci), (rj, cj), a = coord(i), coord(i + 1), alpha[i]
        for normal, offset in (
            ([-x - y for x, y in zip(ri, rj)], ci + cj - a),  # a <= d_i + d_j
            ([x - y for x, y in zip(ri, rj)], a - ci + cj),   # d_i <= a + d_j
            ([y - x for x, y in zip(ri, rj)], a + ci - cj),   # d_j <= a + d_i
        ):
            if any(normal):
                rows.append((normal, offset))
            else:
                constants.append(offset)
    return rows, constants


def even_constraints(alpha):
    """Even-step lengths x_k = |rho_{2k-1} + rho_{2k}| as rows.

    Each x_k lies in [|a - b|, a + b] for its pair (a, b), and the x's,
    with alpha_m appended for odd m, must close up: each is at most the
    sum of the others. For m = 4 the two x's coincide and one coordinate
    remains. Rows read normal . x <= offset.
    """
    m = len(alpha)
    pairs = [(alpha[2 * k], alpha[2 * k + 1]) for k in range(m // 2)]
    if m == 4:
        return [row for a, b in pairs for row in (([-1], -abs(a - b)), ([1], a + b))]
    n = len(pairs)
    rows = []
    for k, (a, b) in enumerate(pairs):
        e = [int(j == k) for j in range(n)]
        rows += [([-c for c in e], -abs(a - b)), (e, a + b)]
    fixed = alpha[-1] if m % 2 else Fraction(0)
    for k in range(n):  # x_k minus the other x's is at most alpha_m (or 0)
        rows.append(([1 if j == k else -1 for j in range(n)], fixed))
    if m % 2:           # alpha_m is at most the sum of the x's
        rows.append(([-1] * n, -fixed))
    return rows


def _det(mat):
    """Integer determinant by cofactor expansion (dimension <= 3)."""
    if len(mat) == 1:
        return mat[0][0]
    if len(mat) == 2:
        return mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    return sum((-1) ** c * mat[0][c] * _det([r[:c] + r[c + 1:] for r in mat[1:]])
               for c in range(3))


def enumerate_vertices(rows, dim):
    """All vertices of {x : normal . x <= offset}, by Cramer's rule.

    Offsets are scaled to integers so that every solve runs in Python
    ints; only dimensions 1 to 3 are supported.
    """
    den = lcm(*(Fraction(off).denominator for _, off in rows))
    normals = [list(nm) for nm, _ in rows]
    offsets = [int(Fraction(off) * den) for _, off in rows]
    found = set()
    for combo in itertools.combinations(range(len(rows)), dim):
        mat = [normals[i] for i in combo]
        det = _det(mat)
        if det == 0:
            continue
        nums = []
        for c in range(dim):
            swapped = [r[:c] + [offsets[i]] + r[c + 1:]
                       for r, i in zip(mat, combo)]
            nums.append(_det(swapped))
        sign = 1 if det > 0 else -1
        if all(sign * sum(a * x for a, x in zip(nm, nums)) <= sign * off * det
               for nm, off in zip(normals, offsets)):
            found.add(tuple(Fraction(x, det * den) for x in nums))
    return found


def _rank(vectors) -> int:
    rows = [list(map(Fraction, v)) for v in vectors]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c] / rows[rank][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _check_polytope_doc(alpha, doc, rows, constants, names, generic):
    problems = []
    if doc.get("variables") != names:
        return [f"variables {doc.get('variables')} != {names}"]
    if doc.get("generic") is not generic:
        problems.append(f"generic {doc.get('generic')} != {generic}")
    if any(c < 0 for c in constants):
        problems.append("constant row violated on a feasible input")
    dim = len(names)
    if dim > 3:
        if "vertices" in doc:
            problems.append("vertices emitted above dimension 3")
        return problems
    try:
        verts = {tuple(Fraction(c) for c in v) for v in doc["vertices"]}
    except (KeyError, ValueError, TypeError) as exc:
        return problems + [f"unreadable vertices: {exc}"]
    for v in verts:
        bad = [(nm, off) for nm, off in rows
               if sum(a * x for a, x in zip(nm, v)) > off]
        if bad:
            problems.append(f"vertex {v} violates {len(bad)} inequalities")
            continue
        tight = [nm for nm, off in rows
                 if sum(a * x for a, x in zip(nm, v)) == off]
        if _rank(tight) != dim:
            problems.append(f"point {v} is not a vertex")
    if not verts:
        problems.append("feasible input but no vertices")
    expected = enumerate_vertices(rows, dim)
    if verts != expected:
        problems.append(f"{len(verts)} vertices emitted, {len(expected)} exist")
    if dim == 2 and len(verts) >= 3 and doc.get("facets") != len(verts):
        problems.append(f"facets {doc.get('facets')} != {len(verts)} vertices")
    if dim == 1 and len(verts) == 2 and doc.get("facets") != 2:
        problems.append(f"facets {doc.get('facets')} != 2 on a segment")
    return problems


def check_polytope(alpha, system, code, doc):
    """Output of ``polytope --system diag|even`` for the lengths alpha.

    Returns (problems, fault): ``fault`` names the known defect when the
    only problem is that an infeasible input at m >= 7 was accepted.
    """
    alpha = [Fraction(a) for a in alpha]
    m = len(alpha)
    if not feasible(alpha):
        if code == 3:
            return [], None
        if code == 0 and system == "diag" and m >= 7:
            return ["infeasible lengths accepted"], "infeasible-accepted"
        return [f"infeasible lengths gave exit {code}, expected 3"], None
    if code != 0 or doc is None:
        return [f"feasible lengths gave exit {code}"], None
    generic = not on_wall(alpha)
    if system == "diag":
        rows, constants = chain_constraints(alpha)
        names = [f"d{k}" for k in range(2, m - 1)]
    else:
        rows, constants = even_constraints(alpha), []
        names = ["x1"] if m == 4 else [f"x{k + 1}" for k in range(m // 2)]
    return _check_polytope_doc(alpha, doc, rows, constants, names, generic), None


def check_classify(alpha, code, doc):
    """Output of ``classify`` for four or five lengths; (problems, fault)."""
    alpha = [Fraction(a) for a in alpha]
    if not feasible(alpha) or on_wall(alpha):
        if code == 3:
            return [], None
        return [f"infeasible or wall lengths gave exit {code}, expected 3"], None
    if code != 0 or doc is None:
        return [f"generic feasible lengths gave exit {code}"], None
    if len(alpha) == 4:
        a1, a2, a3, a4 = alpha
        lo, hi = max(abs(a1 - a2), abs(a3 - a4)), min(a1 + a2, a3 + a4)
        problems = []
        if [Fraction(x) for x in doc.get("interval", [])] != [lo, hi]:
            problems.append(f"interval {doc.get('interval')} != [{lo}, {hi}]")
        if doc.get("generic") is not True:
            problems.append("generic quadrilateral reported non-generic")
        if doc.get("diagonal_can_vanish") is not (lo == 0):
            problems.append("diagonal_can_vanish is wrong")
        return problems, None
    chi = euler_characteristic(alpha)
    row = doc.get("row")
    if doc.get("m") != 5 or doc.get("generic") is not True:
        return [f"bad header m={doc.get('m')} generic={doc.get('generic')}"], None
    if PENTAGON_ROW_CHI.get(row) != chi:
        problem = [f"row {row!r} has chi {PENTAGON_ROW_CHI.get(row)}, "
                   f"expected chi {chi}"]
        return problem, ("axis-row" if touches_axis(alpha) else None)
    return [], None


# -------------------------------------------------------- float polygons

def _norm(v) -> float:
    return math.sqrt(sum(c * c for c in v))


def partial_sums(edges):
    out, acc = [], [0.0] * len(edges[0])
    for e in edges:
        acc = [a + c for a, c in zip(acc, e)]
        out.append(acc)
    return out


def check_polygon(doc, alpha, dim, diag=None, tol=1e-9):
    """A polygon document: shape, closure, side lengths and diagonals.

    ``alpha`` are the target side lengths; ``diag`` optionally gives
    target diagonals d_2..d_{m-2}. The stored meta must match the edges.
    """
    problems = []
    try:
        edges = [[float(c) for c in row] for row in doc["edges"]]
        meta_alpha = [float(x) for x in doc["meta"]["alpha"]]
        meta_diag = [float(x) for x in doc["meta"]["diagonals"]]
    except (KeyError, TypeError, ValueError) as exc:
        return [f"unreadable polygon document: {exc}"]
    m = len(alpha)
    if doc.get("dim") != dim or len(edges) != m or any(len(e) != dim for e in edges):
        return [f"shape: dim {doc.get('dim')}, {len(edges)} edges, want {dim}, {m}"]
    if not all(math.isfinite(c) for e in edges for c in e):
        return ["non-finite coordinate"]
    scale = tol * max(sum(float(a) for a in alpha), 1.0)
    lengths = [_norm(e) for e in edges]
    diags = [_norm(s) for s in partial_sums(edges)]
    if diags[-1] > scale:
        problems.append(f"closure defect {diags[-1]:.3g}")
    worst = max(abs(x - float(a)) for x, a in zip(lengths, alpha))
    if worst > scale:
        problems.append(f"side length off by {worst:.3g}")
    if diag is not None:
        worst = max(abs(diags[k + 1] - float(d)) for k, d in enumerate(diag))
        if worst > scale:
            problems.append(f"diagonal off by {worst:.3g}")
    if len(meta_alpha) != m or len(meta_diag) != m:
        problems.append("meta has the wrong length")
    elif (max(abs(x - y) for x, y in zip(meta_alpha, lengths)) > scale
          or max(abs(x - y) for x, y in zip(meta_diag, diags)) > scale):
        problems.append("meta does not match the edges")
    return problems


def rotate(v, axis, theta):
    """Right-handed rotation of v about the unit vector axis (Rodrigues)."""
    c, s = math.cos(theta), math.sin(theta)
    dot = sum(a * b for a, b in zip(axis, v))
    cross = (axis[1] * v[2] - axis[2] * v[1],
             axis[2] * v[0] - axis[0] * v[2],
             axis[0] * v[1] - axis[1] * v[0])
    return [v[k] * c + cross[k] * s + axis[k] * dot * (1.0 - c) for k in range(3)]


def bend_expected(edges, p, q, theta):
    """Edges p..q (1-based) rotated about their sum by theta, or None
    when that sum is (numerically) zero."""
    block = edges[p - 1:q]
    axis = [sum(col) for col in zip(*block)]
    norm = _norm(axis)
    perimeter = sum(_norm(e) for e in edges)
    if norm <= 1e-9 * perimeter:
        return None
    unit = [a / norm for a in axis]
    return (edges[:p - 1] + [rotate(e, unit, theta) for e in block]
            + edges[q:])


def check_bend(src_edges, p, q, theta, code, doc, tol=1e-9):
    """Output of ``bend``: the rotated block, everything else unchanged."""
    expected = bend_expected(src_edges, p, q, theta)
    if expected is None:
        return [] if code == 3 else [f"zero block diagonal gave exit {code}"]
    if code != 0 or doc is None:
        return [f"bend gave exit {code}"]
    alpha = [_norm(e) for e in src_edges]
    problems = check_polygon(doc, alpha, 3, tol=tol)
    if problems:
        return problems
    scale = tol * max(sum(alpha), 1.0)
    worst = max(abs(x - y) for e, f in zip(doc["edges"], expected)
                for x, y in zip(e, f))
    if worst > scale:
        problems.append(f"bent edges off by {worst:.3g}")
    return problems


# ---------------------------------------------------------- Hopf lifts

def hopf_row(u: complex, v: complex):
    """Edge vector of the frame row (u, v): conj(q) i q for q = u + v j."""
    c = 2.0 * u.conjugate() * v
    return [abs(u) ** 2 - abs(v) ** 2, -c.imag, c.real]


def check_lift(edges, a, b, back_edges, sums, diffs, tol=1e-9):
    """Lift of a perimeter-2 polygon to a 2-frame and back.

    The columns a, b must be orthonormal in C^m, each row must map to its
    edge, the frame must map back to the polygon, and the Gel'fand-Cetlin
    identity must hold: the eigenvalue sums of the truncated Gram
    matrices are the cumulative side lengths and their gaps are the
    diagonals.
    """
    problems = []
    na = sum(abs(x) ** 2 for x in a)
    nb = sum(abs(x) ** 2 for x in b)
    ab = abs(sum(x.conjugate() * y for x, y in zip(a, b)))
    if max(abs(na - 1.0), abs(nb - 1.0), ab) > tol:
        problems.append("frame columns are not orthonormal")
    worst = max(abs(x - y) for u, v, e in zip(a, b, edges)
                for x, y in zip(hopf_row(u, v), e))
    if worst > tol:
        problems.append(f"rows do not map to the edges (off by {worst:.3g})")
    worst = max(abs(x - y) for e, f in zip(back_edges, edges)
                for x, y in zip(e, f))
    if worst > tol:
        problems.append(f"frame maps back off by {worst:.3g}")
    cum, acc = [], 0.0
    for e in edges:
        acc += _norm(e)
        cum.append(acc)
    diags = [_norm(s) for s in partial_sums(edges)]
    if max(abs(x - y) for x, y in zip(sums, cum)) > tol:
        problems.append("Gel'fand-Cetlin sums differ from cumulative lengths")
    if max(abs(x - y) for x, y in zip(diffs, diags)) > tol:
        problems.append("Gel'fand-Cetlin gaps differ from the diagonals")
    return problems


# ------------------------------------------------------ verify reports

def check_verify(suite, trials, code, doc):
    """A one-suite ``verify`` report; (problems, fault).

    The kahler suite's finite-difference probe can miss its 1e-6
    tolerance on a few trials; a report whose only failures are such
    ratio misses is that known fault.
    """
    if not isinstance(doc, list) or len(doc) != 1:
        return [f"verify gave exit {code} without a one-suite report"], None
    rep = doc[0]
    problems = []
    if rep.get("suite") != suite or rep.get("trials") != trials:
        problems.append(f"report header {rep.get('suite')}/{rep.get('trials')}")
    wall = rep.get("wall_clock")
    if not isinstance(wall, float) or not math.isfinite(wall) or wall < 0:
        problems.append(f"wall_clock {wall!r}")
    failures = rep.get("failures", [])
    ok = rep.get("ok") is True and not failures and code == 0
    if ok:
        return problems, None
    problems.append(f"suite {suite} reported {len(failures)} failures "
                    f"(exit {code})")
    known = (suite == "kahler" and code == 2 and failures
             and all(f["case"].startswith("ratio[")
                     and f["deviation"] < 10 * f["tolerance"]
                     for f in failures))
    return problems, ("kahler-tolerance" if known and len(problems) == 1
                      else None)
