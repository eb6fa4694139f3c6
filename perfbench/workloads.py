"""The benchmark's workloads: seeded inputs, operations and their checks.

A workload turns a seed into a fixed list of operations. Every round runs
the whole list, so the count of operations, and of operations that hit a
known fault, is the same in every round and every run. An operation runs
one CLI command in-process through ``cli.main`` or one chain of library
calls; only that call is timed. Its output is then checked against the
independent checkers in ``checks.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import traceback
from fractions import Fraction
from pathlib import Path

import checks

# Pentagons whose (d2, d3) box reaches an axis (alpha1 = alpha2 or
# alpha4 = alpha5). classify reads the row off the side count there, which
# is wrong for the first four (their chi is 7, 6, 6 and 6). The set does not
# depend on the seed, so the number of wrong rows is the same in every run.
AXIS_PENTAGONS = ((1, 1, 1, 1, 1), (5, 5, 10, 6, 5), (1, 1, 2, 2, 1),
                  (1, 1, 1, 5, 5), (1, 1, 1, 1, 3), (1, 1, 2, 3, 6))

# polytope at m >= 7 accepts infeasible lengths; this one is seed-free.
INFEASIBLE_HEPTAGON = (1, 1, 1, 1, 1, 1, 100)

# verify trial counts, written out so that lowering a default cannot
# shorten the work.
VERIFY_TRIALS = {"hopf": 1000, "gc": 200, "bend": 4, "kahler": 200,
                 "dh": 200, "hexcount": 1, "roundtrip": 100}
# The kahler suite misses its tolerance on a few seeds (3 among them), so
# it runs at this fixed seed and counts as a known fault in every run.
KAHLER_SEED = 3

MAX_DRAWS = 10000


class Op:
    """One timed call into polyspace plus the check of its output.

    ``check(output)`` returns (problems, fault); ``fault`` names a known
    defect when the problems are exactly that defect.
    """

    def __init__(self, label, argv=None, call=None, check=None, after=None):
        self.label = label
        self.argv = argv
        self.call = call
        self.check = check
        self.after = after

    def run(self, mods, clock):
        """Returns (seconds by ``clock.now``, output)."""
        if self.call is not None:
            return self.call(mods, clock)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = clock.now()
            try:
                code = mods.cli.main(self.argv)
            except Exception:  # a traceback out of cli.main is a wrong output
                code = None
                err.write(traceback.format_exc())
            elapsed = clock.now() - start
        return elapsed, (code, out.getvalue(), err.getvalue())


def _json_or_none(text):
    try:
        return json.loads(text)
    except ValueError:
        return None


def _fmt(alpha):
    return ",".join(str(Fraction(a)) for a in alpha)


def _draw(rng, accept, make):
    """First candidate from ``make(rng)`` that ``accept`` takes."""
    for _ in range(MAX_DRAWS):
        cand = make(rng)
        if accept(cand):
            return cand
    raise RuntimeError("no acceptable input in the draw budget")


def _scaled(nums, den):
    return tuple(Fraction(n, den) for n in nums)


# ------------------------------------------------------------- exact

def generic_lengths(rng, m, den=1):
    """Feasible lengths off every wall; pentagons also stay off the axes."""
    def ok(a):
        return (2 * max(a) < sum(a) and not checks.on_wall(a)
                and not (m == 5 and checks.touches_axis(a)))
    return _draw(rng, ok, lambda r: _scaled([r.randint(1, 30) for _ in range(m)], den))


def wall_lengths(rng, m, den=1):
    """Feasible lengths on a wall: k = 2 or 3 long sides, placed last,
    balance the m - k short ones.

    With the balancing group last, a sign enumeration that starts from
    all-plus meets the vanishing sum within 2^k steps, so a wall costs
    the same little for every seed.
    """
    k = 2 if m < 5 else rng.choice((2, 3))
    short = [rng.randint(1, 30) for _ in range(m - k)]
    total = sum(short)
    cuts = sorted(rng.sample(range(1, total), k - 1))
    long = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    return _scaled(short + long, den)


def infeasible_lengths(rng, m, den=1):
    """Generic lengths of which one exceeds the sum of the others."""
    def make(r):
        nums = [r.randint(1, 30) for _ in range(m)]
        k = r.randrange(m)
        nums[k] = sum(nums) - nums[k] + r.randint(1, 10)
        return _scaled(nums, den)
    return _draw(rng, lambda a: not checks.on_wall(a), make)


def _polytope_op(alpha, system):
    def check(output):
        code, out, _ = output
        doc = _json_or_none(out) if code == 0 else None
        return checks.check_polytope(alpha, system, code, doc)
    return Op(f"polytope-{system}-m{len(alpha)}",
              ["polytope", "--alpha", _fmt(alpha), "--system", system], check=check)


def _classify_op(alpha):
    def check(output):
        code, out, _ = output
        doc = _json_or_none(out) if code == 0 else None
        return checks.check_classify(alpha, code, doc)
    return Op(f"classify-m{len(alpha)}", ["classify", "--alpha", _fmt(alpha)],
              check=check)


def _den(m, slot):
    """Denominator of an input, fixed by its place in the round.

    Fraction arithmetic costs more with larger denominators; fixing them
    by slot keeps a round's work the same from seed to seed.
    """
    return 1 + (m + slot) % 6


def exact_ops(seed, run_dir):
    rng = random.Random(f"exact:{seed}")
    ops = []
    for m, n_generic in ((4, 3), (5, 4), (6, 2)):
        vectors = [generic_lengths(rng, m, _den(m, k)) for k in range(n_generic)]
        vectors += [wall_lengths(rng, m, _den(m, n_generic)),
                    infeasible_lengths(rng, m, _den(m, n_generic + 1))]
        if m == 5:
            vectors += [tuple(Fraction(a) for a in v) for v in AXIS_PENTAGONS]
        for alpha in vectors:
            ops.append(_polytope_op(alpha, "diag"))
            ops.append(_polytope_op(alpha, "even"))
            if m <= 5:
                ops.append(_classify_op(alpha))
    for m in range(7, 15):
        for alpha in (generic_lengths(rng, m, _den(m, 0)),
                      wall_lengths(rng, m, _den(m, 1)),
                      infeasible_lengths(rng, m, _den(m, 2))):
            ops.append(_polytope_op(alpha, "diag"))
    ops.append(_polytope_op(tuple(map(Fraction, INFEASIBLE_HEPTAGON)), "diag"))
    return ops


def exact_warmup(run_dir):
    return [_polytope_op((Fraction(2), Fraction(1), Fraction(5), Fraction(1),
                          Fraction(2)), "diag"),
            _polytope_op(tuple(map(Fraction, (2, 3, 4, 5, 6, 7))), "even"),
            _classify_op(tuple(map(Fraction, (4, 3, 4, 3, 4))))]


# ------------------------------------------------------------ sample

def random_polygon(rng, m):
    """Closed polygon in R^3 whose diagonals stay away from zero."""
    def make(r):
        edges = [[r.gauss(0.0, 1.0) for _ in range(3)] for _ in range(m)]
        mean = [sum(col) / m for col in zip(*edges)]
        return [[x - c for x, c in zip(e, mean)] for e in edges]

    def ok(edges):
        per = sum(checks._norm(e) for e in edges)
        diags = [checks._norm(s) for s in checks.partial_sums(edges)[:-1]]
        return min(diags) > 0.1 * per / m
    return _draw(rng, ok, make)


def hypersimplex_lengths(rng, m):
    """Rational lengths with sum 2 and every entry below 1."""
    def make(r):
        nums = [r.randint(1, 20) for _ in range(m)]
        return tuple(Fraction(2 * n, sum(nums)) for n in nums)
    return _draw(rng, lambda a: max(a) < 1, make)


def _sample_op(samples, alpha, dim, count, sample_seed, path):
    """``sample`` writing a file; ``samples[(m, dim)]`` gets its polygons."""
    argv = ["sample", "--alpha", _fmt(alpha), "--dim", str(dim), "--count",
            str(count), "--seed", str(sample_seed), "--out", str(path)]

    def after(output):
        """Split the list into single-polygon files for ``bend``."""
        try:
            docs = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            docs = []
        samples[(len(alpha), dim)] = docs
        for j, doc in enumerate(docs):
            Path(f"{path}.{j}.json").write_text(json.dumps(doc))

    def check(output):
        code = output[0]
        docs = samples.get((len(alpha), dim), [])
        if code != 0 or not isinstance(docs, list) or len(docs) != count:
            return [f"sample gave exit {code} and {len(docs)} polygons"], None
        problems = []
        for doc in docs:
            problems += checks.check_polygon(doc, alpha, dim)
        return problems, None
    return Op(f"sample-m{len(alpha)}-d{dim}", argv, check=check, after=after)


def _bend_op(samples, m, j, path, p, q, theta):
    argv = ["bend", "--in", f"{path}.{j}.json", "--range", f"{p},{q}",
            "--angle", repr(theta)]

    def check(output):
        code, out, _ = output
        docs = samples.get((m, 3), [])
        if j >= len(docs):
            return ["no sampled polygon to bend"], None
        src = docs[j]["edges"]
        doc = _json_or_none(out) if code == 0 else None
        return checks.check_bend(src, p, q, theta, code, doc), None
    return Op(f"bend-m{m}", argv, check=check)


def _reconstruct_op(edges, dim, angles):
    alpha = [checks._norm(e) for e in edges]
    diag = [checks._norm(s) for s in checks.partial_sums(edges)][1:-2]
    argv = ["reconstruct", "--alpha", ",".join(map(repr, alpha)),
            "--diag", ",".join(map(repr, diag))]
    if angles is None:
        argv += ["--dim", str(dim)]
    else:
        argv += ["--angles", ",".join(map(repr, angles))]

    def check(output):
        code, out, _ = output
        doc = _json_or_none(out) if code == 0 else None
        if doc is None:
            return [f"reconstruct gave exit {code}"], None
        return checks.check_polygon(doc, alpha, dim, diag=diag), None
    return Op(f"reconstruct-m{len(edges)}", argv, check=check)


def _section_op(alpha):
    def check(output):
        code, out, _ = output
        doc = _json_or_none(out) if code == 0 else None
        if doc is None:
            return [f"section gave exit {code}"], None
        return checks.check_polygon(doc, alpha, 2), None
    return Op(f"section-m{len(alpha)}", ["section", "--alpha", _fmt(alpha)],
              check=check)


def _lift_op(samples, m, dim, j):
    """frame_from_polygon -> frame_to_polygon -> gc_pattern, in the library."""
    def call(mods, clock):
        doc = samples[(m, dim)][j]
        edges = [list(map(float, e)) + [0.0] * (3 - dim) for e in doc["edges"]]
        per = sum(checks._norm(e) for e in edges)
        edges = [[2.0 * c / per for c in e] for e in edges]
        poly = mods.polygon.Polygon(3, mods.np.array(edges))
        start = clock.now()
        frame = mods.frames.frame_from_polygon(poly)
        back = mods.frames.frame_to_polygon(frame)
        pattern = mods.frames.gc_pattern(frame)
        elapsed = clock.now() - start
        return elapsed, (edges, frame.a.tolist(), frame.b.tolist(),
                         back.edges.tolist(), pattern.sums.tolist(),
                         pattern.diffs.tolist())

    def check(output):
        return checks.check_lift(*output), None
    return Op(f"lift-m{m}-d{dim}", call=call, check=check)


SAMPLE_SIZES = range(5, 25)
SAMPLE_COUNT = 6


def sample_ops(seed, run_dir):
    rng = random.Random(f"sample:{seed}")
    samples = {}
    ops, bends, lifts, rest = [], [], [], []
    for m in SAMPLE_SIZES:
        alpha = _draw(rng, lambda a: 2 * max(a) < sum(a),
                      lambda r: _scaled([r.randint(1, 20) for _ in range(m)],
                                        _den(m, 0)))
        for dim in (2, 3):
            path = Path(run_dir) / f"sample-m{m}-d{dim}.json"
            ops.append(_sample_op(samples, alpha, dim, SAMPLE_COUNT,
                                  rng.randrange(1 << 30), path))
            for j in range(SAMPLE_COUNT):
                lifts.append(_lift_op(samples, m, dim, j))
                if dim == 3:
                    p = rng.randint(1, m - 1)
                    q = rng.randint(p + 1, m - 1 if p == 1 else m)
                    bends.append(_bend_op(samples, m, j, path, p, q,
                                          rng.uniform(-math.pi, math.pi)))
        edges = random_polygon(rng, m)
        rest.append(_reconstruct_op(edges, 2 + m % 2, None))
        rest.append(_reconstruct_op(
            edges, 3, [rng.uniform(0.0, 2.0 * math.pi) for _ in range(m - 3)]))
        rest.append(_section_op(hypersimplex_lengths(rng, m)))
    return ops + bends + rest + lifts


def sample_warmup(run_dir):
    samples = {}
    path = Path(run_dir) / "warmup.json"
    alpha = tuple(map(Fraction, (3, 2, 4, 2, 3)))
    rng = random.Random("sample-warmup")
    return [_sample_op(samples, alpha, 3, 1, 0, path),
            _bend_op(samples, 5, 0, path, 2, 4, 0.5),
            _reconstruct_op(random_polygon(rng, 5), 3, [0.3, 0.4]),
            _section_op(hypersimplex_lengths(rng, 5)),
            _lift_op(samples, 5, 3, 0)]


# ------------------------------------------------------------ verify

def _verify_op(suite, trials, seed):
    def check(output):
        code, out, _ = output
        return checks.check_verify(suite, trials, code, _json_or_none(out))
    return Op(f"verify-{suite}", ["verify", "--suite", suite, "--trials",
                                  str(trials), "--seed", str(seed)], check=check)


def verify_ops(seed, run_dir):
    return [_verify_op(suite, trials, KAHLER_SEED if suite == "kahler" else seed)
            for suite, trials in VERIFY_TRIALS.items()]


def verify_warmup(run_dir):
    # one trial per suite; with zero trials the bend suite still runs its
    # one-off flow-sign probe, which is set-up work
    return [_verify_op(suite, 0 if suite == "bend" else 1, 0)
            for suite in VERIFY_TRIALS]


WORKLOADS = {
    "exact": (exact_ops, exact_warmup),
    "sample": (sample_ops, sample_warmup),
    "verify": (verify_ops, verify_warmup),
}
