"""Benchmark for polyspace: one workload, one seed, one process.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact --seed 1 --seconds 30 --trace 0

The run imports polyspace from ``src/``, builds the workload's operations
from the seed, and repeats whole rounds of them for ``--seconds``. While a
round runs, an interval timer interrupts it every REF_EVERY_S seconds to
time one slice of a fixed reference computation; the round's ``time_ref``
is its call time divided by the mean slice time, so it follows the program
rather than the speed the machine happens to have at that moment; set-up
seconds are scaled the same way to a fixed slice time. With
``--trace 1`` untraced and traced rounds alternate and the per-layer
figures are reported instead. The last line of standard output is the
result as one JSON object; the line before it carries the raw seconds.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUPS = 5
REF_EVERY_S = 0.25
# About the median reference slice time on the machine the bounds were set
# on (see README.md); set-up seconds are scaled to it.
REF_SLICE_S = 0.040


def reference() -> float:
    """Seconds taken by one slice of fixed reference work.

    The slice mixes the kinds of work polyspace spends its time on:
    Fraction arithmetic, dict-heavy bytecode, small numpy calls, and
    allocating and sorting many small objects. It never calls polyspace
    and runs with the garbage collector paused, so only the machine's
    current speed changes its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = Fraction(0)
        for k in range(1, 600):
            acc += Fraction(k % 13 + 1, k % 11 + 2) * (1 if k % 3 else -1)
        table = {}
        for k in range(12000):
            table[k & 1023] = table.get(k & 1023, 0) + (k ^ (k >> 3))
        v = np.array([0.3, -0.2, 0.9])
        w = np.array([0.1, 0.7, -0.4])
        for _ in range(600):
            v = np.cross(v, w) + 0.5 * v
            v = v / np.linalg.norm(v)
        items = sorted(Fraction(k % 17 + 1, k % 7 + 1) for k in range(1500))
        total = sum(items[::7], Fraction(0))
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if acc.denominator == 0 or not table or not np.isfinite(v).all() or total <= 0:
        raise RuntimeError("reference computation went wrong")
    return elapsed


class RefClock:
    """A clock for timed calls that leaves out interleaved reference slices.

    While started, SIGALRM runs one reference slice every ``every`` seconds
    of wall time, even in the middle of a call. ``now()`` is perf_counter
    minus the time spent in slices, so calls are timed without them.
    """

    def __init__(self, every=REF_EVERY_S):
        self.every = every
        self.slices = []
        self.paused = 0.0
        self._busy = False

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def _tick(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        try:
            self.slices.append(reference())
        finally:
            self.paused += time.perf_counter() - start
            self._busy = False

    def start(self):
        self.slices = []
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)

    def stop(self) -> float:
        """Stops the timer; returns the mean slice time of this stretch."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.slices:
            self._tick(signal.SIGALRM, None)
        return statistics.fmean(self.slices)


def import_polyspace():
    """Import polyspace afresh from the checkout's src/ directory."""
    for name in [n for n in sys.modules
                 if n == "polyspace" or n.startswith("polyspace.")]:
        del sys.modules[name]
    mods = types.SimpleNamespace(
        np=np,
        **{name: importlib.import_module(f"polyspace.{name}") for name in (
            "cli", "polygon", "polytope", "bending", "reconstruct", "frames",
            "quat", "verify")})
    if not Path(mods.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"polyspace was imported from {mods.cli.__file__}")
    return mods


class Run:
    """Outcome counts and problems over every operation of a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.faults = {}
        self.wrong = []

    def run_round(self, mods, ops, clock) -> float:
        """Runs and checks every op once; returns the summed call seconds."""
        total = 0.0
        for op in ops:
            try:
                elapsed, output = op.run(mods, clock)
                if op.after:
                    op.after(output)
                problems, fault = op.check(output)
            except Exception as exc:  # benchmark-side failure on bad output
                elapsed, problems, fault = 0.0, [f"{type(exc).__name__}: {exc}"], None
            total += elapsed
            self.attempted += 1
            if fault is not None:
                self.failed += 1
                self.faults[fault] = self.faults.get(fault, 0) + 1
            elif problems:
                self.wrong.append((op.label, problems))
        return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyspace" / "__init__.py").is_file():
        sys.stderr.write(f"error: no polyspace sources under {ROOT / 'src'}\n")
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    run_dir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, run_dir) -> int:
    build_ops, build_warmup = WORKLOADS[args.workload]
    # set-up: import, input generation and warm-up, repeated; the median
    # is kept, each scaled by the reference slices timed on either side
    setup_s, setup_scaled = [], []
    before = reference()
    for _ in range(SETUPS):
        start = time.perf_counter()
        mods = import_polyspace()
        ops = build_ops(args.seed, run_dir)
        warm = Run()
        warm.run_round(mods, build_warmup(run_dir), RefClock())
        setup_s.append(time.perf_counter() - start)
        after = reference()
        setup_scaled.append(setup_s[-1] * REF_SLICE_S / (0.5 * (before + after)))
        before = after
        if warm.wrong or warm.failed:
            sys.stderr.write(f"warm-up went wrong: {warm.wrong}\n")
            return 1

    run = Run()
    clock = RefClock()
    tracer = tracing.Tracer(clock.now) if args.trace else None
    plain_ratio, traced_ratio, layer_rounds = [], [], []
    round_s, ref_s, durations = [], [], {}
    start = time.perf_counter()
    traced = False
    while True:
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install(mods)
        clock.start()
        try:
            seconds = run.run_round(mods, ops, clock)
        finally:
            ref = clock.stop()
            if traced:
                tracer.uninstall()
        round_s.append(seconds)
        ref_s.append(ref)
        if traced:
            traced_ratio.append(seconds / ref)
            layer_rounds.append(tracer.round_metrics(seconds))
            for command, samples in tracer.command_durations().items():
                durations.setdefault(command, []).extend(samples)
            tracer.keep_spans = False
        else:
            plain_ratio.append(seconds / ref)
        done = time.perf_counter() - start >= args.seconds
        if tracer:
            traced = not traced
            if done and not traced:  # stop after a complete untraced/traced pair
                break
        elif done:
            break

    correct = not run.wrong
    for label, problems in run.wrong[:20]:
        sys.stderr.write(f"wrong output: {label}: {'; '.join(problems)[:500]}\n")
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "round_s": round_s, "ref_s": ref_s, "setup_s": setup_s,
              "faults": run.faults, "rounds": len(round_s)}
    if tracer:
        overhead = statistics.median(traced_ratio) - statistics.median(plain_ratio)
        metrics, counts_repeat = tracing.summarize(layer_rounds, durations, overhead)
        if not counts_repeat:
            sys.stderr.write("per-layer counts differ between traced rounds\n")
            correct = False
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.save(trace_path)
        detail["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"time_ref": (statistics.median(plain_ratio), "ref"),
                   "peak_rss_mb": (peak_mb, "MB"),
                   "setup_s": (statistics.median(setup_scaled), "s")}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
