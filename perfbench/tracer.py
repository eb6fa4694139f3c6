"""Per-layer tracing, installed from outside the program.

Each traced function is replaced by a wrapper in every polyspace
namespace that binds it by name (``cli`` imports ``bend_range``,
``reconstruct`` imports ``diag_slice``, and so on), in ``verify.SUITES``
and, for methods, on the class. A wrapper records a span (id, parent,
name, start, end) and accumulates the span's self time: its duration
minus the time covered by its child spans. The callables returned by
``bending.diagonal_hamiltonian`` are wrapped to count evaluations only,
since the flow makes millions of them.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# Layer functions whose spans are recorded, as (module, attribute). Time
# spent in any other function counts toward the nearest traced caller.
TRACED = (
    ("polygon", "is_generic_lengths"), ("polygon", "wall_distance"),
    ("polygon", "enumerate_lined"),
    ("polytope", "diag_slice"), ("polytope", "RationalPolytope.vertices"),
    ("polytope", "RationalPolytope.facet_count"),
    ("polytope", "classify_pentagon"), ("polytope", "even_step_polytope"),
    ("polytope", "in_hypersimplex"),
    ("bending", "hamiltonian_flow"), ("bending", "bend_range"),
    ("reconstruct", "sample_moduli"), ("reconstruct", "sample_ld"),
    ("reconstruct", "reconstruct"), ("reconstruct", "fiber_sample"),
    ("reconstruct", "section_sigma"),
    ("frames", "frame_from_polygon"), ("frames", "frame_to_polygon"),
    ("frames", "gc_pattern"),
    ("quat", "hopf"), ("quat", "hopf_complex"), ("quat", "hopf_section"),
)
SUITES = ("hopf", "gc", "bend", "kahler", "dh", "hexcount", "roundtrip")
COMMANDS = ("polytope", "classify", "sample", "reconstruct", "bend",
            "section", "verify")
CALL_COUNTS = ("polygon.is_generic_lengths", "polytope.diag_slice",
               "polytope.vertices", "bending.hamiltonian_flow",
               "bending.bend_range", "quat.hopf", "quat.hopf_complex",
               "quat.hopf_section")


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for module, attr in TRACED:
        name = f"{module}.{attr.split('.')[-1]}"
        if name in CALL_COUNTS:
            out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_ms", "ms"))
        out.append((f"{name}.self_pct", "%round"))
        if name == "polytope.diag_slice":
            out.append((f"{name}.empty", "count"))
        if name == "bending.hamiltonian_flow":
            out.append(("bending.h_evals", "count"))
    out += [(f"verify.{s}.ms", "ms") for s in SUITES]
    out += [("cli.self_ms", "ms"), ("cli.self_pct", "%round")]
    out += [(f"cli.{c}.p50_ms", "ms") for c in COMMANDS]
    out.append(("trace.overhead_ref", "ref"))
    return out


class Tracer:
    """Span recorder for one process; spans stay in memory until saved."""

    def __init__(self, now=time.perf_counter):
        self.now = now         # the clock spans are timed by
        self.spans = []        # (id, parent, name, start, end)
        self.keep_spans = True
        self._stack = []       # [span id, child seconds]
        self._next_id = 0
        self._installed = []   # (owner, key, original, is_dict)
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.raised = Counter()
        self.durations = defaultdict(list)

    def span(self, name, fn, label=None):
        """Wrap fn so each call records a span named ``name``.

        ``label(args)`` may refine the name per call (the CLI command).
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = label(args) if label else name
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            start = tracer.now()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                tracer.raised[(span_name, type(exc).__name__)] += 1
                raise
            finally:
                end = tracer.now()
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                tracer.self_s[span_name] += dur - frame[1]
                tracer.total_s[span_name] += dur
                tracer.calls[span_name] += 1
                tracer.durations[span_name].append(dur)
                if tracer.keep_spans:
                    tracer.spans.append((sid, parent, span_name, start, end))
        return wrapper

    def counting_hamiltonian(self, factory):
        tracer = self

        @functools.wraps(factory)
        def wrapped_factory(*args, **kwargs):
            H = factory(*args, **kwargs)

            def counted(points):
                tracer.calls["bending.h_evals"] += 1
                return H(points)
            return counted
        return wrapped_factory

    def install(self, mods):
        """Replace every traced function wherever polyspace binds it."""
        modules = [m for n, m in sys.modules.items()
                   if n == "polyspace" or n.startswith("polyspace.")]
        replacements = {}
        for module, attr in TRACED:
            owner = getattr(mods, module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[meth]
                name = f"{module}.{meth}"
                self._set(cls, meth, self.span(name, original))
            else:
                original = getattr(owner, attr)
                replacements[id(original)] = (original,
                                              self.span(f"{module}.{attr}", original))
        original = mods.bending.diagonal_hamiltonian
        replacements[id(original)] = (original, self.counting_hamiltonian(original))
        original = mods.cli.main
        replacements[id(original)] = (original, self.span(
            "cli", original, label=lambda args: f"cli.{args[0][0]}"))
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, key, hit[1])
        suites = mods.verify.SUITES
        for key, fn in list(suites.items()):
            self._installed.append((suites, key, fn, True))
            suites[key] = self.span(f"verify.{key}", fn)

    def _set(self, owner, key, wrapper):
        self._installed.append((owner, key, getattr(owner, key), False))
        setattr(owner, key, wrapper)

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._installed):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._installed = []

    def round_metrics(self, round_s):
        """Per-layer figures of the round just traced (times in ms)."""
        out = {}
        for name, unit in per_layer_metrics():
            base, _, kind = name.rpartition(".")
            if kind == "calls":
                out[name] = self.calls[base]
            elif name == "bending.h_evals":
                out[name] = self.calls[name]
            elif kind == "empty":
                out[name] = self.raised[(base, "EmptyPolytope")]
            elif name in ("cli.self_ms", "cli.self_pct"):
                cli = sum(v for k, v in self.self_s.items() if k.startswith("cli."))
                out[name] = 1e3 * cli if kind == "self_ms" else 100.0 * cli / round_s
            elif kind == "self_ms":
                out[name] = 1e3 * self.self_s[base]
            elif kind == "self_pct":
                out[name] = 100.0 * self.self_s[base] / round_s
            elif kind == "ms" and base.startswith("verify."):
                out[name] = 1e3 * self.total_s[base]
        return out

    def command_durations(self):
        return {c: list(self.durations[f"cli.{c}"]) for c in COMMANDS}

    def save(self, path):
        """Write the recorded spans as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start", "end"],
                       "spans": self.spans}, fh)


def summarize(rounds, durations, overhead_ref):
    """Median per-layer figures over traced rounds, counts from the first.

    Returns (metrics, counts_repeat) where counts_repeat is False when a
    count differed between traced rounds of the same run.
    """
    metrics = {}
    counts_repeat = True
    for name, unit in per_layer_metrics():
        if name == "trace.overhead_ref":
            metrics[name] = (overhead_ref, unit)
        elif name.startswith("cli.") and name.endswith(".p50_ms"):
            samples = durations[name.split(".")[1]]
            metrics[name] = (1e3 * statistics.median(samples) if samples else 0.0,
                             unit)
        elif unit == "count":
            values = {r[name] for r in rounds}
            counts_repeat &= len(values) == 1
            metrics[name] = (rounds[0][name], unit)
        else:
            metrics[name] = (statistics.median(r[name] for r in rounds), unit)
    return metrics, counts_repeat
