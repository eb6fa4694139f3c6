"""One round of every benchmark workload passes the benchmark's checkers.

``perfbench/checks.py`` checks outputs independently of the package:
bitset walls, short-subset Euler characteristics, Cramer vertices, float
polygons, bends and Gel'fand-Cetlin patterns.  Here one round of each
workload runs at two fixed seeds through ``run.Run.run_round``, in this
process; no output may be wrong and no operation may fail.
"""

import importlib
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# the modules perfbench/run.py's import_polyspace puts in its namespace
MODULES = ("cli", "polygon", "polytope", "bending", "reconstruct", "frames",
           "quat", "verify")


@pytest.mark.parametrize("seed", (11, 12))
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_round_passes_the_checkers(tmp_path, workload, seed):
    mods = types.SimpleNamespace(
        np=np,
        **{name: importlib.import_module(f"polyspace.{name}")
           for name in MODULES})
    build_ops, _ = WORKLOADS[workload]
    ops = build_ops(seed, tmp_path)
    outcome = run.Run()
    outcome.run_round(mods, ops, run.RefClock())
    assert outcome.attempted == len(ops) > 0
    assert outcome.wrong == []
    assert outcome.failed == 0, outcome.faults
