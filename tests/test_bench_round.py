"""One round of every benchmark workload passes the benchmark's checkers.

``perfbench/checks.py`` checks outputs independently of the package:
bitset walls, short-subset Euler characteristics, Cramer vertices, float
polygons, bends and Gel'fand-Cetlin patterns.  Here one round of each
workload runs at two fixed seeds through ``run.Run.run_round``, in this
process; no output may be wrong and no operation may fail.
"""

import contextlib
import hashlib
import importlib
import io
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


# sha256 of every CLI operation's exit code, stdout, stderr and written
# file in the ``exact`` and ``sample`` workloads at seeds 1..3
CLI_BYTES_SHA256 = (
    "d23eff8288dd6dc562c64fd5ccb003d442a58bc9db7bea6400008ff47941015a")


def test_cli_operations_write_the_pinned_bytes(tmp_path):
    cli = importlib.import_module("polyspace.cli")
    digest = hashlib.sha256()
    for workload in ("exact", "sample"):
        for seed in (1, 2, 3):
            run_dir = tmp_path / f"{workload}-{seed}"
            run_dir.mkdir()
            for op in WORKLOADS[workload][0](seed, run_dir):
                if op.argv is None:   # a library call, not a CLI operation
                    continue
                out, err = io.StringIO(), io.StringIO()
                with (contextlib.redirect_stdout(out),
                      contextlib.redirect_stderr(err)):
                    code = cli.main(op.argv)
                output = (code, out.getvalue(), err.getvalue())
                written = ""
                if "--out" in op.argv:
                    written = Path(op.argv[op.argv.index("--out") + 1]
                                   ).read_text()
                if op.after:
                    op.after(output)
                for part in (op.label, *map(str, output), written):
                    digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == CLI_BYTES_SHA256
