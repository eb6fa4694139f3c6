"""Run-to-run spread of the benchmark's end-to-end metrics.

Usage (from the repository root):

    python3 perfbench/spread.py --workload exact --seeds 1-10 --seconds 30

Runs the benchmark once per seed, one run after the other, and prints for
each end-to-end metric and for the raw round seconds the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the quartile
distance as a share of the median. Every run's last two output lines are
appended to ``perfbench/out/spread-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))

    (HERE / "out").mkdir(exist_ok=True)
    log = HERE / "out" / f"spread-{args.workload}.jsonl"
    metrics, raw_round, fail_share = {}, [], set()
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            sys.stderr.write(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
        with open(log, "a") as fh:
            fh.write(json.dumps({"detail": detail, "result": result}) + "\n")
        for name, m in result["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
        raw_round.append(statistics.median(detail["round_s"]))
        fail_share.add((result["failed"] / result["attempted"]))
        print(f"seed {seed}: correct={result['correct']} "
              f"failed/attempted={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
              + f" round_s={raw_round[-1]:.4g} rounds={detail['rounds']}", flush=True)
    print(f"failed share per run: {sorted(fail_share)}")
    for name, values in list(metrics.items()) + [("round_s (raw)", raw_round)]:
        s = summary(values)
        print(f"{name}: median {s['median']:.4g}  q1 {s['q1']:.4g}  q3 {s['q3']:.4g}"
              f"  iqr/median {s['iqr_share']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
