"""Run-to-run spread of the end-to-end metrics, against their bounds.

Usage (from the repository root)::

    python3 benchmarks/spread.py --workload closed_forms --seeds 1-5
    python3 benchmarks/spread.py --workload all --seeds 1-10

Runs ``run.py --trace 0`` once per seed, one run at a time, and reports
for each metric the median of the run values and the distance between
their first and third quartiles (``statistics.quantiles(values, n=4)``) as
a share of the median.  A metric is marked steady when that share is
below a third of its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for wl in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, check=False,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.returncode == 0 else None
            if result is None or not result["correct"]:
                print(f"{wl} seed {seed}: failed run (exit {proc.returncode})\n{proc.stderr[-2000:]}")
                status = 1
                continue
            runs.append(result)
            print(f"{wl} seed {seed}: " + "  ".join(
                f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        if len(runs) < 2:
            continue
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            verdict = "steady" if share < bound / 3 else ("within bound" if share <= bound else "TOO WIDE")
            print(f"{wl:12s} {name:12s} median {statistics.median(values):9.4f}  "
                  f"iqr/median {share:.4f}  bound {bound}  {verdict}  (n={len(values)})")
    return status


if __name__ == "__main__":
    sys.exit(main())
