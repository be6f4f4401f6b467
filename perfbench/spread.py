"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload verify-ladder --seeds 1 2 3 4 5 [--out FILE]

For every metric: the median over the runs and the spread, the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, beside the bound from BENCHMARK.json.  Run from the
repository root.  With --out, every run's result line is saved as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "exit": proc.returncode, **result})
        print(f"seed {seed}: exit {proc.returncode} correct {result['correct']} "
              f"failed {result['failed']}/{result['attempted']}", file=sys.stderr, flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[name] = {"median": med, "spread": (q3 - q1) / med if med else 0.0, "bound": bounds.get(name)}
        print(f"{name:55s} median {med:12.6g}  spread {summary[name]['spread']:.4f}  bound {bounds.get(name)}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0 if all(r["exit"] == 0 and r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
