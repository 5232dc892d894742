"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload hex2_scan --seeds 1 10

Runs ``perfbench/run.py`` once per seed (one after another, ``run_seconds``
from BENCHMARK.json) and prints, per metric, the median, the quartiles from
``statistics.quantiles(values, n=4)``, the spread (Q3 - Q1) / median and the
metric's bound. A spread below a third of the bound is marked steady.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs=2, default=(1, 10), metavar=("FIRST", "LAST"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
                "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/{result['attempted']} "
              + " ".join(f"{k}={v['value']:.4f}" for k, v in result["metrics"].items()), flush=True)
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
    for name, vals in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / statistics.median(vals)
        verdict = "steady" if spread < bounds[name] / 3 else "NOT below a third of the bound"
        print(f"{name:<14} median {statistics.median(vals):.4f}  Q1 {q1:.4f}  Q3 {q3:.4f}  "
              f"spread {spread:.3f}  bound {bounds[name]}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
