"""Repeat bench/run.py over several seeds and summarise each metric.

    python3 bench/collect.py --workloads long-lowdeg,high-degree,cli --seeds 1-10 --seconds 38 --trace 0

Prints, per workload and metric, the median, the quartiles and the spread
(the distance between the quartiles as a share of the median), and writes the
same as JSON with --out.  Runs one at a time, from the repository root.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def summarise(values: list[float]) -> dict[str, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True)
    parser.add_argument("--seconds", default="38")
    parser.add_argument("--trace", default="0", choices=("0", "1"))
    parser.add_argument("--out")
    args = parser.parse_args()

    summary = {}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", args.seconds, "--trace", args.trace],
                cwd=ROOT, capture_output=True, text=True,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else None
            if proc.returncode != 0 or not result or not result["correct"]:
                print(proc.stdout[-4000:], proc.stderr[-4000:], file=sys.stderr)
                return 1
            line = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {result['attempted']} ops, {result['failed']} failed; {line}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        summary[workload] = {name: {**summarise(v), "unit": units[name]} for name, v in values.items()}
        for name, s in summary[workload].items():
            print(f"  {workload:12s} {name:36s} median {s['median']:12.4f} {s['unit']:9s} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
