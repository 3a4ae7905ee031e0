"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload tree --seeds 1-10 [--out FILE]

Each seed runs ``run.py`` in its own process, one after another.  For every
metric the script prints the median of the seeds and the distance between
the first and third quartiles (``statistics.quantiles(values, n=4)``) as a
share of that median, which is how the benchmark's bounds are checked.
With ``--out`` the per-seed results and the summary are written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(results: list[dict]) -> dict:
    summary = {}
    for key in results[0]["metrics"]:
        values = [r["metrics"][key]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        summary[key] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0,
            "unit": results[0]["metrics"][key]["unit"],
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="25")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()

    results = []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        last["seed"] = seed
        results.append(last)
        values = " ".join(f"{k}={m['value']:.5g}" for k, m in last["metrics"].items())
        print(f"seed {seed} exit {proc.returncode} correct {last['correct']} {values}", flush=True)
    summary = summarize(results)
    for key, s in summary.items():
        print(f"{key:32s} median {s['median']:12.6g} {s['unit']:6s} spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(
            json.dumps({"workload": args.workload, "runs": results, "summary": summary}, indent=1)
        )
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
