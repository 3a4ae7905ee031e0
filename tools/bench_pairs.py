"""Interleaved base/change pairs of the benchmark, written as one ledger file.

    python3 tools/bench_pairs.py --workload root --workload tree --pairs 10 --out BENCH_12.json

exports the base commit (``--base``, default ``HEAD``) with ``git archive``
into a temporary directory and runs ``perfbench/run.py --workload W
--seed N`` alternately there and in this working tree, ``--pairs`` pairs per
workload, each run as long as ``run.py`` runs by default; the side that runs
first alternates from pair to pair.  A run that crashes stops the tool.
Each side runs the ``perfbench/`` of its own checkout, one process at a
time.  ``git archive`` leaves nothing behind in ``.git``, where an
interrupted ``git worktree`` would leave a stale entry.

The output holds, per workload and end-to-end metric, every run of each
side, each side's median and quartiles (``perfbench/spread.py``'s
``summarize``), the change's median relative to the base's, and the pairs
the change wins in the metric's better direction from ``BENCHMARK.json``
(ties count for neither side; two readings within ``TIE_RTOL`` of each
other, relative, tie).  A gain is claimed only over at least ten
pairs, when the change fails no more operations than the base, wins at
least nine pairs in ten and the medians differ by more than the base's
interquartile distance; ``claimable`` records that test.  ``regressed``
records whether the change's median is worse than the base's by more than
the metric's bound, or "unresolved" when the base's interquartile distance
is wider than the bound and not every change run beats every base run.
Each run's pass count, ``attempted`` over the workload's instances, is
printed with its reading and kept in the ledger.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from spread import summarize  # noqa: E402

# readings this close, relative, tie: a last-digit rounding difference is no gain
TIE_RTOL = 1e-9


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout.strip()


def export(rev: str, into: Path) -> str:
    """Write the tree of ``rev`` into ``into``; return its commit id."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tar = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, filter="data")
    return commit


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One benchmark run in its own process; the JSON of its last line.

    ``run.py`` exits nonzero when an operation fails; that run still counts.
    Any other nonzero exit, or no result line, raises.
    """
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        reported = result["failed"] > 0 and "metrics" in result
    except (IndexError, ValueError, KeyError, TypeError):
        result, reported = None, False
    if result is None or (proc.returncode and not reported):
        raise RuntimeError(f"{cmd} exited {proc.returncode}:\n{proc.stderr}")
    return result


def beats(a: float, b: float, lower: bool) -> bool:
    """Whether reading ``a`` is better than ``b`` by more than a tie."""
    if abs(a - b) <= TIE_RTOL * max(abs(a), abs(b)):
        return False
    return a < b if lower else a > b


def compare(base: list[dict], change: list[dict], spec: dict) -> dict:
    """Pairwise wins and medians of base and change for every metric."""
    lower_is_better = {m["name"]: m["better"] == "lower" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    base_sum, change_sum = summarize(base), summarize(change)
    eligible = len(base) >= 10 and sum(c["failed"] for c in change) <= sum(b["failed"] for b in base)
    out = {}
    for key, lower in lower_is_better.items():
        pairs = [(b["metrics"][key]["value"], c["metrics"][key]["value"])
                 for b, c in zip(base, change)]
        wins = sum(beats(c, b, lower) for b, c in pairs)
        losses = sum(beats(b, c, lower) for b, c in pairs)
        b_med, c_med = base_sum[key]["median"], change_sum[key]["median"]
        change_vs_base = (c_med - b_med) / abs(b_med) if b_med else 0.0
        b_runs, c_runs = [b for b, _ in pairs], [c for _, c in pairs]
        pick_worst, pick_best = (max, min) if lower else (min, max)
        beats_all = beats(pick_worst(c_runs), pick_best(b_runs), lower)
        if base_sum[key]["spread"] > bounds[key] and not beats_all:
            regressed = "unresolved"
        else:
            regressed = (change_vs_base if lower else -change_vs_base) > bounds[key]
        out[key] = {
            "unit": base_sum[key]["unit"],
            "better": "lower" if lower else "higher",
            "bound": bounds[key],
            "base": {**base_sum[key], "runs": b_runs},
            "change": {**change_sum[key], "runs": c_runs},
            "change_vs_base": change_vs_base,
            "change_wins": wins,
            "change_losses": losses,
            "claimable": eligible and wins >= 0.9 * len(pairs)
            and abs(c_med - b_med) > base_sum[key]["q3"] - base_sum[key]["q1"],
            "regressed": regressed,
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ledger = {"seed": args.seed, "pairs": args.pairs, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        base_dir = Path(tmp)
        ledger["base"] = export(args.base, base_dir)
        ledger["change"] = {
            "head": git("rev-parse", "HEAD"),
            "uncommitted": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
        for workload in args.workload:
            instances = len(WORKLOADS[workload].specs)
            runs = {"base": [], "change": []}
            for pair in range(args.pairs):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for side in order:
                    checkout = base_dir if side == "base" else ROOT
                    runs[side].append(run_once(checkout, workload, args.seed))
                    result = runs[side][-1]
                    values = result["metrics"]
                    print(f"{workload} pair {pair} {side:6s} "
                          f"wall_s {values['wall_s']['value']:.4g} "
                          f"peak_rss_mb {values['peak_rss_mb']['value']:.4g} "
                          f"passes {result['attempted'] // instances}", flush=True)
            ledger["workloads"][workload] = {
                "failed": {side: [r["failed"] for r in rs] for side, rs in runs.items()},
                "attempted": {side: [r["attempted"] for r in rs] for side, rs in runs.items()},
                "passes": {side: [r["attempted"] // instances for r in rs]
                           for side, rs in runs.items()},
                "metrics": compare(runs["base"], runs["change"], spec),
            }
    Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    for workload, entry in ledger["workloads"].items():
        for key, m in entry["metrics"].items():
            print(f"{workload:9s} {key:12s} base {m['base']['median']:10.5g} "
                  f"change {m['change']['median']:10.5g} ({m['change_vs_base']:+.1%}) "
                  f"wins {m['change_wins']}/{args.pairs} regressed {m['regressed']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
