"""Benchmark of the poolblend solver: set-up, timed passes, output checks.

    python3 perfbench/run.py --workload tree --seed 3 --seconds 25 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Without ``--workload`` every workload runs, each in its own
process, and a table of all of them is printed.  The exit code is nonzero
when an output check fails.  The package is imported from ``src/`` next to
this directory; nothing is installed.
"""

from __future__ import annotations

import os

# one BLAS thread: steadier timings, and the floating-point reduction order
# (hence the pivot sequence) does not depend on the machine's core count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("tree", "root", "restrict")


def _import_package() -> None:
    """Import poolblend from this checkout, never from an installed copy."""
    if not (SRC / "poolblend" / "__init__.py").is_file():
        sys.exit(f"error: no poolblend package under {SRC}")
    sys.path.insert(0, str(SRC))
    import poolblend

    if Path(poolblend.__file__).resolve().parent != SRC / "poolblend":
        sys.exit(f"error: imported poolblend from {poolblend.__file__}, not {SRC}")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.is_file():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def _environment(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "seed": seed,
    }


def _passes(workload, nets, seconds: float):
    """Timed passes over every instance until the next pass would overrun."""
    from workloads import Outcome

    runs, start, last = [], time.perf_counter(), 0.0
    while not runs or time.perf_counter() - start + last <= seconds:
        t_pass = time.perf_counter()
        outcomes = []
        for name, net in nets:
            t0 = time.perf_counter()
            try:
                result, error = workload.op(workload, net), None
            except Exception as exc:  # a failed operation, counted below
                result, error = None, f"{type(exc).__name__}: {exc}"
            outcomes.append((Outcome(name, time.perf_counter() - t0), result, error))
        runs.append(outcomes)
        last = time.perf_counter() - t_pass
    return runs


def _judge(workload, runs, refs) -> tuple[int, int, list[list]]:
    """Check every outcome outside the timed region; return counts and rows."""
    attempted = failed = 0
    judged = []
    for outcomes in runs:
        row = []
        for outcome, result, error in outcomes:
            attempted += 1
            if error is not None:
                outcome.errors.append(error)
            else:
                try:
                    for key, value in workload.judge(workload, outcome.instance, result, refs).items():
                        setattr(outcome, key, value)
                except Exception as exc:
                    outcome.errors.append(f"check raised {type(exc).__name__}: {exc}")
            if outcome.errors:
                failed += 1
                for message in outcome.errors:
                    print(f"FAIL {workload.name} {outcome.instance}: {message}", file=sys.stderr)
            row.append(outcome)
        judged.append(row)
    return attempted, failed, judged


def _instance_times(rows) -> list[float]:
    """Median time of each instance over the passes (rows of outcomes)."""
    return [statistics.median(o.seconds for o in col) for col in zip(*rows)]


def _end_to_end(judged, setup_s: float, peak_rss_mb: float) -> dict[str, float]:
    from poolblend.bench import shifted_geomean
    from workloads import GAP_SHIFT, TIME_SHIFT

    times = _instance_times(judged)
    wall = sum(times)
    first = judged[0]
    return {
        "setup_s": setup_s,
        "wall_s": wall,
        "time_sgm_s": shifted_geomean(times, TIME_SHIFT),
        "nodes_per_s": sum(o.nodes for o in first) / wall,
        "solved": float(statistics.median(sum(o.solved for o in row) for row in judged)),
        "gap_sgm_pct": shifted_geomean([o.gap_pct for o in first], GAP_SHIFT),
        "peak_rss_mb": peak_rss_mb,
    }


END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "time_sgm_s": "s",
    "nodes_per_s": "1/s",
    "solved": "count",
    "gap_sgm_pct": "%",
    "peak_rss_mb": "MB",
}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    t_start = time.perf_counter()
    _import_package()
    import_s = time.perf_counter() - t_start
    from poolblend.pq import build_pq
    from tracer import PER_LAYER, Tracer
    from workloads import WORKLOADS, networks, warmup

    workload = WORKLOADS[name]
    print(json.dumps({"env": _environment(seed), "workload": name}), flush=True)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        nets = networks(workload, seed)
        for _, net in nets:
            build_pq(net)
        warmup()
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    runs = _passes(workload, nets, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if trace:
        untraced_wall = sum(_instance_times([[o for o, _, _ in row] for row in runs]))
        tracer = Tracer()
        tracer.install()
        try:
            runs = _passes(workload, nets, seconds)
        finally:
            tracer.uninstall()

    refs = json.loads((HERE / "references.json").read_text()).get(name, {})
    attempted, failed, judged = _judge(workload, runs, refs)
    if trace:
        values = tracer.per_layer(len(runs), sum(_instance_times(judged)), untraced_wall)
        metrics = {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        values = _end_to_end(judged, setup_s, peak_rss_mb)
        metrics = {k: {"value": values[k], "unit": END_TO_END_UNITS[k]} for k in END_TO_END_UNITS}
    for key, metric in metrics.items():
        print(f"{name:9s} {key:32s} {metric['value']:14.6g} {metric['unit']}", flush=True)
    print(f"{name:9s} {'failed_frac':32s} {failed / attempted:14.6g} ratio", flush=True)
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        ),
        flush=True,
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    # each workload in its own process, so peak RSS is per workload
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


if __name__ == "__main__":
    sys.exit(main())
