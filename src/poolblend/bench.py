"""Batch solving, aggregation and performance-profile emission.

A batch runs every (instance, configuration) pair through the global solver
and collects one record per cell.  Aggregation follows the usual
benchmarking conventions: shifted geometric means for times/gaps and
Dolan-More profiles over per-instance performance ratios.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import dataclass

from .errors import EmptyInput, MissingRecord, NonPositiveShifted
from .network import Network
from .pq import build_pq
from .solve import GapSpec, SolveOptions, branch_and_cut, relative_gap

__all__ = [
    "CONFIGS",
    "RunRecord",
    "ProfilePoint",
    "shifted_geomean",
    "performance_profile",
    "run_batch",
    "records_to_csv",
    "records_from_csv",
    "records_to_json",
    "records_from_json",
    "profile_to_csv",
    "profile_to_step_data",
]

CONFIGS = {
    "default": SolveOptions(use_pooling_cuts=False, use_primal_heuristic=False),
    "cuts": SolveOptions(use_pooling_cuts=True, use_primal_heuristic=False),
    "heuristic": SolveOptions(use_pooling_cuts=False, use_primal_heuristic=True),
    "cuts+heuristic": SolveOptions(use_pooling_cuts=True, use_primal_heuristic=True),
}


@dataclass
class RunRecord:
    instance: str
    config: str
    status: str
    time: float
    lower: float
    upper: float
    gap: float  # relative gap in percent

    @staticmethod
    def gap_percent(lower: float, upper: float) -> float:
        return 100.0 * relative_gap(lower, upper)

    @property
    def solved(self) -> bool:
        return self.status == "optimal"


@dataclass
class ProfilePoint:
    tau: float
    rho: float


def shifted_geomean(values, shift: float = 0.1) -> float:
    """Geometric mean of (v + shift) minus shift."""
    values = list(values)
    if not values:
        raise EmptyInput("shifted_geomean needs at least one value")
    shifted = [v + shift for v in values]
    if any(s <= 0.0 for s in shifted):
        raise NonPositiveShifted(f"value + shift must be positive, got min {min(shifted)}")
    log_mean = sum(math.log(s) for s in shifted) / len(shifted)
    return math.exp(log_mean) - shift


def performance_profile(
    records: list[RunRecord], measure: str = "time"
) -> dict[str, list[ProfilePoint]]:
    """Step series rho_s(tau) per configuration.

    The measure of an unsolved pair is +inf; its ratio never falls under any
    finite tau, so rho converges to the solved fraction.
    """
    configs = sorted({r.config for r in records})
    instances = sorted({r.instance for r in records})
    table: dict[tuple[str, str], float] = {}
    for record in records:
        value = getattr(record, measure)
        if not record.solved:
            value = math.inf
        table[(record.instance, record.config)] = value
    for p in instances:
        for s in configs:
            if (p, s) not in table:
                raise MissingRecord(f"no record for instance {p!r}, config {s!r}")

    ratios: dict[tuple[str, str], float] = {}
    for p in instances:
        best = min(table[(p, s)] for s in configs)
        for s in configs:
            value = table[(p, s)]
            if math.isinf(value) or math.isinf(best):
                ratios[(p, s)] = math.inf
            elif best == 0.0:
                ratios[(p, s)] = 1.0
            else:
                ratios[(p, s)] = value / best

    breakpoints = sorted({r for r in ratios.values() if math.isfinite(r)})
    if not breakpoints or breakpoints[0] > 1.0:
        breakpoints = [1.0] + breakpoints
    card = len(instances)
    series: dict[str, list[ProfilePoint]] = {}
    for s in configs:
        points = []
        for tau in breakpoints:
            count = sum(1 for p in instances if ratios[(p, s)] <= tau)
            points.append(ProfilePoint(tau=tau, rho=count / card))
        series[s] = points
    return series


def run_batch(
    instances: list[tuple[str, Network]],
    configs: list[str],
    gap: GapSpec | None = None,
    oracle_mode: bool = False,
) -> list[RunRecord]:
    """One record per (instance, config) cell; failures become records with
    status ``error`` rather than aborting the batch."""
    gap = gap or GapSpec(rel_tol=1e-4, abs_tol=1e-8, time_limit=120.0)
    records = []
    for name, net in instances:
        for config in configs:
            options = CONFIGS[config]
            try:
                pq = build_pq(net)
                t0 = time.monotonic()
                report = branch_and_cut(pq, gap, options)
                elapsed = time.monotonic() - t0
                if oracle_mode:
                    elapsed = max(
                        0.0, elapsed - report.heuristic_seconds - report.root_cut_seconds
                    )
                records.append(
                    RunRecord(
                        instance=name,
                        config=config,
                        status=report.status,
                        time=elapsed,
                        lower=report.lower,
                        upper=report.upper,
                        gap=RunRecord.gap_percent(report.lower, report.upper),
                    )
                )
            except Exception as exc:  # per-cell isolation
                records.append(
                    RunRecord(
                        instance=name,
                        config=config,
                        status=f"error: {type(exc).__name__}: {exc}",
                        time=0.0,
                        lower=-math.inf,
                        upper=math.inf,
                        gap=math.inf,
                    )
                )
    return records


_CSV_HEADER = ["instance", "config", "status", "time", "lower", "upper", "gap"]


def _num_to_csv(x: float) -> str:
    if x == math.inf:
        return "inf"
    if x == -math.inf:
        return "-inf"
    return f"{x:.12g}"


def records_to_csv(records: list[RunRecord]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_CSV_HEADER)
    for r in records:
        writer.writerow(
            [r.instance, r.config, r.status, _num_to_csv(r.time),
             _num_to_csv(r.lower), _num_to_csv(r.upper), _num_to_csv(r.gap)]
        )
    return out.getvalue()


def records_from_csv(text: str) -> list[RunRecord]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != _CSV_HEADER:
        raise MissingRecord(f"unexpected CSV header {header}")
    return [
        RunRecord(row[0], row[1], row[2], float(row[3]), float(row[4]),
                  float(row[5]), float(row[6]))
        for row in reader
        if row
    ]


def records_to_json(records: list[RunRecord]) -> str:
    return json.dumps(
        [
            {
                "instance": r.instance, "config": r.config, "status": r.status,
                "time": r.time, "lower": r.lower, "upper": r.upper, "gap": r.gap,
            }
            for r in records
        ],
        indent=2,
    )


def records_from_json(text: str) -> list[RunRecord]:
    return [
        RunRecord(d["instance"], d["config"], d["status"], d["time"],
                  d["lower"], d["upper"], d["gap"])
        for d in json.loads(text)
    ]


def profile_to_csv(series: dict[str, list[ProfilePoint]]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["config", "tau", "rho"])
    for config in sorted(series):
        for point in series[config]:
            writer.writerow([config, _num_to_csv(point.tau), _num_to_csv(point.rho)])
    return out.getvalue()


def profile_to_step_data(series: dict[str, list[ProfilePoint]]) -> str:
    """gnuplot-friendly step data: one block per config, blank-line separated."""
    blocks = []
    for config in sorted(series):
        lines = [f"# {config}"]
        for point in series[config]:
            lines.append(f"{_num_to_csv(point.tau)} {_num_to_csv(point.rho)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
