"""Command-line front end.

Subcommands: generate, solve, heuristic, cutloop, bench.  Exit codes:
0 on success; 1 on usage errors and on an instance that cannot be read or
modelled, reported as one ``poolblend: error:`` line on stderr; 2 when a
bench batch contains failed cells.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import bench as bench_mod
from .generate import FAMILIES, GenSpec, generate_instance
from .mccormick import relax
from .network import Network
from .pq import build_pq
from .solve import GapSpec, _cut_loop, branch_and_cut, initial_primal_search, print_cut_rounds
from .cuts import add_all_pooling_inequalities
from .errors import PoolblendError


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _load(path: str) -> Network:
    return Network.from_json(Path(path).read_bytes())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="poolblend", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a seeded benchmark instance")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--ni", type=int, required=True)
    gen.add_argument("--nl", type=int, required=True)
    gen.add_argument("--nj", type=int, required=True)
    gen.add_argument("--nk", type=int, required=True)
    gen.add_argument("--na", type=int, required=True)
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--out", required=True)

    solve = sub.add_parser("solve", help="solve an instance to global optimality")
    solve.add_argument("--instance", required=True)
    solve.add_argument("--config", choices=sorted(bench_mod.CONFIGS), default="cuts+heuristic")
    solve.add_argument("--rel-gap", type=float, default=1e-6)
    solve.add_argument("--abs-gap", type=float, default=1e-8)
    solve.add_argument("--time-limit", type=float, default=600.0)
    solve.add_argument("--json-report", default=None)

    heur = sub.add_parser("heuristic", help="run the restriction heuristic")
    heur.add_argument("--instance", required=True)
    heur.add_argument("--tau", type=int, default=1)

    cutloop = sub.add_parser("cutloop", help="root cut loop on the LP relaxation")
    cutloop.add_argument("--instance", required=True)

    batch = sub.add_parser("bench", help="run an instance x config batch")
    batch.add_argument("--instances-dir", required=True)
    batch.add_argument("--configs", default="default,cuts,heuristic,cuts+heuristic")
    batch.add_argument("--out-csv", required=True)
    batch.add_argument("--profile-out", default=None)
    batch.add_argument("--oracle-mode", action="store_true")
    batch.add_argument("--rel-gap", type=float, default=1e-4)
    batch.add_argument("--time-limit", type=float, default=120.0)
    return parser


def _cmd_generate(args) -> int:
    spec = GenSpec(args.family, args.ni, args.nl, args.nj, args.nk, args.na, args.seed)
    net = generate_instance(spec)
    Path(args.out).write_bytes(net.to_json())
    print(f"wrote {net.name} to {args.out}")
    return 0


def _cmd_solve(args) -> int:
    net = _load(args.instance)
    pq = build_pq(net)
    gap = GapSpec(rel_tol=args.rel_gap, abs_tol=args.abs_gap, time_limit=args.time_limit)
    report = branch_and_cut(pq, gap, bench_mod.CONFIGS[args.config])
    print(
        f"status={report.status} lower={report.lower:.6g} upper={report.upper:.6g} "
        f"gap={report.rel_gap:.3g} nodes={report.nodes} cuts={report.cuts} "
        f"time={report.wall_seconds:.2f}s"
    )
    if args.json_report:
        Path(args.json_report).write_text(report.to_json() + "\n")
    return 0


def _cmd_heuristic(args) -> int:
    net = _load(args.instance)
    solution = initial_primal_search(build_pq(net), tau=args.tau)
    if solution is None:
        print("no feasible solution found")
        return 0
    print(f"feasible solution with objective {solution.objective:.6g}")
    return 0


def _cmd_cutloop(args) -> int:
    """The root cut loop of branch_and_cut, one line per LP and per round."""
    pq = build_pq(_load(args.instance))
    rm = relax(pq.model)
    print_cut_rounds(*_cut_loop(rm, add_all_pooling_inequalities(rm, pq)))
    return 0


def _cmd_bench(args) -> int:
    paths = sorted(Path(args.instances_dir).glob("*.json"))
    instances = [(p.stem, _load(str(p))) for p in paths]
    configs = [c.strip() for c in args.configs.split(",") if c.strip()]
    for config in configs:
        if config not in bench_mod.CONFIGS:
            print(f"unknown config {config!r}", file=sys.stderr)
            return 1
    gap = GapSpec(rel_tol=args.rel_gap, abs_tol=1e-8, time_limit=args.time_limit)
    records = bench_mod.run_batch(instances, configs, gap, oracle_mode=args.oracle_mode)
    Path(args.out_csv).write_text(bench_mod.records_to_csv(records))
    print(f"wrote {len(records)} records to {args.out_csv}")
    if args.profile_out:
        series = bench_mod.performance_profile(records)
        Path(args.profile_out).write_text(bench_mod.profile_to_csv(series))
        Path(args.profile_out).with_suffix(".step.dat").write_text(
            bench_mod.profile_to_step_data(series)
        )
        print(f"wrote profile to {args.profile_out}")
    if any(r.status.startswith("error") for r in records):
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "solve": _cmd_solve,
        "heuristic": _cmd_heuristic,
        "cutloop": _cmd_cutloop,
        "bench": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except (PoolblendError, OSError) as exc:
        print(f"poolblend: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
