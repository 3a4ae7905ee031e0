"""The benchmark's workloads: their inputs, the operation each one times,
and the output checks that run after timing.

Every budget is a node count, never a time limit, so one pass of a workload
does the same work on every run and only its duration changes.  The seed
sets the order in which a pass visits the instances; seed 0 keeps the order
of the specs as written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import poolblend.mccormick as mccormick
import poolblend.cuts as cuts
import poolblend.pq as pq_layer
import poolblend.restriction as restriction
import poolblend.simplex as simplex
import poolblend.solve as solve
from poolblend.generate import GenSpec, generate_instance
from poolblend.instances import haverly
from poolblend.network import Network

# Same lists as ORACLE_TINY_SPECS, DESK_SPARSE and DESK_DENSE in
# tests/test_acceptance.py; copied so the benchmark does not import tests.
TINY_SPECS = [
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 1),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 2),
    GenSpec("sparse_haverly", 4, 1, 3, 2, 9, 3),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 4),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 6),
    GenSpec("sparse_haverly", 4, 1, 3, 2, 9, 6),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 8),
    GenSpec("sparse_haverly", 4, 1, 3, 2, 9, 8),
    GenSpec("sparse_haverly", 4, 2, 3, 1, 12, 10),
    GenSpec("sparse_haverly", 4, 2, 3, 2, 12, 10),
]
DESK_SPARSE = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in range(1, 11)]
DESK_DENSE = [GenSpec("dense_rand", 5, 3, 4, 2, 25, s) for s in range(1, 11)]
ROOT_SPECS = [
    GenSpec("sparse_haverly", 16, 5, 10, 2, 55, 1),
    GenSpec("sparse_haverly", 20, 6, 12, 2, 70, 1),
    GenSpec("dense_rand", 8, 4, 6, 2, 45, 1),
]
# the warm-up solve in set-up: the root LP of the first sparse desk instance
WARMUP_SPEC = DESK_SPARSE[0]

FEAS_TOL = 1e-6
REF_RTOL = 1e-4
HIGHS_RTOL = 1e-6
GAP_SHIFT = 1.0  # percent
TIME_SHIFT = 1.0  # seconds


@dataclass
class Outcome:
    """One timed operation: what it cost, what it achieved, what went wrong."""

    instance: str
    seconds: float
    nodes: int = 0
    solved: bool = False
    gap_pct: float = 100.0
    errors: list[str] = field(default_factory=list)


@dataclass
class Workload:
    name: str
    specs: list  # GenSpec entries, or "h1" for the Haverly instance
    op: Callable  # (workload, network) -> result, the timed part
    judge: Callable  # (workload, name, result, references) -> Outcome fields
    node_limit: int = 0


# -- inputs -------------------------------------------------------------


def instance_name(spec) -> str:
    return "h1" if spec == "h1" else spec.instance_name()


def make_network(spec) -> Network:
    return haverly() if spec == "h1" else generate_instance(spec)


def networks(workload: Workload, seed: int) -> list[tuple[str, Network]]:
    specs = list(workload.specs)
    if seed:
        specs = [specs[k] for k in np.random.default_rng(seed).permutation(len(specs))]
    return [(instance_name(spec), make_network(spec)) for spec in specs]


# -- shared checks ------------------------------------------------------


def feasibility_errors(model, values, what: str) -> list[str]:
    # FeasibilityReport.__bool__ raises TypeError on numpy points (it returns
    # a numpy.bool), so read the fields instead of testing the report.
    report = model.is_feasible(values, FEAS_TOL)
    if report.feasible:
        return []
    return [f"{what} violates {report.worst_name} by {report.worst_residual:.3g}"]


def reference_errors(ref: dict | None, lower: float, upper: float | None, proven: bool) -> list[str]:
    """Bounds against the recorded reference of the instance.

    An ``opt`` reference is a proven global optimum; a ``ub`` reference is
    the objective of a known feasible point, so only bounds below it are
    checked.
    """
    if ref is None:
        return []
    value = ref["value"]
    tol = REF_RTOL * max(1.0, abs(value))
    errors = []
    if lower > value + tol:
        errors.append(f"lower bound {lower:.10g} exceeds reference {value:.10g}")
    if upper is not None and ref["kind"] == "opt" and upper < value - tol:
        errors.append(f"feasible value {upper:.10g} beats the optimum {value:.10g}")
    if proven and upper is not None and upper > value + tol:
        errors.append(f"proven optimum {upper:.10g} differs from reference {value:.10g}")
    return errors


def capped_gap_pct(lower: float, upper: float) -> float:
    return min(100.0, 100.0 * solve.relative_gap(lower, upper))


# -- tree: spatial branch & cut -----------------------------------------


def tree_op(w: Workload, net: Network):
    pq = pq_layer.build_pq(net)
    report = solve.branch_and_cut(
        pq, solve.GapSpec(rel_tol=1e-4, node_limit=w.node_limit), solve.SolveOptions()
    )
    return pq, report


def tree_judge(w: Workload, name: str, result, refs: dict) -> dict:
    pq, rep = result
    errors = []
    proven = rep.status == "optimal"
    if rep.status not in ("optimal", "feasible"):
        errors.append(f"status {rep.status}")
    if rep.incumbent is not None:
        errors += feasibility_errors(pq.model, rep.incumbent.values, "incumbent")
        value = pq.model.objective_value(rep.incumbent.values)
        if abs(value - rep.upper) > REF_RTOL * max(1.0, abs(rep.upper)):
            errors.append(f"incumbent value {value:.10g} but upper {rep.upper:.10g}")
    if rep.lower > rep.upper + FEAS_TOL * max(1.0, abs(rep.upper)):
        errors.append(f"lower {rep.lower:.10g} above upper {rep.upper:.10g}")
    if name == "h1" and not (proven and abs(rep.upper + 400.0) <= 400.0 * REF_RTOL):
        errors.append(f"h1 ended {rep.status} at {rep.upper:.10g}, expected optimum -400")
    upper = rep.upper if rep.incumbent is not None else None
    errors += reference_errors(refs.get(name), rep.lower, upper, proven)
    return dict(
        nodes=rep.nodes,
        solved=proven,
        gap_pct=0.0 if proven else capped_gap_pct(rep.lower, rep.upper),
        errors=errors,
    )


# -- root: one cold root LP per instance --------------------------------


def root_op(w: Workload, net: Network):
    pq = pq_layer.build_pq(net)
    for row in pq.groups["pq_cut"]:
        pq.model.activate(row)
    rm = mccormick.relax(pq.model)
    cuts.add_all_pooling_inequalities(rm, pq)
    return rm, simplex.solve_lp(rm.lp)


def highs_objective(arrays) -> float:
    from scipy.optimize import linprog

    A, b, senses = arrays.A, arrays.b, arrays.senses
    le = [k for k, s in enumerate(senses) if s == "<"]
    ge = [k for k, s in enumerate(senses) if s == ">"]
    eq = [k for k, s in enumerate(senses) if s == "="]
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    bounds = [
        (lo if math.isfinite(lo) else None, up if math.isfinite(up) else None)
        for lo, up in zip(arrays.lo, arrays.up)
    ]
    res = linprog(
        arrays.c, A_ub=A_ub, b_ub=b_ub, A_eq=A[eq], b_eq=b[eq], bounds=bounds, method="highs"
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS ended with status {res.status}: {res.message}")
    return float(res.fun) + arrays.objective_constant


def root_judge(w: Workload, name: str, result, refs: dict) -> dict:
    rm, res = result
    errors = []
    optimal = res.status is simplex.LPStatus.OPTIMAL
    if not optimal:
        return dict(errors=[f"root LP {res.status.value}"])
    errors += feasibility_errors(rm.lp, res.x, "root LP point")
    highs = highs_objective(simplex.LPArrays.from_model(rm.lp))
    if abs(res.objective - highs) > HIGHS_RTOL * max(1.0, abs(highs)):
        errors.append(f"root LP {res.objective:.12g} but HiGHS {highs:.12g}")
    ref = refs.get(name)
    errors += reference_errors(ref, res.objective, None, False)
    return dict(
        nodes=1,
        solved=True,
        gap_pct=capped_gap_pct(res.objective, ref["value"]) if ref else 100.0,
        errors=errors,
    )


# -- restrict: the tau=2 restriction heuristic ---------------------------


def restrict_op(w: Workload, net: Network):
    pq = pq_layer.build_pq(net)
    rm = restriction.install_restriction(pq, restriction.RestrictionSpec(tau=2))
    try:
        mip = solve.solve_mip(
            pq.model, solve.GapSpec(rel_tol=0.01, abs_tol=1e-8, node_limit=w.node_limit)
        )
        restored = (
            restriction.derive_fractional_flows(rm, mip.incumbent)
            if mip.incumbent is not None
            else None
        )
    finally:
        restriction.uninstall_restriction(rm)
    return pq, mip, restored


def restrict_judge(w: Workload, name: str, result, refs: dict) -> dict:
    pq, mip, restored = result
    errors = []
    if mip.status not in ("optimal", "feasible", "no_feasible_found"):
        errors.append(f"restriction MIP {mip.status}")
    if restored is not None:
        errors += feasibility_errors(pq.model, restored.values, "restored solution")
        value = pq.model.objective_value(restored.values)
        if abs(value - restored.objective) > REF_RTOL * max(1.0, abs(value)):
            errors.append(f"restored value {value:.10g} but reported {restored.objective:.10g}")
        errors += reference_errors(refs.get(name), -math.inf, restored.objective, False)
    if mip.incumbent is not None and mip.lower_bound > mip.objective + FEAS_TOL * max(
        1.0, abs(mip.objective)
    ):
        errors.append(f"MIP bound {mip.lower_bound:.10g} above {mip.objective:.10g}")
    proven = mip.status == "optimal"
    return dict(
        nodes=mip.nodes,
        solved=proven,
        gap_pct=0.0 if proven else capped_gap_pct(mip.lower_bound, mip.objective),
        errors=errors,
    )


# node budgets sized so one pass of each workload takes about 20 s on a
# 2-core machine; NOTES.md gives the reasoning per workload
WORKLOADS = {
    w.name: w
    for w in (
        Workload("tree", ["h1", *TINY_SPECS, *DESK_SPARSE], tree_op, tree_judge, node_limit=5),
        Workload("root", ROOT_SPECS, root_op, root_judge),
        Workload(
            "restrict", [*DESK_SPARSE, *DESK_DENSE], restrict_op, restrict_judge, node_limit=20
        ),
    )
}


def warmup() -> None:
    """One untimed solve so lazy allocation is paid before timing."""
    root_op(WORKLOADS["root"], make_network(WARMUP_SPEC))
