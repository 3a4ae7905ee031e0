"""Global solve machinery: binary branch & bound for the restriction MIP,
the initial primal search, and spatial branch & cut over the McCormick
relaxation with pooling cuts.

Everything is deterministic: node selection is best-bound with sequence
numbers as tie-breaks, branching picks the variable with the worst envelope
residual (ties on the lowest id), and the LP core is the in-package simplex.
"""

from __future__ import annotations

import heapq
import json
import math
import time
from dataclasses import dataclass

from .cuts import add_all_pooling_inequalities, add_valid_cuts
from .errors import NonLinearSideConstraints
from .mccormick import RelaxedModel, refresh_bounds, relax
from .model import Domain, Model
from .pq import PQModel
from .restriction import (
    RestoredSolution,
    RestrictionSpec,
    derive_fractional_flows,
    fractional_flow_values,
    install_restriction,
    uninstall_restriction,
)
from .simplex import LPArrays, LPResult, LPStatus, solve_arrays, solve_lp

__all__ = [
    "GapSpec",
    "SolveOptions",
    "SolveReport",
    "MIPResult",
    "relative_gap",
    "solve_lp",
    "solve_mip",
    "initial_primal_search",
    "branch_and_cut",
]

_GAP_EPS = 1e-10
_MC_FEAS_TOL = 1e-6
_INCUMBENT_ATTEMPT_TOL = 1e-3


@dataclass
class GapSpec:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


def relative_gap(a: float, b: float) -> float:
    """Relative difference between a bound and an objective value.

    Infinite when either argument is infinite; |a-b| scaled by a tiny epsilon
    when one of them is exactly zero.
    """
    if math.isinf(a) or math.isinf(b):
        return math.inf
    if a != 0.0 and b != 0.0:
        return abs(a - b) / max(abs(a), abs(b))
    return abs(a - b) / _GAP_EPS


@dataclass
class MIPResult:
    status: str  # optimal | feasible | infeasible | no_feasible_found
    objective: float
    incumbent: dict[int, float] | None
    lower_bound: float
    nodes: int


def solve_mip(model: Model, gap: GapSpec | None = None) -> MIPResult:
    """Best-first branch & bound on the model's binary variables."""
    gap = gap or GapSpec()
    start = time.monotonic()
    arrays = LPArrays.from_model(model, relax_binaries=True)
    binaries = [v.id for v in model.variables if v.domain is Domain.BINARY]

    incumbent: dict[int, float] | None = None
    upper = math.inf
    lower = -math.inf
    nodes = 0
    counter = 0
    heap: list[tuple[float, int, dict[int, tuple[float, float]]]] = [(-math.inf, counter, {})]

    status = "no_feasible_found"
    while heap:
        bound, _, overrides = heapq.heappop(heap)
        lower = max(lower, bound)
        if lower >= upper - gap.abs_tol or relative_gap(lower, upper) <= gap.rel_tol:
            lower = min(lower, upper)
            break
        if gap.time_limit is not None and time.monotonic() - start > gap.time_limit:
            break
        if gap.node_limit is not None and nodes >= gap.node_limit:
            break
        res = solve_arrays(arrays, overrides)
        nodes += 1
        if res.status is not LPStatus.OPTIMAL:
            continue
        node_bound = max(bound, res.objective)
        if node_bound >= upper - gap.abs_tol:
            continue
        frac_var, frac_amount = -1, 0.0
        for b in binaries:
            f = abs(res.x[b] - round(res.x[b]))
            if f > 1e-6 and min(res.x[b], 1.0 - res.x[b]) > frac_amount:
                frac_amount = min(res.x[b], 1.0 - res.x[b])
                frac_var = b
        if frac_var < 0:
            value = res.objective
            if value < upper - gap.abs_tol:
                upper = value
                incumbent = {v.id: float(res.x[v.id]) for v in model.variables}
                for b in binaries:
                    incumbent[b] = float(round(incumbent[b]))
            continue
        for child_bounds in ((0.0, 0.0), (1.0, 1.0)):
            counter += 1
            child = dict(overrides)
            child[frac_var] = child_bounds
            heapq.heappush(heap, (node_bound, counter, child))

    if incumbent is None:
        status = "infeasible" if not heap else "no_feasible_found"
        return MIPResult(status, math.inf, None, lower if heap else math.inf, nodes)
    if not heap or lower >= upper - gap.abs_tol or relative_gap(lower, upper) <= gap.rel_tol:
        if not heap:
            lower = upper
        status = "optimal"
    else:
        status = "feasible"
    return MIPResult(status, upper, incumbent, lower, nodes)


def initial_primal_search(
    pq: PQModel, gap: GapSpec | None = None
) -> RestoredSolution | None:
    """Find a feasible pooling solution through the tau=1 restriction MIP.

    Refuses models carrying bilinear rows outside the pooling core: the
    restriction of such a model would silently drop them.
    """
    core = set(pq.groups.get("path_definition", [])) | set(pq.groups.get("pq_cut", []))
    for name, con in pq.model.constraints.items():
        if con.active and con.bilinear and name not in core:
            raise NonLinearSideConstraints(
                f"constraint {name!r} is bilinear and not part of the pooling core"
            )
    if pq.model.objective_bilinear:
        raise NonLinearSideConstraints("objective carries bilinear terms")
    gap = gap or GapSpec(rel_tol=0.01, abs_tol=1e-8, time_limit=60.0)
    rm = install_restriction(pq, RestrictionSpec(tau=1))
    try:
        result = solve_mip(pq.model, gap)
        if result.incumbent is None:
            return None
        return derive_fractional_flows(rm, result.incumbent)
    finally:
        uninstall_restriction(rm)


@dataclass
class SolveOptions:
    use_pooling_cuts: bool = True
    use_primal_heuristic: bool = True
    max_cut_rounds: int = 20
    cut_violation_eps: float = 1e-5
    in_tree_cut_depth: int = 4
    # observer hook, called after each node's LP (and cut rounds) with the
    # node record and its LPResult; fathomed nodes are not revisited
    node_hook: object | None = None


@dataclass
class BnBNode:
    id: int
    depth: int
    bound: float
    overrides: dict[int, tuple[float, float]]
    state: str = "open"  # open | fathomed | branched


@dataclass
class SolveReport:
    status: str  # optimal | feasible | infeasible | unknown
    incumbent: RestoredSolution | None
    lower: float
    upper: float
    rel_gap: float
    nodes: int
    cuts: int
    wall_seconds: float
    heuristic_seconds: float = 0.0
    root_cut_seconds: float = 0.0

    def to_json(self) -> str:
        def clean(x):
            return x if isinstance(x, str) or (isinstance(x, (int, float)) and math.isfinite(x)) else None

        return json.dumps(
            {
                "status": self.status,
                "lower": clean(self.lower),
                "upper": clean(self.upper),
                "rel_gap": clean(self.rel_gap),
                "nodes": self.nodes,
                "cuts": self.cuts,
                "wall_seconds": round(self.wall_seconds, 6),
                "heuristic_seconds": round(self.heuristic_seconds, 6),
                "root_cut_seconds": round(self.root_cut_seconds, 6),
            }
        )


def _try_incumbent(pq: PQModel, point, upper: float) -> tuple[dict[int, float], float] | None:
    candidate = fractional_flow_values(pq, point)
    report = pq.model.is_feasible(candidate, _MC_FEAS_TOL)
    if not report:
        return None
    value = pq.model.objective_value(candidate)
    if value < upper - 1e-12:
        return candidate, value
    return None


def _cut_loop(rm: RelaxedModel, cb, options: SolveOptions, rounds: int) -> tuple[LPResult, int]:
    res = solve_lp(rm.lp)
    added_total = 0
    if cb is None:
        return res, 0
    for _ in range(rounds):
        if res.status is not LPStatus.OPTIMAL:
            break
        added = add_valid_cuts(cb, rm, res.x, options.cut_violation_eps)
        if added == 0:
            break
        added_total += added
        res = solve_lp(rm.lp, start=res)
    return res, added_total


def _branch_variable(rm: RelaxedModel, point, overrides, base_lp) -> tuple[int, float] | None:
    """Variable with the largest envelope residual and room to split.

    The two factors of a product tie on the residual; the tie goes to the one
    with the larger remaining box (relative to its root width) so both factor
    boxes shrink along a dive instead of slicing one into degeneracy.
    """
    score: dict[int, float] = {}
    for entry in rm.envelopes.values():
        res = abs(point[entry.aux_id] - point[entry.x_id] * point[entry.y_id])
        for vid in (entry.x_id, entry.y_id):
            score[vid] = max(score.get(vid, 0.0), res)

    def rel_width(vid):
        root = base_lp.variables[vid]
        lo, up = overrides.get(vid, (root.lower, root.upper))
        full = max(root.upper - root.lower, 1e-12)
        return (up - lo) / full

    for vid in sorted(score, key=lambda v: (-score[v], -rel_width(v), v)):
        lo, up = overrides.get(vid, (base_lp.variables[vid].lower, base_lp.variables[vid].upper))
        if up - lo > 1e-7 and score[vid] > 0.0:
            width = up - lo
            xhat = min(max(point[vid], lo + 0.2 * width), up - 0.2 * width)
            return vid, xhat
    return None


def branch_and_cut(
    pq: PQModel, gap: GapSpec | None = None, options: SolveOptions | None = None
) -> SolveReport:
    """Spatial branch & cut to global optimality of the pooling model."""
    gap = gap or GapSpec()
    options = options or SolveOptions()
    start = time.monotonic()

    incumbent_values: dict[int, float] | None = None
    upper = math.inf
    heuristic_seconds = 0.0
    if options.use_primal_heuristic:
        t0 = time.monotonic()
        solution = initial_primal_search(pq)
        heuristic_seconds = time.monotonic() - t0
        if solution is not None:
            incumbent_values = solution.values
            upper = solution.objective

    rm = relax(pq.model)
    cb = add_all_pooling_inequalities(rm, pq) if options.use_pooling_cuts else None

    t0 = time.monotonic()
    root, cuts_added = _cut_loop(rm, cb, options, options.max_cut_rounds)
    root_cut_seconds = time.monotonic() - t0

    def report(status, lower, nodes):
        wall = time.monotonic() - start
        inc = (
            RestoredSolution(values=incumbent_values, objective=upper)
            if incumbent_values is not None
            else None
        )
        if inc is not None and lower > upper:
            lower = upper
        return SolveReport(
            status=status,
            incumbent=inc,
            lower=lower,
            upper=upper,
            rel_gap=relative_gap(lower, upper),
            nodes=nodes,
            cuts=cuts_added,
            wall_seconds=wall,
            heuristic_seconds=heuristic_seconds,
            root_cut_seconds=root_cut_seconds,
        )

    if root.status is LPStatus.INFEASIBLE:
        return report("infeasible", math.inf, 0)
    if root.status is not LPStatus.OPTIMAL:
        return report("unknown", -math.inf, 0)

    lower = root.objective
    found = _try_incumbent(pq, root.x, upper)
    if found is not None:
        incumbent_values, upper = found

    nodes_visited = 0
    counter = 0
    heap: list[tuple[float, int, BnBNode]] = []
    root_node = BnBNode(id=0, depth=0, overrides={}, bound=lower)
    root_point = root.x
    if options.node_hook is not None:
        options.node_hook(root_node, root)

    def push_children(node: BnBNode, point, node_bound):
        nonlocal counter
        picked = _branch_variable(rm, point, node.overrides, rm.lp)
        if picked is None:
            return False
        var_id, xhat = picked
        lo, up = node.overrides.get(
            var_id, (rm.lp.variables[var_id].lower, rm.lp.variables[var_id].upper)
        )
        for child_lo, child_up in ((lo, xhat), (xhat, up)):
            counter += 1
            child = BnBNode(
                id=counter,
                depth=node.depth + 1,
                bound=node_bound,
                overrides={**node.overrides, var_id: (child_lo, child_up)},
            )
            heapq.heappush(heap, (child.bound, child.id, child))
        return True

    mc_res, _ = rm.mccormick_residual(root_point)
    if mc_res > _MC_FEAS_TOL:
        if push_children(root_node, root_point, lower):
            root_node.state = "branched"
    elif incumbent_values is None or upper > lower + gap.abs_tol:
        # envelope-tight root point: accept it if genuinely feasible
        found = _try_incumbent(pq, root_point, upper)
        if found is not None:
            incumbent_values, upper = found
            root_node.state = "fathomed"
        elif push_children(root_node, root_point, lower):
            root_node.state = "branched"

    status = "unknown"
    while heap:
        if relative_gap(lower, upper) <= gap.rel_tol or upper - lower <= gap.abs_tol:
            status = "optimal"
            break
        if gap.time_limit is not None and time.monotonic() - start > gap.time_limit:
            status = "feasible" if incumbent_values is not None else "unknown"
            return report(status, lower, nodes_visited)
        if gap.node_limit is not None and nodes_visited >= gap.node_limit:
            status = "feasible" if incumbent_values is not None else "unknown"
            return report(status, lower, nodes_visited)
        bound, _, node = heapq.heappop(heap)
        lower = max(lower, min(bound, upper))
        if bound >= upper - gap.abs_tol:
            # best-first: every open node is at least this bound
            node.state = "fathomed"
            lower = min(upper, max(lower, bound))
            status = "optimal"
            break
        rm_node = rm.clone()
        refresh_bounds(rm_node, node.overrides)
        nodes_visited += 1
        if options.use_pooling_cuts and node.depth <= options.in_tree_cut_depth:
            res, added = _cut_loop(rm_node, cb, options, options.max_cut_rounds)
            cuts_added += added
        else:
            res = solve_lp(rm_node.lp)
        if options.node_hook is not None:
            options.node_hook(node, res)
        if res.status is not LPStatus.OPTIMAL:
            node.state = "fathomed"
            continue
        node_bound = max(node.bound, res.objective)
        if node_bound >= upper - gap.abs_tol:
            node.state = "fathomed"
            continue
        mc_res, _ = rm_node.mccormick_residual(res.x)
        if mc_res <= _INCUMBENT_ATTEMPT_TOL:
            found = _try_incumbent(pq, res.x, upper)
            if found is not None:
                incumbent_values, upper = found
        if mc_res <= _MC_FEAS_TOL:
            node.state = "fathomed"
            continue  # relaxation is exact here; the node is fully explored
        node.state = "branched" if push_children(node, res.x, node_bound) else "fathomed"

    if not heap and status == "unknown":
        # tree exhausted: everything fathomed against the incumbent
        status = "optimal" if incumbent_values is not None else "infeasible"
        lower = upper if incumbent_values is not None else math.inf
    return report(status, lower, nodes_visited)
