"""Global solve machinery: binary branch & bound for the restriction MIP,
the initial primal search, and spatial branch & cut over the McCormick
relaxation with pooling cuts.

Both trees run through one best-first search, ``_Search``: it owns the
open nodes, the incumbent, the gap test, the limits and the final bound and
status, and each solver supplies only the evaluation of a popped node.

Everything is deterministic: node selection is best-bound with sequence
numbers as tie-breaks, branching picks the variable with the worst envelope
residual (ties on the lowest id), and the LP core is the in-package simplex.

The restriction MIP solves its root LP cold and every child from its
parent's optimal basis (``solve_arrays(..., start=parent)``), since a child
differs from its parent in one binary bound.  Until the first incumbent
exists, each node that branches also solves a fix-and-solve rounding LP with
every binary at its rounded value.

Spatial branch & cut has one node evaluation: its root is the first node
the search pops, and every node, the root included, is evaluated on a clone
of the root relaxation.  Cuts are separated at the root only: its cut loop
starts cold, each round from the round before, and installs every cut into
the root relaxation as well.  After the root the relaxation is frozen, so
every other node solves one LP with exactly the root's final rows, warm
from the LP result its parent ended with.

Every node that its bound does not fathom offers an incumbent from one LP:
the pool fractions q are fixed at the flow ratios of the node's point, which
makes the pooling model an LP whose optimum is the best flow for that q
(Audet et al., Management Sci. 50 (2004)).  Its template is
``pq.linear_core()``, the linear model the restriction MIP starts from too,
built into arrays once per search with one row ``v - qbar*y = 0`` per path.
Each call writes those ratios qbar into the q boxes and the path rows in
place and starts from the last fixed-q result, which has the same rows.

``SolveOptions`` only switches the cuts and the heuristic on or off and
carries an observer hook; the cut-loop limits are module constants (at most
``_MAX_CUT_ROUNDS`` rounds, at the root only, at violation
``cuts.DEFAULT_VIOLATION_EPS``).  The caller's time limit also bounds the
initial primal search, whose own limit is ``_HEURISTIC_GAP``'s 60 s, the
root's cut rounds and the nodes, the root included: none starts past it.
"""

from __future__ import annotations

import heapq
import itertools
import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from .cuts import CutBlock, add_all_pooling_inequalities, add_valid_cuts
from .errors import NonLinearSideConstraints, NumericalFailure
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
# cut rounds at the root; no other node runs any
_MAX_CUT_ROUNDS = 20


@dataclass
class GapSpec:
    rel_tol: float = 1e-6
    abs_tol: float = 1e-8
    time_limit: float | None = None
    node_limit: int | None = None

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


# the initial primal search's restriction MIP: a 1% gap, within 60 s
_HEURISTIC_GAP = GapSpec(rel_tol=0.01, abs_tol=1e-8, time_limit=60.0)


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
    # the LP point, indexed by variable id, with its binaries rounded
    incumbent: np.ndarray | None
    lower_bound: float
    nodes: int


class _Search:
    """One best-first tree search, shared by both solvers.

    It keeps the open nodes on a heap keyed on their bound, with sequence
    numbers as tie-breaks; the incumbent the caller ``offer``s; and the least
    bound of the nodes dropped without a proof.  ``run`` pops the least open
    node and hands it to ``evaluate(node, bound)``, which returns the node's
    bound and its children, queued at that bound: no children fathom the
    node, and ``None`` drops it without a proof.  A limit leaves unexplored
    nodes open, and a node whose evaluation raises ``NumericalFailure`` is
    dropped at the bound it was queued with, so neither proves anything.
    """

    def __init__(self, gap: GapSpec, deadline: float):
        self.gap = gap
        self.deadline = deadline  # on the time.monotonic() clock
        self.incumbent = None
        self.upper = math.inf
        self.dropped = math.inf
        self.nodes = 0
        self._open: list[tuple[float, int, object]] = []
        self._seq = itertools.count()

    def queue(self, bound: float, children: list | None) -> None:
        if children is None:
            self.dropped = min(self.dropped, bound)
        for child in children or ():
            heapq.heappush(self._open, (bound, next(self._seq), child))

    def offer(self, incumbent, value: float) -> None:
        if value < self.upper:
            self.incumbent, self.upper = incumbent, value

    def fathomed(self, bound: float) -> bool:
        return bound >= self.upper - self.gap.abs_tol

    def _closed(self, bound: float) -> bool:
        return self.fathomed(bound) or relative_gap(bound, self.upper) <= self.gap.rel_tol

    def run(self, evaluate, unproven: str) -> tuple[str, float]:
        """Search until the gap closes or a limit stops it; return the
        status, ``unproven`` when there is neither an incumbent nor a proof of
        infeasibility, and the least bound of an open or dropped node."""
        node_limit = self.gap.node_limit
        while self._open and not self.fathomed(self._open[0][0]):
            if self._closed(min(self._open[0][0], self.dropped)):
                break
            if time.monotonic() > self.deadline:
                break
            if node_limit is not None and self.nodes >= node_limit:
                break
            bound, _, node = heapq.heappop(self._open)
            self.nodes += 1
            try:
                bound, children = evaluate(node, bound)
            except NumericalFailure:
                children = None
            self.queue(bound, children)
        lower = min(self._open[0][0] if self._open else math.inf, self.dropped, self.upper)
        if lower == math.inf:
            return "infeasible", lower
        if self.incumbent is None:
            return unproven, lower
        return ("optimal" if self._closed(lower) else "feasible"), lower


def _deadline(start: float, gap: GapSpec) -> float:
    return math.inf if gap.time_limit is None else start + gap.time_limit


def solve_mip(model: Model, gap: GapSpec | None = None) -> MIPResult:
    """Best-first branch & bound on the model's binary variables.

    A node is one LP with some binaries fixed.  The root LP is solved cold;
    every child re-optimizes from its parent's optimal basis, which differs
    from it in one binary bound.  Until the first incumbent exists, each
    node about to branch also solves one LP with every binary fixed at its
    rounded value, warm from the node's result; that LP is a heuristic and
    not a node, so ``nodes`` and ``gap.node_limit`` do not count it.  The
    search, its limits and its statuses are those of ``_Search``; a run
    with neither incumbent nor proof ends ``no_feasible_found``.  An
    unbounded node LP proves no bound: the node is dropped at ``-inf``.
    """
    gap = gap or GapSpec()
    search = _Search(gap, _deadline(time.monotonic(), gap))
    arrays = LPArrays.from_model(model, relax_binaries=True)
    binaries = [v.id for v in model.variables if v.domain is Domain.BINARY]

    def accept(res: LPResult) -> None:
        incumbent = res.x.copy()
        incumbent[binaries] = np.round(incumbent[binaries])
        search.offer(incumbent, res.objective)

    def evaluate(node, bound):
        # the node's binary bounds, and the parent's LP result to start from
        overrides, parent = node
        res = solve_arrays(arrays, overrides, start=parent)
        if res.status is LPStatus.UNBOUNDED:
            # the binaries are boxed, so either the MIP is unbounded or this
            # node holds no integer point; nothing here tells which
            return -math.inf, None
        if res.status is not LPStatus.OPTIMAL:
            return bound, []
        bound = max(bound, res.objective)
        if search.fathomed(bound):
            return bound, []
        frac_var, frac_amount = -1, 0.0
        for b in binaries:
            f = abs(res.x[b] - round(res.x[b]))
            if f > 1e-6 and min(res.x[b], 1.0 - res.x[b]) > frac_amount:
                frac_amount = min(res.x[b], 1.0 - res.x[b])
                frac_var = b
        if frac_var < 0:
            accept(res)
            return bound, []
        if search.incumbent is None:
            rounded = {b: (float(round(res.x[b])),) * 2 for b in binaries}
            fixed = solve_arrays(arrays, rounded, start=res)
            if fixed.status is LPStatus.OPTIMAL:
                accept(fixed)
                if search.fathomed(bound):
                    return bound, []
        return bound, [({**overrides, frac_var: fix}, res) for fix in ((0.0, 0.0), (1.0, 1.0))]

    search.queue(-math.inf, [({}, None)])
    status, lower = search.run(evaluate, "no_feasible_found")
    return MIPResult(status, search.upper, search.incumbent, lower, search.nodes)


def initial_primal_search(
    pq: PQModel, gap: GapSpec | None = None, tau: int = 1
) -> RestoredSolution | None:
    """Find a feasible pooling solution through the restriction MIP that
    splits each pool into ``tau`` single-output copies.

    The MIP is solved on a restricted clone of ``pq.model`` that is swapped
    in for the solve and swapped out afterwards; ``pq.model`` itself is left
    as it was.  A model with bilinear rows outside the pooling core, or a
    bilinear objective, raises ``NonLinearSideConstraints`` from the install.
    """
    gap = gap or _HEURISTIC_GAP
    rm = install_restriction(pq, RestrictionSpec(tau=tau))
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
    # observer hook, called after each node's LP (at the root, after its cut
    # rounds; cuts run at the root only) with the node record and its
    # LPResult; fathomed nodes are not revisited
    node_hook: object | None = None


@dataclass
class BnBNode:
    id: int
    depth: int
    overrides: dict[int, tuple[float, float]]
    # the LP result the parent ended with (the root's after its cut rounds;
    # cuts run at the root only); siblings share it, and the node's one LP
    # starts from it
    start: LPResult | None = None


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
    # the fixed-q LPs the nodes solved for incumbents
    fixed_q_lps: int = 0
    # where the incumbent came from: "restriction", "fixed_q" or None
    incumbent_source: str | None = None

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
                "fixed_q_lps": self.fixed_q_lps,
                "incumbent_source": self.incumbent_source,
            }
        )


class _FixedQ:
    """The pooling model with every pool fraction q fixed, as one LP in the
    flows whose arrays ``base`` are built once per search.

    With q fixed at ``qbar`` each path flow is ``v = qbar*y``, so ``base``
    holds the rows of ``pq.linear_core()`` and one row ``v - qbar*y = 0``
    per path.  ``_try_incumbent`` writes qbar into them and the q boxes in
    place; a ``y`` entry stays stored at qbar 0, so no row folds at one
    qbar and not at another.  A model with other bilinear rows or a
    bilinear objective gets no arrays, and no fixed-q LP.
    """

    def __init__(self, pq: PQModel, deadline: float):
        self.pq = pq
        self.deadline = deadline  # on the time.monotonic() clock
        self.q_ids = list(pq.q.values())
        self.solved: set[bytes] = set()  # the qbar already solved, as bytes
        self.last: LPResult | None = None  # the last optimal LP, to start from
        self.lps = 0
        self.base: LPArrays | None = None
        try:
            core = LPArrays.from_model(pq.linear_core())
        except NonLinearSideConstraints:
            return
        paths = list(pq.v)
        self.v = np.array([pq.v[p] for p in paths], dtype=np.intp)
        self.y = np.array([pq.y_pool[(l, j)] for _, l, j in paths], dtype=np.intp)
        position = {qid: k for k, qid in enumerate(self.q_ids)}
        self.q_of_v = np.array([position[pq.q[(i, l)]] for i, l, _ in paths], dtype=np.intp)
        k = self.v.size
        # each path row holds its v entry, then its y entry
        self.y_at = core.vals.size + 2 * np.arange(k) + 1
        self.base = replace(
            core,
            rows=np.concatenate([core.rows, np.repeat(core.b.size + np.arange(k), 2)]),
            cols=np.concatenate([core.cols, np.column_stack([self.v, self.y]).ravel()]),
            vals=np.concatenate([core.vals, np.tile([1.0, 0.0], k)]),
            senses=core.senses + ["="] * k,
            b=np.concatenate([core.b, np.zeros(k)]),
        )


def _try_incumbent(fixed_q: _FixedQ, point, upper: float) -> tuple[dict[int, float], float] | None:
    """Fix q at the point's flow ratios (``fractional_flow_values``), solve
    the fixed-q LP and return its point and value when it is feasible on
    ``pq.model`` within ``_MC_FEAS_TOL`` and below ``upper``.

    The LP starts from the last optimal fixed-q result, whose coefficients
    may differ.  A qbar already solved in this search, or a call past the
    deadline, solves nothing.
    """
    if fixed_q.base is None or time.monotonic() > fixed_q.deadline:
        return None
    pq = fixed_q.pq
    values = fractional_flow_values(pq, point)
    # rounded, so that a qbar solved before is found again
    qbar = np.round(np.maximum([values[qid] for qid in fixed_q.q_ids], 0.0), 12)
    key = qbar.tobytes()
    if key in fixed_q.solved:
        return None
    fixed_q.solved.add(key)
    base = fixed_q.base
    # solve_arrays copies what it changes, so base stays as written here
    base.vals[fixed_q.y_at] = -qbar[fixed_q.q_of_v]
    base.lo[fixed_q.q_ids] = base.up[fixed_q.q_ids] = qbar
    res = solve_arrays(base, start=fixed_q.last)
    fixed_q.lps += 1
    if res.status is not LPStatus.OPTIMAL:
        return None
    fixed_q.last = res
    x = res.x.copy()
    x[fixed_q.v] = qbar[fixed_q.q_of_v] * x[fixed_q.y]
    candidate = dict(enumerate(x.tolist()))
    if not pq.model.is_feasible(candidate, _MC_FEAS_TOL):
        return None
    value = pq.model.objective_value(candidate)
    if value < upper - 1e-12:
        return candidate, value
    return None


def _cut_loop(
    rm: RelaxedModel, cb: CutBlock | None, deadline: float = math.inf
) -> tuple[LPResult, list[tuple[float, int]]]:
    """Solve the relaxation cold, then separate and re-solve for at most
    ``_MAX_CUT_ROUNDS`` rounds, starting none once ``deadline`` (on the
    ``time.monotonic()`` clock) has passed; return the last LP and, per
    round, the objective it separated and the number of cuts it added."""
    res = solve_lp(rm.lp)
    rounds: list[tuple[float, int]] = []
    if cb is None:
        return res, rounds
    for _ in range(_MAX_CUT_ROUNDS):
        if res.status is not LPStatus.OPTIMAL or time.monotonic() > deadline:
            break
        added = add_valid_cuts(cb, rm, res.x)
        rounds.append((res.objective, added))
        if added == 0:
            break
        res = solve_lp(rm.lp, start=res)
    return res, rounds



def print_cut_rounds(res: LPResult, rounds: list[tuple[float, int]]) -> None:
    """Print what ``_cut_loop`` returned, one line per LP and per round."""
    for iteration, (objective, added) in enumerate(rounds):
        print(f"Iter {iteration}: {objective}")
        print(f"  Adding {added} cuts")
    if not rounds or rounds[-1][1]:
        # the last LP was not separated: it is not optimal or the rounds ran out
        optimal = res.status is LPStatus.OPTIMAL
        print(f"Iter {len(rounds)}: {res.objective if optimal else 'LP ' + res.status.value}")

def _branch_variable(rm: RelaxedModel, point, overrides) -> tuple[int, float] | None:
    """Variable with the largest envelope residual above ``_MC_FEAS_TOL``
    and room to split; None when there is none.

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
        root = rm.lp.variables[vid]
        lo, up = overrides.get(vid, (root.lower, root.upper))
        full = max(root.upper - root.lower, 1e-12)
        return (up - lo) / full

    for vid in sorted(score, key=lambda v: (-score[v], -rel_width(v), v)):
        lo, up = overrides.get(vid, (rm.lp.variables[vid].lower, rm.lp.variables[vid].upper))
        if up - lo > 1e-7 and score[vid] > _MC_FEAS_TOL:
            width = up - lo
            xhat = min(max(point[vid], lo + 0.2 * width), up - 0.2 * width)
            return vid, xhat
    return None


def branch_and_cut(
    pq: PQModel, gap: GapSpec | None = None, options: SolveOptions | None = None
) -> SolveReport:
    """Spatial branch & cut to global optimality of the pooling model.

    The root is the first node of the ``_Search``, and every node goes
    through one evaluation, on a clone of the root relaxation tightened to
    the node box.  Cuts are added at the root only: its cut loop starts
    cold and installs each cut into the root relaxation too.  Every other
    node solves one LP on the frozen relaxation, the root's cuts included,
    warm from its parent's last LP result.  Every node that its
    bound does not fathom fixes q at its LP point's flow ratios and solves
    the fixed-q LP (``_try_incumbent``) for an incumbent; a q solved before
    in the search is not solved again.  A node is dropped without a proof
    when its point is envelope-tight, it has nothing left to split, its LP
    is unbounded or raises ``NumericalFailure``, or its LP is infeasible
    while its box holds the incumbent, which the root's box always does.
    Its bound then stays in ``lower``, and the status is ``feasible``
    (``unknown`` without an incumbent) unless that bound meets the
    incumbent within the gap.  ``nodes`` and ``gap.node_limit`` do not
    count the root, so ``node_limit=0`` still evaluates it.
    ``gap.time_limit`` caps the heuristic's own limit and stops the search,
    the root included, the root's cut rounds and the fixed-q LPs; a limit
    spent before the root reports lower ``-inf``.  ``fixed_q_lps`` counts
    the fixed-q LPs solved, and ``incumbent_source`` names where the final
    incumbent came from.
    """
    gap = gap or GapSpec()
    options = options or SolveOptions()
    start = time.monotonic()
    deadline = _deadline(start, gap)
    # the search counts the root, which node_limit and nodes do not
    search_gap = gap if gap.node_limit is None else replace(gap, node_limit=gap.node_limit + 1)
    search = _Search(search_gap, deadline)

    heuristic_seconds = 0.0
    source = None
    if options.use_primal_heuristic:
        t0 = time.monotonic()
        left = max(0.0, deadline - t0)
        heuristic_gap = replace(_HEURISTIC_GAP, time_limit=min(_HEURISTIC_GAP.time_limit, left))
        solution = initial_primal_search(pq, heuristic_gap)
        heuristic_seconds = time.monotonic() - t0
        if solution is not None:
            search.offer(solution.values, solution.objective)
            source = "restriction"

    rm = relax(pq.model)
    fixed_q = _FixedQ(pq, deadline)
    cb = add_all_pooling_inequalities(rm, pq) if options.use_pooling_cuts else None
    ids = itertools.count(1)
    root_cut_seconds = 0.0

    def evaluate(node: BnBNode, bound: float):
        nonlocal root_cut_seconds, source
        # every node, the root included, is evaluated on a clone of the root
        # relaxation tightened to its box
        rm_node = rm.clone()
        refresh_bounds(rm_node, node.overrides)
        if node.depth:
            res = solve_lp(rm_node.lp, start=node.start)
        else:
            t0 = time.monotonic()
            try:
                # add_valid_cuts installs each cut into the root relaxation
                # too, so every later clone carries the root's final rows
                res, _ = _cut_loop(rm_node, cb, deadline)
            finally:
                root_cut_seconds = time.monotonic() - t0
        if options.node_hook is not None:
            options.node_hook(node, res)
        if res.status is LPStatus.UNBOUNDED:
            return -math.inf, None
        if res.status is LPStatus.INFEASIBLE:
            # an LP that excludes a feasible incumbent inside its box has
            # failed numerically and proves nothing; the root's box holds
            # every point
            held = search.incumbent is not None and all(
                lo - _MC_FEAS_TOL <= search.incumbent[vid] <= up + _MC_FEAS_TOL
                for vid, (lo, up) in node.overrides.items()
            )
            return bound, None if held else []
        bound = max(bound, res.objective)
        if search.fathomed(bound):
            return bound, []
        found = _try_incumbent(fixed_q, res.x, search.upper)
        if found is not None:
            search.offer(*found)
            source = "fixed_q"
        picked = _branch_variable(rm, res.x, node.overrides)
        if picked is None:
            # envelope-tight or nothing left to split: the node is a proof
            # only if the incumbent meets its bound
            return bound, None
        var_id, xhat = picked
        lo, up = node.overrides.get(
            var_id, (rm.lp.variables[var_id].lower, rm.lp.variables[var_id].upper)
        )
        return bound, [
            BnBNode(next(ids), node.depth + 1, {**node.overrides, var_id: box}, res)
            for box in ((lo, xhat), (xhat, up))
        ]

    search.queue(-math.inf, [BnBNode(id=0, depth=0, overrides={})])
    status, lower = search.run(evaluate, "unknown")
    upper = search.upper
    return SolveReport(
        status=status,
        incumbent=(
            RestoredSolution(values=search.incumbent, objective=upper)
            if search.incumbent is not None
            else None
        ),
        lower=lower,
        upper=upper,
        rel_gap=relative_gap(lower, upper),
        # the root is not counted
        nodes=max(search.nodes - 1, 0),
        # every cut the search added, all of them at the root
        cuts=len(cb.cut_pool) if cb is not None else 0,
        wall_seconds=time.monotonic() - start,
        heuristic_seconds=heuristic_seconds,
        root_cut_seconds=root_cut_seconds,
        fixed_q_lps=fixed_q.lps,
        incumbent_source=source,
    )
