"""Mixed-binary restriction of the pooling model.

Each pool is split into tau auxiliary copies; copy t receives a fixed
fraction gamma[l,t] of the pool's inflow and may serve exactly one output.
With the bilinear path rows switched off the restricted model is a MIP whose
feasible points map back to feasible pooling solutions, so its optimum is an
upper bound for the original minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    AlreadyRestricted,
    InfeasibleInput,
    InvalidWeights,
    UnboundedOutputCapacity,
)
from .model import Domain, LinearExpr, Sense
from .pq import PQModel, flow_cap, index_set_lj

__all__ = [
    "RestrictionSpec",
    "RestrictedModel",
    "RestoredSolution",
    "install_restriction",
    "uninstall_restriction",
    "derive_fractional_flows",
]

_ZERO_THROUGHPUT = 1e-9


@dataclass
class RestrictionSpec:
    tau: int = 1
    gamma: dict[tuple[str, int], float] | None = None

    def weights_for(self, pool: str) -> list[float]:
        """Weights gamma[l, 1..tau]; uniform 1/tau unless supplied."""
        if self.tau < 1:
            raise InvalidWeights(f"tau must be positive, got {self.tau}")
        if self.gamma is None:
            return [1.0 / self.tau] * self.tau
        weights = []
        for t in range(1, self.tau + 1):
            try:
                weights.append(float(self.gamma[(pool, t)]))
            except KeyError:
                raise InvalidWeights(f"missing weight for pool {pool!r}, copy {t}") from None
        if any(w < 0 for w in weights):
            raise InvalidWeights(f"negative weight for pool {pool!r}")
        if abs(sum(weights) - 1.0) > 1e-9:
            raise InvalidWeights(
                f"weights for pool {pool!r} sum to {sum(weights)}, expected 1"
            )
        return weights


@dataclass
class RestrictedModel:
    pq: PQModel
    w: dict[tuple[str, str, int, str], int]
    zeta: dict[tuple[str, int, str], int]
    added_rows: list[str]
    vars_before: int
    prev_active: dict[str, bool]
    installed: bool = True


@dataclass
class RestoredSolution:
    values: dict[int, float]
    objective: float


def install_restriction(pq: PQModel, spec: RestrictionSpec) -> RestrictedModel:
    if getattr(pq, "_restriction", None) is not None:
        raise AlreadyRestricted("a restriction is already installed on this model")
    net = pq.network
    model = pq.model

    # validate all weights and caps up front so a bad spec leaves the model
    # untouched
    per_pool_weights = {l: spec.weights_for(l) for l in net.pools()}
    lj = index_set_lj(net)
    cap_lj = {(l, j): flow_cap(net, l, j) for l, j in lj}
    for (l, j), hi in cap_lj.items():
        if not math.isfinite(hi):
            raise UnboundedOutputCapacity(
                f"flow bound for {l!r}->{j!r} is unbounded; the restriction needs a finite cap"
            )

    prev_active = {}
    for group in ("path_definition", "pq_cut"):
        for name in pq.groups.get(group, []):
            prev_active[name] = model.constraints[name].active
            model.deactivate(name)

    vars_before = len(model.variables)
    by_pool_outputs: dict[str, list[str]] = {}
    for l, j in lj:
        by_pool_outputs.setdefault(l, []).append(j)

    w: dict[tuple[str, str, int, str], int] = {}
    zeta: dict[tuple[str, int, str], int] = {}
    rows: list[str] = []

    try:
        for (i, l, j) in sorted(pq.v):
            for t in range(1, spec.tau + 1):
                w[(i, l, t, j)] = model.add_variable(
                    f"w[{i},{l},{t},{j}]", 0.0, cap_lj[(l, j)]
                ).id
        for l in net.pools():
            for t in range(1, spec.tau + 1):
                for j in by_pool_outputs.get(l, []):
                    zeta[(l, t, j)] = model.add_variable(
                        f"zeta[{l},{t},{j}]", 0.0, 1.0, Domain.BINARY
                    ).id

        # flow_balance[i,l,j]: v = sum_t w
        for (i, l, j), vid in sorted(pq.v.items()):
            expr = LinearExpr({vid: 1.0})
            for t in range(1, spec.tau + 1):
                expr.add_term(w[(i, l, t, j)], -1.0)
            name = f"flow_balance[{i},{l},{j}]"
            model.add_constraint(name, expr, Sense.EQ, 0.0)
            rows.append(name)

        # flow_balance_2[i,l,t]: sum_j w = gamma[l,t] * sum_j v
        for (i, l) in sorted(pq.q):
            served = by_pool_outputs.get(l, [])
            if not served:
                continue
            weights = per_pool_weights[l]
            for t in range(1, spec.tau + 1):
                expr = LinearExpr()
                for j in served:
                    expr.add_term(w[(i, l, t, j)], 1.0)
                    expr.add_term(pq.v[(i, l, j)], -weights[t - 1])
                name = f"flow_balance_2[{i},{l},{t}]"
                model.add_constraint(name, expr, Sense.EQ, 0.0)
                rows.append(name)

        # flow_choice_limit[i,l,t,j]: w <= c_lj * zeta
        for (i, l, t, j), wid in sorted(w.items()):
            expr = LinearExpr({wid: 1.0, zeta[(l, t, j)]: -cap_lj[(l, j)]})
            name = f"flow_choice_limit[{i},{l},{t},{j}]"
            model.add_constraint(name, expr, Sense.LE, 0.0)
            rows.append(name)

        # flow_choice[l,t]: each pool copy serves exactly one output
        for l in net.pools():
            served = by_pool_outputs.get(l, [])
            if not served:
                continue
            for t in range(1, spec.tau + 1):
                expr = LinearExpr({zeta[(l, t, j)]: 1.0 for j in served})
                name = f"flow_choice[{l},{t}]"
                model.add_constraint(name, expr, Sense.EQ, 1.0)
                rows.append(name)
    except Exception:
        for name in rows:
            model.remove_constraint(name)
        model.truncate_variables(vars_before)
        for name, active in prev_active.items():
            if active:
                model.activate(name)
        raise

    rm = RestrictedModel(
        pq=pq,
        w=w,
        zeta=zeta,
        added_rows=rows,
        vars_before=vars_before,
        prev_active=prev_active,
    )
    pq._restriction = rm
    return rm


def uninstall_restriction(rm: RestrictedModel) -> PQModel:
    """Remove the sub-block and restore activation state; idempotent."""
    if not rm.installed:
        return rm.pq
    model = rm.pq.model
    for name in rm.added_rows:
        model.remove_constraint(name)
    model.truncate_variables(rm.vars_before)
    for name, active in rm.prev_active.items():
        if active:
            model.activate(name)
        else:
            model.deactivate(name)
    rm.installed = False
    rm.pq._restriction = None
    return rm.pq


def fractional_flow_values(pq: PQModel, point) -> dict[int, float]:
    """Project a point's flows onto the bilinear identities.

    Pool and bypass flows are kept.  q[i,l] comes from the flow ratios v/y
    on the output with the most pool throughput; pools that move nothing get
    uniform fractions.  Path flows are recomputed as q*y so the bilinear
    identities hold exactly.
    """
    net = pq.network
    values: dict[int, float] = {}
    for (l, j), yid in pq.y_pool.items():
        values[yid] = float(point[yid])
    for (i, j), zid in pq.y_bypass.items():
        values[zid] = float(point[zid])

    by_pool_outputs: dict[str, list[str]] = {}
    for (l, j) in pq.y_pool:
        by_pool_outputs.setdefault(l, []).append(j)

    for l in net.pools():
        feeders = net.inputs_to_pool(l)
        if not feeders:
            continue
        served = by_pool_outputs.get(l, [])
        totals = {j: sum(float(point[pq.v[(i, l, j)]]) for i in feeders) for j in served}
        throughput = sum(totals.values())
        if throughput <= _ZERO_THROUGHPUT:
            for i in feeders:
                values[pq.q[(i, l)]] = 1.0 / len(feeders)
        else:
            j_star = max(served, key=lambda j: (totals[j], j))
            denom = totals[j_star]
            for i in feeders:
                values[pq.q[(i, l)]] = float(point[pq.v[(i, l, j_star)]]) / denom

    for (i, l, j), vid in pq.v.items():
        values[vid] = values[pq.q[(i, l)]] * values[pq.y_pool[(l, j)]]
    return values


def derive_fractional_flows(rm: RestrictedModel, solution) -> RestoredSolution:
    """Turn a restricted-model solution into a full pooling assignment
    (see fractional_flow_values) and check it against the pooling rows."""
    pq = rm.pq
    model = pq.model
    if rm.installed:
        report = model.is_feasible(solution, tol=1e-6)
        if not report:
            raise InfeasibleInput(
                f"solution violates {report.worst_name} by {report.worst_residual:.3g}"
            )

    values = fractional_flow_values(pq, solution)

    worst, worst_name = 0.0, None
    for name, con in model.constraints.items():
        if name in rm.added_rows:
            continue
        active = rm.prev_active.get(name, con.active)
        if not active:
            continue
        res = con.residual(values)
        if res > worst:
            worst, worst_name = res, name
    for var in model.variables[: rm.vars_before]:
        value = values[var.id]
        res = max(var.lower - value, value - var.upper, 0.0)
        if res > worst:
            worst, worst_name = res, f"bounds[{var.name}]"
    if worst > 1e-6:
        raise InfeasibleInput(
            f"derived assignment violates {worst_name} by {worst:.3g}"
        )
    return RestoredSolution(values=values, objective=model.objective_value(values))
