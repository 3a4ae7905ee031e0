"""Mixed-binary restriction of the pooling model.

Each pool is split into tau auxiliary copies; copy t receives a fixed
fraction gamma[l,t] of the pool's inflow and may serve exactly one output.
With the bilinear path rows switched off the restricted model is a MIP whose
feasible points map back to feasible pooling solutions, so its optimum is an
upper bound for the original minimization.

``install_restriction`` builds the MIP on ``pq.linear_core()``, the clone of
``pq.model`` without its bilinear pooling rows, and swaps the clone in;
``uninstall_restriction`` swaps the original back.  The model ``build_pq``
returned is never written, so there is nothing to undo.
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
from .model import Domain, LinearExpr, Model, Sense
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
        if not all(math.isfinite(w) for w in weights):
            raise InvalidWeights(f"non-finite weight for pool {pool!r}: {weights}")
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
    # the model build_pq returned, and its restricted clone
    base: Model
    model: Model
    w: dict[tuple[str, str, int, str], int]
    zeta: dict[tuple[str, int, str], int]


@dataclass
class RestoredSolution:
    values: dict[int, float]
    objective: float


def install_restriction(pq: PQModel, spec: RestrictionSpec) -> RestrictedModel:
    """Set ``pq.model`` to a restricted clone of it, until
    ``uninstall_restriction``.

    The clone is ``pq.linear_core()``, which raises
    ``NonLinearSideConstraints`` on any other bilinear row or a bilinear
    objective; the install adds the ``w`` and ``zeta`` columns and the
    ``flow_balance``, ``flow_balance_2``, ``flow_choice_limit`` and
    ``flow_choice`` rows.  A failed install leaves ``pq`` as it was.
    """
    if getattr(pq, "_restriction", None) is not None:
        raise AlreadyRestricted("a restriction is already installed on this model")
    net = pq.network
    per_pool_weights = {l: spec.weights_for(l) for l in net.pools()}
    outputs = {l: net.outputs_of_pool(l) for l in net.pools()}
    cap_lj = {(l, j): flow_cap(net, l, j) for l, j in index_set_lj(net)}
    for (l, j), hi in cap_lj.items():
        if not math.isfinite(hi):
            raise UnboundedOutputCapacity(
                f"flow bound for {l!r}->{j!r} is unbounded; the restriction needs a finite cap"
            )

    base = pq.model
    model = pq.linear_core()

    w: dict[tuple[str, str, int, str], int] = {}
    zeta: dict[tuple[str, int, str], int] = {}
    for (i, l, j) in sorted(pq.v):
        for t in range(1, spec.tau + 1):
            w[(i, l, t, j)] = model.add_variable(
                f"w[{i},{l},{t},{j}]", 0.0, cap_lj[(l, j)]
            ).id
    for l in net.pools():
        for t in range(1, spec.tau + 1):
            for j in outputs[l]:
                zeta[(l, t, j)] = model.add_variable(
                    f"zeta[{l},{t},{j}]", 0.0, 1.0, Domain.BINARY
                ).id

    # flow_balance[i,l,j]: v = sum_t w
    for (i, l, j), vid in sorted(pq.v.items()):
        expr = LinearExpr({vid: 1.0})
        for t in range(1, spec.tau + 1):
            expr.add_term(w[(i, l, t, j)], -1.0)
        model.add_constraint(f"flow_balance[{i},{l},{j}]", expr, Sense.EQ, 0.0)

    # flow_balance_2[i,l,t]: sum_j w = gamma[l,t] * sum_j v
    for (i, l) in sorted(pq.q):
        served = outputs[l]
        if not served:
            continue
        weights = per_pool_weights[l]
        for t in range(1, spec.tau + 1):
            expr = LinearExpr()
            for j in served:
                expr.add_term(w[(i, l, t, j)], 1.0)
                expr.add_term(pq.v[(i, l, j)], -weights[t - 1])
            model.add_constraint(f"flow_balance_2[{i},{l},{t}]", expr, Sense.EQ, 0.0)

    # flow_choice_limit[i,l,t,j]: w <= c_lj * zeta
    for (i, l, t, j), wid in sorted(w.items()):
        expr = LinearExpr({wid: 1.0, zeta[(l, t, j)]: -cap_lj[(l, j)]})
        model.add_constraint(f"flow_choice_limit[{i},{l},{t},{j}]", expr, Sense.LE, 0.0)

    # flow_choice[l,t]: each pool copy serves exactly one output
    for l, served in outputs.items():
        if not served:
            continue
        for t in range(1, spec.tau + 1):
            expr = LinearExpr({zeta[(l, t, j)]: 1.0 for j in served})
            model.add_constraint(f"flow_choice[{l},{t}]", expr, Sense.EQ, 1.0)

    rm = RestrictedModel(pq=pq, base=base, model=model, w=w, zeta=zeta)
    pq.model = model
    pq._restriction = rm
    return rm


def uninstall_restriction(rm: RestrictedModel) -> PQModel:
    """Put the original model back; idempotent."""
    if rm.pq._restriction is rm:
        rm.pq.model = rm.base
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

    for l in net.pools():
        feeders = net.inputs_to_pool(l)
        if not feeders:
            continue
        served = net.outputs_of_pool(l)
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
    report = rm.model.is_feasible(solution, tol=1e-6)
    if not report:
        raise InfeasibleInput(
            f"solution violates {report.worst_name} by {report.worst_residual:.3g}"
        )
    values = fractional_flow_values(rm.pq, solution)
    report = rm.base.is_feasible(values, tol=1e-6)
    if not report:
        raise InfeasibleInput(
            f"derived assignment violates {report.worst_name} by {report.worst_residual:.3g}"
        )
    return RestoredSolution(values=values, objective=rm.base.objective_value(values))
