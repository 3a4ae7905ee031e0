"""Build the pooling flow model from a network.

Variables follow the fractional-flow formulation: ``q[i,l]`` is the share of
pool l's inflow coming from input i, ``y[l,j]`` the pool-to-output flow,
``z[i,j]`` the bypass flow, and ``v[i,l,j]`` the path flow with the defining
bilinear identity v = q*y.  The per-(l,j) rows ``sum_i q[i,l]*y[l,j] =
y[l,j]`` of the pq-formulation are built deactivated.  The relaxation leaves
them off: its envelope of q*y is the variable v itself, so linearized they
would repeat ``reduction_1``.

Flow upper bounds are composed from edge capacities and node capacities:
c_il = min(edge, input upper, pool upper), c_lj = min(edge, pool upper,
output upper), c_ij = min(edge, input upper, output upper), c_l = pool upper.
Bounds that stay infinite are simply not applied.

Costs sit on the inputs and outputs only.  A nonzero cost or fixed cost on
an edge the model uses, or a nonzero pool cost, raises ``UnmodelledCost``
rather than being dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    EmptyLayer,
    InfeasiblePool,
    MissingQuality,
    NonLinearSideConstraints,
    NotFrozen,
    UnmodelledCost,
)
from .model import BilinearTerm, LinearExpr, Model, Sense
from .network import Network

__all__ = [
    "PQModel",
    "IndexSets",
    "build_pq",
    "rebuild",
    "index_set_ilj",
    "index_set_il",
    "index_set_lj",
    "index_set_ij",
    "index_set_jk",
]


@dataclass
class IndexSets:
    ilj: list[tuple[str, str, str]]
    il: list[tuple[str, str]]
    lj: list[tuple[str, str]]
    ij: list[tuple[str, str]]
    jk: list[tuple[str, str]]


@dataclass
class PQModel:
    model: Model
    network: Network
    q: dict[tuple[str, str], int]
    v: dict[tuple[str, str, str], int]
    y_pool: dict[tuple[str, str], int]
    y_bypass: dict[tuple[str, str], int]
    groups: dict[str, list[str]] = field(default_factory=dict)

    def deactivate_group(self, group: str) -> None:
        for name in self.groups.get(group, []):
            self.model.deactivate(name)

    def activate_group(self, group: str) -> None:
        for name in self.groups.get(group, []):
            self.model.activate(name)

    def linear_core(self) -> Model:
        """A clone of ``model`` with its ``path_definition`` and ``pq_cut``
        rows deactivated: the linear model both primal heuristics start from.

        Raises ``NonLinearSideConstraints`` when an active row or the
        objective still carries a bilinear term, which no LP could represent.
        """
        core = self.model.clone()
        for group in ("path_definition", "pq_cut"):
            for name in self.groups.get(group, []):
                core.deactivate(name)
        if core.objective_bilinear:
            raise NonLinearSideConstraints("objective carries bilinear terms")
        for name, con in core.constraints.items():
            if con.active and con.bilinear:
                raise NonLinearSideConstraints(
                    f"constraint {name!r} is bilinear and not part of the pooling core"
                )
        return core


def _require_frozen(net: Network) -> None:
    if not net.frozen:
        raise NotFrozen(f"network {net.name!r} must be frozen before building models")


def index_set_il(net: Network) -> list[tuple[str, str]]:
    _require_frozen(net)
    inputs = set(net.inputs())
    pools = set(net.pools())
    return sorted(
        (e.source, e.destination)
        for e in net.pq_edges()
        if e.source in inputs and e.destination in pools
    )


def index_set_lj(net: Network) -> list[tuple[str, str]]:
    _require_frozen(net)
    pools = set(net.pools())
    return sorted(
        (e.source, e.destination) for e in net.pq_edges() if e.source in pools
    )


def index_set_ij(net: Network) -> list[tuple[str, str]]:
    _require_frozen(net)
    inputs = set(net.inputs())
    outputs = set(net.outputs())
    return sorted(
        (e.source, e.destination)
        for e in net.pq_edges()
        if e.source in inputs and e.destination in outputs
    )


def index_set_ilj(net: Network) -> list[tuple[str, str, str]]:
    """Path triples: (i,l) and (l,j) both edges of the network."""
    il = index_set_il(net)
    lj = index_set_lj(net)
    by_pool: dict[str, list[str]] = {}
    for l, j in lj:
        by_pool.setdefault(l, []).append(j)
    return sorted((i, l, j) for i, l in il for j in by_pool.get(l, []))


def index_set_jk(net: Network) -> list[tuple[str, str]]:
    """Output/quality pairs with an upper composition limit."""
    _require_frozen(net)
    out = []
    for j in net.outputs():
        for k in sorted(net.nodes[j].quality_upper):
            out.append((j, k))
    return sorted(out)


def index_sets(net: Network) -> IndexSets:
    return IndexSets(
        ilj=index_set_ilj(net),
        il=index_set_il(net),
        lj=index_set_lj(net),
        ij=index_set_ij(net),
        jk=index_set_jk(net),
    )


def flow_cap(net: Network, a: str, b: str) -> float:
    """Upper bound on the flow along edge a->b: min(edge upper, both node uppers)."""
    edge_hi = net.edges[(a, b)].capacity_bounds()[1]
    return min(edge_hi, net.nodes[a].capacity_bounds()[1], net.nodes[b].capacity_bounds()[1])


def _quality(net: Network, i: str, k: str) -> float:
    return float(net.nodes[i].quality.get(k, 0.0))


def build_pq(net: Network) -> PQModel:
    _require_frozen(net)
    inputs, pools, outputs = net.inputs(), net.pools(), net.outputs()
    for layer, names in (("input", inputs), ("pool", pools), ("output", outputs)):
        if not names:
            raise EmptyLayer(f"network {net.name!r} has no {layer} nodes")

    sets = index_sets(net)
    pools_with_edges = {l for _, l in sets.il} | {l for l, _ in sets.lj}
    for l in sorted(pools_with_edges):
        if not any(il[1] == l for il in sets.il):
            raise InfeasiblePool(f"pool {l!r} has outbound edges but no feed inputs")

    for e in net.pq_edges():
        for what, value in (("cost", e.cost), ("fixed_cost", e.fixed_cost)):
            if value:
                raise UnmodelledCost(
                    f"edge {e.source!r}->{e.destination!r} has {what} {value}, "
                    "which the model does not represent"
                )
    for l in pools:
        if net.nodes[l].cost:
            raise UnmodelledCost(
                f"pool {l!r} has cost {net.nodes[l].cost}, which the model does not represent"
            )

    quality_union = set(net.quality_keys())
    for j, k in sets.jk:
        if k not in quality_union:
            raise MissingQuality(
                f"output {j!r} bounds quality {k!r} which no input provides"
            )

    model = Model(f"pq[{net.name}]")
    groups: dict[str, list[str]] = {
        "path_definition": [],
        "simplex": [],
        "product_quality_lower_bound": [],
        "product_quality_upper_bound": [],
        "input_capacity": [],
        "pool_capacity": [],
        "output_capacity": [],
        "reduction_1": [],
        "reduction_2": [],
        "flow_bound": [],
        "pq_cut": [],
    }

    def node_upper(name: str) -> float:
        return net.nodes[name].capacity_bounds()[1]

    # variables
    q = {}
    for i, l in sets.il:
        q[(i, l)] = model.add_variable(f"q[{i},{l}]", 0.0, 1.0).id
    v = {}
    for i, l, j in sets.ilj:
        ub = min(flow_cap(net, i, l), flow_cap(net, l, j))
        v[(i, l, j)] = model.add_variable(
            f"v[{i},{l},{j}]", 0.0, ub if math.isfinite(ub) else math.inf
        ).id
    y_pool = {}
    for l, j in sets.lj:
        lo = net.edges[(l, j)].capacity_bounds()[0]
        hi = flow_cap(net, l, j)
        y_pool[(l, j)] = model.add_variable(f"y[{l},{j}]", lo, hi).id
    y_bypass = {}
    for i, j in sets.ij:
        lo = net.edges[(i, j)].capacity_bounds()[0]
        hi = flow_cap(net, i, j)
        y_bypass[(i, j)] = model.add_variable(f"z[{i},{j}]", lo, hi).id

    by_pool_outputs = {l: [j for ll, j in sets.lj if ll == l] for l in pools}
    by_pool_inputs = {l: [i for i, ll in sets.il if ll == l] for l in pools}
    by_output_pools = {j: [l for l, jj in sets.lj if jj == j] for j in outputs}
    by_output_bypass = {j: [i for i, jj in sets.ij if jj == j] for j in outputs}

    # objective: input costs on path flows, revenues on pool flows,
    # margin on bypass flows
    obj = LinearExpr()
    for (i, l, j), vid in v.items():
        obj.add_term(vid, net.nodes[i].cost)
    for (l, j), yid in y_pool.items():
        obj.add_term(yid, -net.nodes[j].cost)
    for (i, j), zid in y_bypass.items():
        obj.add_term(zid, -(net.nodes[j].cost - net.nodes[i].cost))
    model.objective = obj

    # path_definition[i,l,j]: v - q*y = 0
    for i, l, j in sets.ilj:
        name = f"path_definition[{i},{l},{j}]"
        model.add_constraint(
            name,
            LinearExpr({v[(i, l, j)]: 1.0}),
            Sense.EQ,
            0.0,
            bilinear=[BilinearTerm.of(-1.0, q[(i, l)], y_pool[(l, j)])],
        )
        groups["path_definition"].append(name)

    # simplex[l]: sum_i q[i,l] = 1
    for l in pools:
        feeders = by_pool_inputs[l]
        if not feeders:
            continue  # pool untouched by edges; checked above when it has outputs
        name = f"simplex[{l}]"
        model.add_constraint(
            name, LinearExpr({q[(i, l)]: 1.0 for i in feeders}), Sense.EQ, 1.0
        )
        groups["simplex"].append(name)

    # product quality rows per (j,k): the composition against the limit
    def add_quality_row(j: str, k: str, limit: float, sense: Sense) -> None:
        side = "upper" if sense is Sense.LE else "lower"
        group = f"product_quality_{side}_bound"
        expr = LinearExpr()
        for l in by_output_pools[j]:
            for i in by_pool_inputs[l]:
                expr.add_term(v[(i, l, j)], _quality(net, i, k))
        for i in by_output_bypass[j]:
            expr.add_term(y_bypass[(i, j)], _quality(net, i, k))
        for l in by_output_pools[j]:
            expr.add_term(y_pool[(l, j)], -limit)
        for i in by_output_bypass[j]:
            expr.add_term(y_bypass[(i, j)], -limit)
        name = f"{group}[{j},{k}]"
        model.add_constraint(name, expr, sense, 0.0)
        groups[group].append(name)

    for j in outputs:
        node = net.nodes[j]
        if not by_output_pools[j] and not by_output_bypass[j]:
            continue
        for k in sorted(node.quality_upper):
            add_quality_row(j, k, float(node.quality_upper[k]), Sense.LE)
        for k in sorted(node.quality_lower):
            if k not in quality_union:
                raise MissingQuality(
                    f"output {j!r} bounds quality {k!r} which no input provides"
                )
            add_quality_row(j, k, float(node.quality_lower[k]), Sense.GE)

    # input_capacity[i]: A_L <= sum v + sum bypass <= A_U
    for i in inputs:
        lo, hi = net.nodes[i].capacity_bounds()
        expr = LinearExpr()
        for (ii, l, j), vid in v.items():
            if ii == i:
                expr.add_term(vid, 1.0)
        for (ii, j), zid in y_bypass.items():
            if ii == i:
                expr.add_term(zid, 1.0)
        if not expr.terms:
            continue
        if math.isfinite(hi):
            name = f"input_capacity_upper[{i}]"
            model.add_constraint(name, expr.copy(), Sense.LE, hi)
            groups["input_capacity"].append(name)
        if lo > 0.0:
            name = f"input_capacity_lower[{i}]"
            model.add_constraint(name, expr.copy(), Sense.GE, lo)
            groups["input_capacity"].append(name)

    # pool_capacity[l]: sum_{j in J_l} y[l,j] <= S_l
    for l in pools:
        s_l = node_upper(l)
        if not math.isfinite(s_l):
            continue
        served = by_pool_outputs[l]
        if not served:
            continue
        name = f"pool_capacity[{l}]"
        model.add_constraint(
            name, LinearExpr({y_pool[(l, j)]: 1.0 for j in served}), Sense.LE, s_l
        )
        groups["pool_capacity"].append(name)

    # output_capacity[j]: D_L <= sum y + sum bypass <= D_U
    for j in outputs:
        lo, hi = net.nodes[j].capacity_bounds()
        expr = LinearExpr()
        for l in by_output_pools[j]:
            expr.add_term(y_pool[(l, j)], 1.0)
        for i in by_output_bypass[j]:
            expr.add_term(y_bypass[(i, j)], 1.0)
        if not expr.terms:
            continue
        if math.isfinite(hi):
            name = f"output_capacity_upper[{j}]"
            model.add_constraint(name, expr.copy(), Sense.LE, hi)
            groups["output_capacity"].append(name)
        if lo > 0.0:
            name = f"output_capacity_lower[{j}]"
            model.add_constraint(name, expr.copy(), Sense.GE, lo)
            groups["output_capacity"].append(name)

    # reduction_1[l,j]: sum_i v[i,l,j] = y[l,j]
    for l, j in sets.lj:
        expr = LinearExpr({v[(i, l, j)]: 1.0 for i in by_pool_inputs[l]})
        expr.add_term(y_pool[(l, j)], -1.0)
        name = f"reduction_1[{l},{j}]"
        model.add_constraint(name, expr, Sense.EQ, 0.0)
        groups["reduction_1"].append(name)

    # reduction_2[i,l]: sum_j v[i,l,j] <= c_l q[i,l]
    for i, l in sets.il:
        c_l = node_upper(l)
        if not math.isfinite(c_l):
            continue
        expr = LinearExpr({v[(i, l, j)]: 1.0 for j in by_pool_outputs[l]})
        expr.add_term(q[(i, l)], -c_l)
        name = f"reduction_2[{i},{l}]"
        model.add_constraint(name, expr, Sense.LE, 0.0)
        groups["reduction_2"].append(name)

    # remaining bound rows: sum_j v[i,l,j] <= c_il, plus the edge lower bound
    for i, l in sets.il:
        served = by_pool_outputs[l]
        if not served:
            continue
        c = flow_cap(net, i, l)
        if math.isfinite(c):
            name = f"flow_bound_upper[{i},{l}]"
            model.add_constraint(
                name, LinearExpr({v[(i, l, j)]: 1.0 for j in served}), Sense.LE, c
            )
            groups["flow_bound"].append(name)
        lo = net.edges[(i, l)].capacity_bounds()[0]
        if lo > 0.0:
            name = f"flow_bound_lower[{i},{l}]"
            model.add_constraint(
                name, LinearExpr({v[(i, l, j)]: 1.0 for j in served}), Sense.GE, lo
            )
            groups["flow_bound"].append(name)

    # pq_cut[l,j]: sum_i q[i,l]*y[l,j] = y[l,j]; built deactivated
    for l, j in sets.lj:
        name = f"pq_cut[{l},{j}]"
        model.add_constraint(
            name,
            LinearExpr({y_pool[(l, j)]: -1.0}),
            Sense.EQ,
            0.0,
            bilinear=[
                BilinearTerm.of(1.0, q[(i, l)], y_pool[(l, j)]) for i in by_pool_inputs[l]
            ],
            active=False,
        )
        groups["pq_cut"].append(name)

    return PQModel(
        model=model, network=net, q=q, v=v, y_pool=y_pool, y_bypass=y_bypass, groups=groups
    )


def rebuild(pq: PQModel) -> PQModel:
    """Regenerate the model from the network, carrying over every row's
    active flag to the row of the same name after the rebuild."""
    fresh = build_pq(pq.network)
    for name, con in pq.model.constraints.items():
        if name in fresh.model.constraints:
            fresh.model.constraints[name].active = con.active
    return fresh
