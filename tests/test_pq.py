import hashlib
import json

import numpy as np
import pytest

from poolblend import (
    BilinearTerm,
    GenSpec,
    LinearExpr,
    Network,
    Sense,
    build_pq,
    generate_instance,
    rebuild,
)
from poolblend.pq import index_set_ij, index_set_il, index_set_ilj, index_set_jk, index_set_lj
from poolblend.errors import (
    EmptyLayer,
    InfeasiblePool,
    MissingQuality,
    NonLinearSideConstraints,
    NotFrozen,
    UnmodelledCost,
)


def test_fragment_variable_bounds_and_reduction2(fragment):
    pq = build_pq(fragment)
    qvar = pq.model.variables[pq.q[("c1", "o1")]]
    assert (qvar.lower, qvar.upper) == (0.0, 1.0)
    row = pq.model.constraints["reduction_2[c1,o1]"]
    assert row.linear.terms[pq.q[("c1", "o1")]] == -85.0  # pool upper capacity
    assert row.rhs == 0.0


def test_h1_shape(h1_pq):
    assert len(h1_pq.q) == 2
    assert len(h1_pq.v) == 4
    assert len(h1_pq.y_pool) == 2
    assert len(h1_pq.y_bypass) == 2
    assert len(h1_pq.groups["simplex"]) == 1
    assert len(h1_pq.groups["product_quality_upper_bound"]) == 2
    assert len(h1_pq.groups["product_quality_lower_bound"]) == 0
    assert len(h1_pq.groups["pq_cut"]) == 2
    for name in h1_pq.groups["pq_cut"]:
        assert not h1_pq.model.constraints[name].active


def test_h1_objective_at_known_optimum(h1_pq):
    # route 100 through the pool (pure i2) and 100 of i3 bypass to j2
    values = {vid: 0.0 for vid in range(len(h1_pq.model.variables))}
    values[h1_pq.q[("i1", "l1")]] = 0.0
    values[h1_pq.q[("i2", "l1")]] = 1.0
    values[h1_pq.y_pool[("l1", "j2")]] = 100.0
    values[h1_pq.v[("i2", "l1", "j2")]] = 100.0
    values[h1_pq.y_bypass[("i3", "j2")]] = 100.0
    assert h1_pq.model.objective_value(values) == pytest.approx(-400.0)
    assert h1_pq.model.is_feasible(values, 1e-9)


def test_zero_flow_point_feasible_and_costless(h1_pq):
    values = {vid: 0.0 for vid in range(len(h1_pq.model.variables))}
    values[h1_pq.q[("i1", "l1")]] = 0.5
    values[h1_pq.q[("i2", "l1")]] = 0.5
    assert h1_pq.model.objective_value(values) == 0.0
    assert h1_pq.model.is_feasible(values, 1e-12)


def test_pool_without_feed_is_an_error():
    net = Network("bad")
    net.add_node(0, "i", attr={"quality": {"k": 1.0}})
    net.add_node(1, "l")
    net.add_node(2, "j", capacity_upper=10.0, attr={"quality_upper": {"k": 2.0}})
    net.add_edge("l", "j")
    net.add_edge("i", "j")
    net.freeze()
    with pytest.raises(InfeasiblePool):
        build_pq(net)


def test_empty_layer_is_an_error():
    net = Network("bad")
    net.add_node(0, "i", attr={"quality": {"k": 1.0}})
    net.add_node(1, "l")
    net.freeze()
    with pytest.raises(EmptyLayer):
        build_pq(net)


def test_missing_quality_is_an_error():
    net = Network("bad")
    net.add_node(0, "i", attr={"quality": {"k": 1.0}})
    net.add_node(1, "l")
    net.add_node(2, "j", capacity_upper=10.0, attr={"quality_upper": {"other": 2.0}})
    net.add_edge("i", "l")
    net.add_edge("l", "j")
    net.freeze()
    with pytest.raises(MissingQuality):
        build_pq(net)


@pytest.mark.parametrize(
    "layer, name, field, value",
    [
        ("edges", "i1->l1", "cost", 2.5),
        ("edges", "l1->j2", "fixed_cost", 40.0),
        ("nodes", "l1", "cost", 1.0),
    ],
)
def test_unmodelled_cost_is_an_error(h1, layer, name, field, value):
    # set through the JSON document, which keeps the field on a round trip
    doc = json.loads(h1.to_json())
    for entry in doc[layer]:
        if name in (entry.get("name"), f"{entry.get('source')}->{entry.get('destination')}"):
            entry[field] = value
    net = Network.from_json(json.dumps(doc))
    assert json.loads(net.to_json()) == doc
    with pytest.raises(UnmodelledCost, match=f"{field} {value}"):
        build_pq(net)


def test_build_requires_frozen_network():
    net = Network("open")
    net.add_node(0, "i", attr={"quality": {"k": 1.0}})
    with pytest.raises(NotFrozen):
        build_pq(net)


def test_index_sets_h1(h1):
    assert index_set_ilj(h1) == [
        ("i1", "l1", "j1"), ("i1", "l1", "j2"),
        ("i2", "l1", "j1"), ("i2", "l1", "j2"),
    ]
    assert index_set_il(h1) == [("i1", "l1"), ("i2", "l1")]
    assert index_set_lj(h1) == [("l1", "j1"), ("l1", "j2")]
    assert index_set_ij(h1) == [("i3", "j1"), ("i3", "j2")]
    assert index_set_jk(h1) == [("j1", "sulfur"), ("j2", "sulfur")]


def test_index_sets_without_pools_are_empty():
    net = Network("nopool")
    net.add_node(0, "i", attr={"quality": {"k": 1.0}})
    net.add_node(2, "j", attr={"quality_upper": {"k": 2.0}})
    net.add_edge("i", "j")
    net.freeze()
    assert index_set_ilj(net) == []
    assert index_set_lj(net) == []


def test_ilj_is_cross_product_per_pool(tiny_nets):
    for _, net in tiny_nets:
        il = index_set_il(net)
        lj = index_set_lj(net)
        expected = sum(
            sum(1 for i, ll in il if ll == l) * sum(1 for ll, j in lj if ll == l)
            for l in net.pools()
        )
        assert len(index_set_ilj(net)) == expected


def test_variable_counts_follow_topology(tiny_nets):
    for _, net in tiny_nets:
        pq = build_pq(net)
        assert len(pq.q) == len(index_set_il(net))
        assert len(pq.v) == len(index_set_ilj(net))
        assert len(pq.y_pool) == len(index_set_lj(net))
        assert len(pq.y_bypass) == len(index_set_ij(net))
        assert len(pq.groups["simplex"]) == len(
            {l for _, l in index_set_il(net)}
        )
        assert len(pq.groups["reduction_1"]) == len(index_set_lj(net))
        assert len(pq.groups["pq_cut"]) == len(index_set_lj(net))


def test_oracle_optimum_is_feasible(h1_pq):
    from oracle import grid_oracle, point_to_model_values

    oracle = grid_oracle(h1_pq.network, step=0.02)
    assert oracle.objective == pytest.approx(-400.0, abs=1e-9)
    values = point_to_model_values(h1_pq, oracle.best)
    for name in h1_pq.groups["path_definition"]:
        assert h1_pq.model.residual(values, name) <= 1e-9
    assert h1_pq.model.is_feasible(values, 1e-6)


def test_build_is_deterministic(h1):
    a = build_pq(h1)
    b = build_pq(h1)
    assert a.model.dump() == b.model.dump()
    assert [v.name for v in a.model.variables] == [v.name for v in b.model.variables]


def _with_lower_limits(h1):
    """h1 with a lower sulfur limit one below each output's upper one."""
    net = Network("h1_lower")
    for node in h1.nodes.values():
        attr = dict(node.attr)
        if "quality_upper" in attr:
            attr["quality_lower"] = {"sulfur": attr["quality_upper"]["sulfur"] - 1.0}
        net.add_node(
            node.layer, node.name, node.capacity_lower, node.capacity_upper, node.cost, attr
        )
    for e in h1.edges.values():
        net.add_edge(e.source, e.destination)
    return net.freeze()


def test_dumps_match_their_golden_digest(h1, tiny_nets):
    # h1, h1 with lower quality limits, the ten tiny specs and desk sparse
    # s1-s3, dumped one after another; the digest was taken while each sense
    # of product quality row had its own loop in build_pq
    nets = [h1, _with_lower_limits(h1)] + [net for _, net in tiny_nets] + [
        generate_instance(GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s)) for s in (1, 2, 3)
    ]
    digest = hashlib.sha256()
    for net in nets:
        digest.update(build_pq(net).model.dump().encode())
    assert digest.hexdigest() == "3f5591ce741dc30be9d1d22f7ae3e86f3e2dbfeed99607f27fe483b8a12c84de"
    groups = build_pq(nets[1]).groups
    assert groups["product_quality_lower_bound"] == [
        "product_quality_lower_bound[j1,sulfur]", "product_quality_lower_bound[j2,sulfur]"
    ]


def test_linear_core_is_a_clone_without_the_bilinear_rows(h1_pq):
    h1_pq.activate_group("pq_cut")
    before = h1_pq.model.dump()
    core = h1_pq.linear_core()
    assert core is not h1_pq.model and h1_pq.model.dump() == before
    off = set(h1_pq.groups["path_definition"] + h1_pq.groups["pq_cut"])
    for name, con in core.constraints.items():
        assert con.active == (name not in off)


def test_linear_core_refuses_any_other_bilinear_term(h1_pq):
    q0, y0 = h1_pq.q[("i1", "l1")], h1_pq.y_pool[("l1", "j1")]
    h1_pq.model.objective_bilinear.append(BilinearTerm.of(1.0, q0, y0))
    with pytest.raises(NonLinearSideConstraints, match="objective"):
        h1_pq.linear_core()
    h1_pq.model.objective_bilinear.clear()
    h1_pq.model.add_constraint(
        "user_row", LinearExpr(), Sense.LE, 5.0, bilinear=[BilinearTerm.of(1.0, q0, y0)]
    )
    with pytest.raises(NonLinearSideConstraints, match="user_row"):
        h1_pq.linear_core()
    h1_pq.model.deactivate("user_row")
    assert not h1_pq.linear_core().constraints["user_row"].active


def test_rebuild_idempotent(h1_pq):
    again = rebuild(h1_pq)
    assert again.model.dump() == h1_pq.model.dump()


def test_rebuild_keeps_deactivation(h1_pq):
    h1_pq.deactivate_group("path_definition")
    again = rebuild(h1_pq)
    for name in again.groups["path_definition"]:
        assert not again.model.constraints[name].active
    # default-off rows stay off, manually-on rows stay on
    h1_pq.activate_group("pq_cut")
    again2 = rebuild(h1_pq)
    for name in again2.groups["pq_cut"]:
        assert again2.model.constraints[name].active


def test_rebuild_after_adding_output(h1):
    net = Network("h1plus")
    doc = h1.to_json()
    base = Network.from_json(doc)
    net = Network("h1plus")
    for node in base.nodes.values():
        net.add_node(node.layer, node.name, node.capacity_lower, node.capacity_upper,
                     node.cost, node.attr)
    net.add_node(2, "j3", capacity_upper=50.0, cost=12.0,
                 attr={"quality_upper": {"sulfur": 2.0}})
    for edge in base.edges.values():
        net.add_edge(edge.source, edge.destination, edge.capacity_lower,
                     edge.capacity_upper, edge.cost, edge.fixed_cost, edge.attr)
    net.add_edge("l1", "j3")
    net.freeze()
    pq = build_pq(net)
    assert "output_capacity_upper[j3]" in pq.model.constraints


def test_pq_cut_residual_vanishes_on_simplex(h1_pq):
    rng = np.random.default_rng(7)
    for _ in range(200):
        q1 = rng.uniform(0, 1)
        y1, y2 = rng.uniform(0, 100, size=2)
        values = {vid: 0.0 for vid in range(len(h1_pq.model.variables))}
        values[h1_pq.q[("i1", "l1")]] = q1
        values[h1_pq.q[("i2", "l1")]] = 1.0 - q1
        values[h1_pq.y_pool[("l1", "j1")]] = y1
        values[h1_pq.y_pool[("l1", "j2")]] = y2
        for (i, l, j), vid in h1_pq.v.items():
            values[vid] = values[h1_pq.q[(i, l)]] * values[h1_pq.y_pool[(l, j)]]
        for name in h1_pq.groups["pq_cut"]:
            assert h1_pq.model.residual(values, name) <= 1e-9
