import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from poolblend import (
    BilinearTerm,
    Domain,
    GapSpec,
    GenSpec,
    LinearExpr,
    Model,
    Sense,
    SolveOptions,
    branch_and_cut,
    build_pq,
    generate_instance,
    initial_primal_search,
    relative_gap,
    relax,
    solve_lp,
    solve_mip,
)
from poolblend.cuts import add_all_pooling_inequalities, add_valid_cuts
from poolblend.errors import NonLinearSideConstraints
from poolblend.simplex import LPStatus


def test_relative_gap_examples():
    assert relative_gap(-400.0, -400.0) == 0.0
    assert relative_gap(100.0, 99.0) == pytest.approx(0.01)
    assert relative_gap(-math.inf, -400.0) == math.inf
    assert relative_gap(5.0, math.inf) == math.inf
    assert relative_gap(0.0, 0.0) == 0.0


@given(st.floats(-1e6, 1e6, allow_nan=False), st.floats(-1e6, 1e6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_relative_gap_symmetric(a, b):
    assert relative_gap(a, b) == relative_gap(b, a)


def test_mip_single_pool_choice():
    m = Model("choice")
    z1 = m.add_variable("z1", 0.0, 1.0, Domain.BINARY)
    z2 = m.add_variable("z2", 0.0, 1.0, Domain.BINARY)
    f = m.add_variable("f", 0.0, 10.0)
    m.add_constraint("pick", LinearExpr({z1.id: 1.0, z2.id: 1.0}), Sense.EQ, 1.0)
    m.add_constraint("flow", LinearExpr({f.id: 1.0, z1.id: -10.0, z2.id: -4.0}), Sense.LE, 0.0)
    m.objective = LinearExpr({f.id: -1.0})
    result = solve_mip(m)
    assert result.status == "optimal"
    assert result.objective == pytest.approx(-10.0)
    chosen = [result.incumbent[z1.id], result.incumbent[z2.id]]
    assert sorted(chosen) == [0.0, 1.0]


def test_mip_infeasible():
    m = Model("bad")
    z = m.add_variable("z", 0.0, 1.0, Domain.BINARY)
    m.add_constraint("no", LinearExpr({z.id: 1.0}), Sense.GE, 2.0)
    result = solve_mip(m)
    assert result.status == "infeasible"
    assert result.incumbent is None


def test_mip_integral_root_stops_immediately():
    m = Model("easy")
    z = m.add_variable("z", 0.0, 1.0, Domain.BINARY)
    m.objective = LinearExpr({z.id: 1.0})
    result = solve_mip(m, GapSpec(rel_tol=0.01, abs_tol=1e-8))
    assert result.status == "optimal"
    assert result.nodes == 1


def test_initial_primal_search_h1(h1_pq):
    solution = initial_primal_search(h1_pq)
    assert solution is not None
    assert solution.objective == pytest.approx(-400.0, abs=1e-6)
    assert h1_pq.model.is_feasible(solution.values, 1e-6)


def test_initial_primal_search_zero_demand(h1):
    from poolblend import Network

    net = Network("zero_demand")
    for node in h1.nodes.values():
        cap = 0.0 if node.layer == 2 else node.capacity_upper
        net.add_node(node.layer, node.name, node.capacity_lower, cap, node.cost, node.attr)
    for e in h1.edges.values():
        net.add_edge(e.source, e.destination)
    pq = build_pq(net.freeze())
    solution = initial_primal_search(pq)
    assert solution is not None
    assert solution.objective == pytest.approx(0.0, abs=1e-9)


def test_initial_primal_search_refuses_side_bilinear(h1_pq):
    q0 = h1_pq.q[("i1", "l1")]
    y0 = h1_pq.y_pool[("l1", "j1")]
    h1_pq.model.add_constraint(
        "user_row", LinearExpr(), Sense.LE, 5.0, bilinear=[BilinearTerm.of(1.0, q0, y0)]
    )
    with pytest.raises(NonLinearSideConstraints):
        initial_primal_search(h1_pq)


def test_branch_and_cut_h1_all_features(h1_pq):
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions())
    assert report.status == "optimal"
    assert report.lower == pytest.approx(-400.0, abs=1e-4)
    assert report.upper == pytest.approx(-400.0, abs=1e-4)
    assert report.rel_gap <= 1e-6
    assert report.incumbent is not None
    assert h1_pq.model.is_feasible(report.incumbent.values, 1e-6)
    assert report.wall_seconds < 5.0


def test_branch_and_cut_h1_bare_configuration(h1_pq):
    # no cuts, no heuristic: spatial branching must close -500 -> -400 alone
    options = SolveOptions(use_pooling_cuts=False, use_primal_heuristic=False)
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), options)
    assert report.status == "optimal"
    assert report.upper == pytest.approx(-400.0, abs=1e-3)
    assert report.lower == pytest.approx(report.upper, rel=1e-5)
    assert report.nodes > 0
    assert report.cuts == 0


def test_branch_and_cut_lower_never_exceeds_upper(h1_pq, tiny_nets):
    for options in (SolveOptions(), SolveOptions(use_pooling_cuts=False)):
        report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), options)
        assert report.lower <= report.upper + 1e-8
    for spec, net in tiny_nets[:4]:
        report = branch_and_cut(build_pq(net), GapSpec(rel_tol=1e-5), SolveOptions())
        assert report.lower <= report.upper + 1e-8, spec.instance_name()
        if report.incumbent is not None:
            assert build_pq(net).model.is_feasible(report.incumbent.values, 1e-6)


def test_root_bound_dominance(h1_pq, tiny_nets):
    nets = [("h1", h1_pq)] + [
        (spec.instance_name(), build_pq(net)) for spec, net in tiny_nets[:5]
    ]
    for name, pq in nets:
        work = pq.model.clone()
        for row in pq.groups["pq_cut"]:
            work.activate(row)
        plain = solve_lp(relax(work).lp)
        rm = relax(work.clone())
        cb = add_all_pooling_inequalities(rm, pq)
        res = solve_lp(rm.lp)
        for _ in range(20):
            if res.status is not LPStatus.OPTIMAL or add_valid_cuts(cb, rm, res.x) == 0:
                break
            res = solve_lp(rm.lp)
        assert res.objective >= plain.objective - 1e-7, name


def test_warm_cut_rounds_match_cold_solves(warm_outcomes, h1_pq, tiny_nets):
    desk = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in (1, 2, 3)]
    nets = [("h1", h1_pq)] + [
        (spec.instance_name(), build_pq(net)) for spec, net in tiny_nets
    ] + [(spec.instance_name(), build_pq(generate_instance(spec))) for spec in desk]
    rounds = 0
    for name, pq in nets:
        rm = relax(pq.model)
        cb = add_all_pooling_inequalities(rm, pq)
        res = solve_lp(rm.lp)
        for _ in range(20):
            if res.status is not LPStatus.OPTIMAL or add_valid_cuts(cb, rm, res.x) == 0:
                break
            attempts = len(warm_outcomes)
            res = solve_lp(rm.lp, start=res)
            assert len(warm_outcomes) == attempts + 1 and warm_outcomes[-1] is not None, name
            cold = solve_lp(rm.lp)
            assert res.status is cold.status is LPStatus.OPTIMAL, name
            assert res.objective == pytest.approx(cold.objective, rel=1e-9), name
            rounds += 1
    assert rounds >= 20


def test_report_json_shape(h1_pq):
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions())
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "status", "lower", "upper", "rel_gap", "nodes", "cuts", "wall_seconds",
        "heuristic_seconds", "root_cut_seconds",
    }
    assert doc["status"] == "optimal"


def test_node_hook_observes_tree(h1_pq):
    seen = []
    options = SolveOptions(
        use_pooling_cuts=False,
        use_primal_heuristic=False,
        node_hook=lambda node, res: seen.append((node.id, node.depth, res.status)),
    )
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), options)
    assert report.status == "optimal"
    assert seen[0][:2] == (0, 0)  # root fires first
    assert len(seen) == report.nodes + 1
    assert all(s is LPStatus.OPTIMAL for _, _, s in seen[:1])


def test_branch_and_cut_deterministic(tiny_nets):
    spec, net = tiny_nets[1]
    reports = [
        branch_and_cut(build_pq(net), GapSpec(rel_tol=1e-6), SolveOptions())
        for _ in range(2)
    ]
    a, b = reports
    assert (a.status, a.lower, a.upper, a.nodes, a.cuts) == (
        b.status, b.lower, b.upper, b.nodes, b.cuts
    )
    if a.incumbent is not None:
        assert a.incumbent.values == b.incumbent.values


def test_gap_limits_respected(h1_pq):
    report = branch_and_cut(
        h1_pq,
        GapSpec(rel_tol=1e-6, node_limit=0),
        SolveOptions(use_pooling_cuts=False, use_primal_heuristic=True),
    )
    # the heuristic incumbent exists even before any node is explored
    assert report.upper == pytest.approx(-400.0, abs=1e-6)
    assert report.nodes == 0
