import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolblend import (
    BilinearTerm,
    Domain,
    GapSpec,
    GenSpec,
    LinearExpr,
    Model,
    Network,
    NodeLayer,
    Sense,
    SolveOptions,
    branch_and_cut,
    RestrictionSpec,
    build_pq,
    derive_fractional_flows,
    generate_instance,
    initial_primal_search,
    install_restriction,
    relative_gap,
    relax,
    solve_lp,
    solve_mip,
    uninstall_restriction,
)
import poolblend.simplex as simplex
import poolblend.solve as solve_module
from poolblend.cuts import add_all_pooling_inequalities, add_valid_cuts
from poolblend.errors import NonLinearSideConstraints, NumericalFailure
from poolblend.instances import haverly
from poolblend.restriction import RestoredSolution, fractional_flow_values
from poolblend.simplex import LPStatus

from oracle import grid_oracle
from test_acceptance import ORACLE_TINY_SPECS

DESK_SPARSE_S1 = GenSpec("sparse_haverly", 8, 3, 5, 2, 22, 1)
# the optimum of the tau=2 restriction of DESK_SPARSE_S1
DESK_S1_TAU2_OPTIMUM = -2014.3089442180542


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


def knapsack():
    """max 9a + 8b + 9c s.t. 4a + 2b + 5c <= 10.  The root LP is a = b = 1,
    c = 0.8, which rounds to an infeasible point; child c = 0 gives a = b = 1
    (17) and child c = 1 holds the optimum a = c = 1 (18)."""
    m = Model("knapsack")
    z = [m.add_variable(f"z{i}", 0.0, 1.0, Domain.BINARY) for i in range(3)]
    m.add_constraint(
        "cap", LinearExpr({z[0].id: 4.0, z[1].id: 2.0, z[2].id: 5.0}), Sense.LE, 10.0
    )
    m.objective = LinearExpr({z[0].id: -9.0, z[1].id: -8.0, z[2].id: -9.0})
    return m, z


def test_mip_limit_keeps_unexplored_nodes_open():
    # with no node explored, the root stays open and its bound is -inf
    pq = build_pq(generate_instance(DESK_SPARSE_S1))
    rm = install_restriction(pq, RestrictionSpec(tau=2))
    try:
        result = solve_mip(pq.model, GapSpec(node_limit=0))
    finally:
        uninstall_restriction(rm)
    assert (result.status, result.incumbent, result.nodes) == ("no_feasible_found", None, 0)
    assert result.lower_bound == -math.inf

    # child c = 1, which holds the optimum a = c = 1 (18), is left open
    m, _ = knapsack()
    result = solve_mip(m, GapSpec(node_limit=2))
    assert (result.status, result.objective, result.nodes) == ("feasible", -17.0, 2)
    assert result.lower_bound == pytest.approx(-24.2)
    assert solve_mip(m).objective == pytest.approx(-18.0)


def test_unbounded_restriction_keeps_no_bound():
    # i1 reaches the uncapped output j1 at a profit, so the restriction LP is
    # unbounded; that proves no bound, and it is not infeasibility
    net = Network("uncapped_bypass")
    net.add_node(NodeLayer.INPUT, "i1", cost=1.0, attr={"quality": {"q": 1.0}})
    net.add_node(NodeLayer.INPUT, "i2", cost=2.0, attr={"quality": {"q": 3.0}})
    net.add_node(NodeLayer.POOL, "l1")
    net.add_node(NodeLayer.OUTPUT, "j1", cost=10.0, attr={"quality_upper": {"q": 2.0}})
    net.add_node(
        NodeLayer.OUTPUT, "j2", capacity_upper=100.0, cost=10.0,
        attr={"quality_upper": {"q": 2.5}},
    )
    for source, destination in (("i1", "j1"), ("i1", "l1"), ("i2", "l1"), ("l1", "j2")):
        net.add_edge(source, destination)
    pq = build_pq(net.freeze())
    rm = install_restriction(pq, RestrictionSpec(tau=1))
    try:
        result = solve_mip(pq.model)
    finally:
        uninstall_restriction(rm)
    assert (result.status, result.incumbent, result.nodes) == ("no_feasible_found", None, 1)
    assert result.lower_bound == -math.inf
    assert initial_primal_search(pq) is None


def test_rounding_finds_restriction_incumbent():
    pq = build_pq(generate_instance(DESK_SPARSE_S1))
    rm = install_restriction(pq, RestrictionSpec(tau=2))
    try:
        result = solve_mip(pq.model, GapSpec(rel_tol=0.01, node_limit=20))
        assert result.incumbent is not None
        binaries = [v.id for v in pq.model.variables if v.domain is Domain.BINARY]
        assert binaries and all(result.incumbent[b] in (0.0, 1.0) for b in binaries)
        assert pq.model.is_feasible(result.incumbent, 1e-6)
        assert pq.model.objective_value(result.incumbent) == pytest.approx(result.objective)
        assert result.objective >= DESK_S1_TAU2_OPTIMUM - 1e-6
        restored = derive_fractional_flows(rm, result.incumbent)
    finally:
        uninstall_restriction(rm)
    assert pq.model.is_feasible(restored.values, 1e-6)


def test_warm_mip_nodes_match_cold_solves(warm_outcomes, monkeypatch, h1_pq, tiny_nets):
    checked = {"warm": 0, "infeasible": 0}

    def solve_warm_and_cold(arrays, overrides=None, start=None):
        attempts = len(warm_outcomes)
        res = simplex.solve_arrays(arrays, overrides, start=start)
        if start is not None:
            cold = simplex.solve_arrays(arrays, overrides)
            assert res.status is cold.status
            if cold.status is LPStatus.OPTIMAL:
                assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
                assert len(warm_outcomes) == attempts + 1 and warm_outcomes[-1] is not None
                checked["warm"] += 1
            else:
                checked["infeasible"] += 1
        return res

    monkeypatch.setattr(solve_module, "solve_arrays", solve_warm_and_cold)
    desk = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in (1, 2, 3)]
    pqs = [h1_pq] + [build_pq(net) for _, net in tiny_nets] + [
        build_pq(generate_instance(spec)) for spec in desk
    ]
    for pq in pqs:
        for tau in (1, 2):
            rm = install_restriction(pq, RestrictionSpec(tau=tau))
            try:
                solve_mip(pq.model, GapSpec(rel_tol=0.01, node_limit=20))
            finally:
                uninstall_restriction(rm)
    assert checked["warm"] >= 100 and checked["infeasible"] >= 1


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


def test_warm_bnb_nodes_match_cold_solves(warm_outcomes, monkeypatch, h1_pq, tiny_nets):
    checked = {"warm": 0, "children": 0, "infeasible": 0}
    rows = {}  # model -> [the rows of its first LP, the rows of its last LP]

    def solve_warm_and_cold(model, overrides=None, start=None):
        names = [name for name, con in model.constraints.items() if con.active]
        first_last = rows.setdefault(model, [names, names])
        first_last[1] = names
        attempts = len(warm_outcomes)
        res = simplex.solve_lp(model, overrides, start=start)
        if start is not None:
            cold = simplex.solve_lp(model, overrides)
            assert res.status is cold.status
            if cold.status is LPStatus.OPTIMAL:
                assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
                assert len(warm_outcomes) == attempts + 1 and warm_outcomes[-1] is not None
                checked["warm"] += 1
                checked["children"] += first_last[0] is names
            else:
                checked["infeasible"] += 1
        return res

    monkeypatch.setattr(solve_module, "solve_lp", solve_warm_and_cold)
    # no projected incumbent closes a tree early: the test is about warm starts
    monkeypatch.setattr(solve_module, "_try_incumbent", lambda pq, point, upper: None)
    desk = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in (1, 2, 3)]
    pqs = [h1_pq] + [build_pq(net) for _, net in tiny_nets] + [
        build_pq(generate_instance(spec)) for spec in desk
    ]
    for pq in pqs:
        rows.clear()
        options = SolveOptions(use_primal_heuristic=False)
        branch_and_cut(pq, GapSpec(rel_tol=1e-4, node_limit=10), options)
        # the first model is the root's clone; each later one is a node's,
        # and the relaxation is frozen after the root's cut rounds
        (_, root_last), *nodes = rows.values()
        assert all(first == last == root_last for first, last in nodes)
    assert checked["children"] >= 40 and checked["infeasible"] >= 1


def zero_flow_incumbent(monkeypatch, pq):
    """Start h1 from the zero-flow point (objective 0) and reject every
    projection, so every node bound below -400 stays below the incumbent."""
    values = {vid: 0.0 for vid in range(len(pq.model.variables))}
    values[pq.q[("i1", "l1")]] = 0.5
    values[pq.q[("i2", "l1")]] = 0.5
    solution = RestoredSolution(values, 0.0)
    monkeypatch.setattr(solve_module, "initial_primal_search", lambda pq, gap=None: solution)
    monkeypatch.setattr(solve_module, "_try_incumbent", lambda pq, point, upper: None)


def test_envelope_tight_node_with_rejected_projection_keeps_its_bound(monkeypatch, h1_pq):
    zero_flow_incumbent(monkeypatch, h1_pq)
    # every node reads as envelope-tight: the root, like any node, is
    # dropped at its bound (-500), since no incumbent meets that bound
    monkeypatch.setattr(solve_module, "_MC_FEAS_TOL", math.inf)
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions(use_pooling_cuts=False))
    assert (report.status, report.upper, report.nodes) == ("feasible", 0.0, 0)
    assert report.lower == pytest.approx(-500.0, abs=1e-6)


@pytest.mark.parametrize("splits, lower, nodes", [(0, -500.0, 0), (1, -400.0, 2)])
def test_node_with_nothing_to_split_keeps_its_bound(monkeypatch, h1_pq, splits, lower, nodes):
    zero_flow_incumbent(monkeypatch, h1_pq)
    # the root (splits=0) or both its children (splits=1) find no variable
    branch_variable = solve_module._branch_variable
    calls = []

    def split_first(*args):
        calls.append(args)
        return branch_variable(*args) if len(calls) <= splits else None

    monkeypatch.setattr(solve_module, "_branch_variable", split_first)
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions(use_pooling_cuts=False))
    assert (report.status, report.upper, report.nodes) == ("feasible", 0.0, nodes)
    assert report.lower == pytest.approx(lower, abs=1e-6)


def test_report_json_shape(h1_pq):
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions())
    doc = json.loads(report.to_json())
    assert set(doc) == {
        "status", "lower", "upper", "rel_gap", "nodes", "cuts", "wall_seconds",
        "heuristic_seconds", "root_cut_seconds", "fixed_q_lps", "incumbent_source",
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
    # node_limit=0: the heuristic incumbent exists even before any node is
    # explored, and the bound is h1's plain root bound.  node_limit=1: the
    # root's first child finds -400 without the heuristic, and its sibling
    # stays open at the root bound -500
    cases = ((0, True, -400.0, -500.0), (1, False, -400.0, -500.0))
    for node_limit, heuristic, upper, lower in cases:
        report = branch_and_cut(
            h1_pq,
            GapSpec(rel_tol=1e-6, node_limit=node_limit),
            SolveOptions(use_pooling_cuts=False, use_primal_heuristic=heuristic),
        )
        assert (report.status, report.nodes) == ("feasible", node_limit)
        assert report.upper == pytest.approx(upper, abs=1e-6)
        assert report.lower == pytest.approx(lower, abs=1e-6)


@pytest.mark.parametrize("time_limit", [None, 0.0])
def test_time_limit_caps_the_heuristic_and_the_cut_rounds(monkeypatch, time_limit):
    """A spent time limit leaves the heuristic's restriction MIP no node and
    the root cut loop no round; without one, both run."""
    mips = []
    solve_mip = solve_module.solve_mip

    def recording_solve_mip(model, gap=None):
        mips.append(solve_mip(model, gap))
        return mips[-1]

    monkeypatch.setattr(solve_module, "solve_mip", recording_solve_mip)
    pq = build_pq(generate_instance(DESK_SPARSE_S1))
    report = branch_and_cut(pq, GapSpec(rel_tol=1e-4, time_limit=time_limit, node_limit=0))
    assert len(mips) == 1
    if time_limit is None:
        assert report.cuts > 0 and mips[0].nodes > 0
    else:
        assert report.cuts == 0
        assert mips[0].nodes == 0
        assert report.nodes == 0


def test_spent_time_limit_starts_no_lp(monkeypatch):
    # the limit is spent before the root is popped: the heuristic's MIP gets
    # no node and the root no LP, so nothing bounds the problem
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simplex.solve_lp(*args, **kwargs)

    monkeypatch.setattr(solve_module, "solve_lp", counting)
    pq = build_pq(generate_instance(DESK_SPARSE_S1))
    report = branch_and_cut(pq, GapSpec(rel_tol=1e-4, time_limit=0.0))
    assert calls == []
    assert (report.status, report.lower, report.nodes) == ("unknown", -math.inf, 0)


def test_infeasible_node_holding_the_incumbent_proves_nothing(monkeypatch, h1_pq):
    # the heuristic finds the optimum -400; every node LP after the root whose
    # box holds that point is forced infeasible, so no node proves -400
    incumbent = initial_primal_search(h1_pq).values
    calls = []

    def infeasible_around_incumbent(model, overrides=None, start=None):
        calls.append(model)
        held = all(
            var.lower - 1e-9 <= incumbent[var.id] <= var.upper + 1e-9
            for var in model.variables
            if var.id in incumbent
        )
        if len(calls) > 1 and held:
            return simplex.LPResult(LPStatus.INFEASIBLE, math.inf, np.array([]), 0)
        return simplex.solve_lp(model, overrides, start=start)

    monkeypatch.setattr(solve_module, "solve_lp", infeasible_around_incumbent)
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions(use_pooling_cuts=False))
    assert len(calls) > 1
    assert report.status == "feasible"
    assert report.upper == pytest.approx(-400.0, abs=1e-6)
    assert report.lower == pytest.approx(-500.0, abs=1e-6)


def test_failed_node_lp_keeps_its_bound(monkeypatch, h1_pq):
    # the root LP solves; the first node LP raises, so that node is dropped
    # at the root bound it was queued with and no proof of -400 remains
    calls = []

    def fail_second(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise NumericalFailure("forced")
        return simplex.solve_lp(*args, **kwargs)

    monkeypatch.setattr(solve_module, "solve_lp", fail_second)
    report = branch_and_cut(h1_pq, GapSpec(rel_tol=1e-6), SolveOptions(use_pooling_cuts=False))
    assert (report.status, report.nodes) == ("feasible", 2)
    assert report.lower <= report.upper
    assert report.lower == pytest.approx(-500.0, abs=1e-6)
    assert report.upper == pytest.approx(-400.0, abs=1e-6)


@pytest.mark.parametrize("heuristic", [True, False])
@pytest.mark.parametrize("root_lp", ["raises", "infeasible"])
def test_root_that_proves_nothing_keeps_the_incumbent(monkeypatch, h1_pq, root_lp, heuristic):
    # the heuristic finds -400 through solve_arrays; every solve_lp, the
    # root's first, fails or calls the relaxation of a feasible model
    # infeasible, so only the incumbent survives
    def failing(*args, **kwargs):
        if root_lp == "raises":
            raise NumericalFailure("forced")
        return simplex.LPResult(LPStatus.INFEASIBLE, math.inf, np.array([]), 0)

    monkeypatch.setattr(solve_module, "solve_lp", failing)
    report = branch_and_cut(h1_pq, GapSpec(), SolveOptions(use_primal_heuristic=heuristic))
    assert report.nodes == 0
    if heuristic:
        assert (report.status, report.lower) == ("feasible", -math.inf)
        assert report.upper == pytest.approx(-400.0, abs=1e-6)
        assert report.incumbent is not None
    elif root_lp == "raises":
        assert (report.status, report.lower, report.upper) == ("unknown", -math.inf, math.inf)
    else:
        assert (report.status, report.lower) == ("infeasible", math.inf)


def test_failed_mip_child_keeps_the_incumbent(monkeypatch):
    # child c = 0 gives the incumbent -17, and child c = 1 raises, so it is
    # dropped at the root bound it was queued with
    m, z = knapsack()

    def fail_c1(arrays, overrides=None, start=None):
        if overrides == {z[2].id: (1.0, 1.0)}:
            raise NumericalFailure("forced")
        return simplex.solve_arrays(arrays, overrides, start=start)

    monkeypatch.setattr(solve_module, "solve_arrays", fail_c1)
    result = solve_mip(m)
    assert (result.status, result.objective, result.nodes) == ("feasible", -17.0, 3)
    assert result.incumbent is not None
    assert result.lower_bound == pytest.approx(-24.2)


def test_fixed_q_incumbents_are_feasible_and_never_beat_the_oracle(monkeypatch, grid_oracles):
    # without the heuristic every incumbent comes from a fixed-q LP
    found = []
    try_incumbent = solve_module._try_incumbent

    def recording(fixed_q, point, upper):
        result = try_incumbent(fixed_q, point, upper)
        if result is not None:
            found.append(result)
        return result

    monkeypatch.setattr(solve_module, "_try_incumbent", recording)
    nets = [haverly()] + [generate_instance(spec) for spec in ORACLE_TINY_SPECS]
    for net in nets:
        found.clear()
        report = branch_and_cut(
            build_pq(net), GapSpec(rel_tol=1e-6), SolveOptions(use_primal_heuristic=False)
        )
        assert report.incumbent_source == "fixed_q" and found, net.name
        # the 0.02-lattice holds an optimal q to criterion 1's relative 1e-4
        # (tiny s6 reads -763.0582 on it, against the optimum -763.1239)
        if (net.name, 0.02) not in grid_oracles:
            grid_oracles[net.name, 0.02] = grid_oracle(net, step=0.02)
        optimum = grid_oracles[net.name, 0.02].objective
        model = build_pq(net).model
        for values, value in found:
            assert model.is_feasible(values, 1e-6), net.name
            assert model.objective_value(values) == pytest.approx(value, abs=1e-9)
            assert value >= optimum - 1e-4 * max(1.0, abs(optimum)), net.name
            assert value >= report.lower - 1e-9 * max(1.0, abs(report.lower)), net.name


def test_fixed_q_never_does_worse_than_the_projection():
    # the projection keeps the point's flows and sets v = q*y, so wherever it
    # is feasible it is a point of the fixed-q LP at the same q
    compared = 0
    for seed in (1, 2, 3):
        pq = build_pq(generate_instance(GenSpec("sparse_haverly", 8, 3, 5, 2, 22, seed)))
        rm = relax(pq.model)
        cb = add_all_pooling_inequalities(rm, pq)
        points = [solve_lp(rm.lp)]
        while points[-1].status is LPStatus.OPTIMAL and add_valid_cuts(cb, rm, points[-1].x):
            points.append(solve_lp(rm.lp, start=points[-1]))
        for res in points:
            found = solve_module._try_incumbent(solve_module._FixedQ(pq, math.inf), res.x, math.inf)
            assert found is not None
            projection = fractional_flow_values(pq, res.x)
            if pq.model.is_feasible(projection, 1e-6):
                assert found[1] <= pq.model.objective_value(projection) + 1e-7
                compared += 1
    assert compared >= 1


def test_fixed_q_lp_matches_the_relaxation_with_q_fixed(h1_pq, tiny_nets):
    # with every q box a point, relax linearizes v = q*y exactly, so its LP
    # is the fixed-q LP in its own columns and rows
    desk = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in (1, 2, 3)]
    pqs = [h1_pq] + [build_pq(net) for _, net in tiny_nets] + [
        build_pq(generate_instance(spec)) for spec in desk
    ]
    for pq in pqs:
        point = solve_lp(relax(pq.model).lp).x
        found = solve_module._try_incumbent(solve_module._FixedQ(pq, math.inf), point, math.inf)
        assert found is not None
        fixed = pq.model.clone()
        for qid in pq.q.values():
            fixed.set_bounds(qid, found[0][qid], found[0][qid])
        reference = solve_lp(relax(fixed).lp)
        assert reference.status is LPStatus.OPTIMAL
        assert found[1] == pytest.approx(reference.objective, rel=1e-9, abs=1e-9)


def test_warm_fixed_q_lps_match_cold_solves(warm_outcomes, monkeypatch, h1_pq, tiny_nets):
    # without the heuristic, every solve_arrays call of branch & cut is a
    # fixed-q LP; a start comes from the LP at another q, with other
    # coefficients and boxes
    checked = {"warm": 0, "taken": 0}

    def solve_warm_and_cold(arrays, overrides=None, start=None):
        attempts = len(warm_outcomes)
        res = simplex.solve_arrays(arrays, overrides, start=start)
        if start is not None:
            cold = simplex.solve_arrays(arrays, overrides)
            assert res.status is cold.status
            if cold.status is LPStatus.OPTIMAL:
                assert res.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-12)
            checked["warm"] += 1
            checked["taken"] += len(warm_outcomes) > attempts and warm_outcomes[attempts] is not None
        return res

    monkeypatch.setattr(solve_module, "solve_arrays", solve_warm_and_cold)
    desk = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in (1, 2, 3)]
    pqs = [h1_pq] + [build_pq(net) for _, net in tiny_nets] + [
        build_pq(generate_instance(spec)) for spec in desk
    ]
    runs = [(pq, 10) for pq in pqs]
    # a start whose basis the new coefficients make nearly singular: only a
    # factor check over every column of the inverse catches it
    runs.append((build_pq(generate_instance(GenSpec("dense_rand", 5, 3, 4, 2, 25, 2))), 100))
    for pq, node_limit in runs:
        branch_and_cut(
            pq, GapSpec(rel_tol=1e-4, node_limit=node_limit), SolveOptions(use_primal_heuristic=False)
        )
    assert checked["warm"] >= 10 and checked["taken"] >= 1


@pytest.mark.parametrize("seed", [3, 10])
def test_tree_adds_cuts_only_at_the_root(seed):
    net = generate_instance(GenSpec("sparse_haverly", 8, 3, 5, 2, 22, seed))
    report = branch_and_cut(build_pq(net), GapSpec(rel_tol=1e-4, node_limit=5))
    pq = build_pq(net)
    rm = relax(pq.model)
    cb = add_all_pooling_inequalities(rm, pq)
    solve_module._cut_loop(rm, cb)
    assert report.nodes >= 1 and report.cuts == len(cb.cut_pool)


def test_desk_s1_closes_at_the_root():
    pq = build_pq(generate_instance(DESK_SPARSE_S1))
    report = branch_and_cut(pq, GapSpec(rel_tol=1e-4, node_limit=5))
    assert (report.status, report.nodes, report.incumbent_source) == ("optimal", 0, "fixed_q")
    assert report.fixed_q_lps >= 1
    assert pq.model.is_feasible(report.incumbent.values, 1e-6)


def test_passed_deadline_starts_no_fixed_q_lp(monkeypatch, h1_pq):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return simplex.solve_arrays(*args, **kwargs)

    monkeypatch.setattr(solve_module, "solve_arrays", counting)
    point = solve_lp(relax(h1_pq.model).lp).x
    fixed_q = solve_module._FixedQ(h1_pq, time.monotonic() - 1.0)
    assert solve_module._try_incumbent(fixed_q, point, math.inf) is None
    assert (calls, fixed_q.lps) == ([], 0)
    # with the deadline open the same call solves one LP, and a repeat none
    fixed_q.deadline = math.inf
    assert solve_module._try_incumbent(fixed_q, point, math.inf) is not None
    assert solve_module._try_incumbent(fixed_q, point, math.inf) is None
    assert (len(calls), fixed_q.lps) == (1, 1)
    report = branch_and_cut(h1_pq, GapSpec(time_limit=0.0), SolveOptions(use_primal_heuristic=False))
    assert (report.fixed_q_lps, report.incumbent_source) == (0, None)


def test_fixed_q_lps_share_one_array_set(monkeypatch, h1_pq):
    # the point stands for its own flow ratios here, so it is qbar
    monkeypatch.setattr(solve_module, "fractional_flow_values", lambda pq, point: point)
    fixed_q = solve_module._FixedQ(h1_pq, math.inf)
    base, k = fixed_q.base, len(h1_pq.v)
    m = base.b.size - k
    i1 = h1_pq.q[("i1", "l1")]
    shapes = []
    # q[i1,l1] at 0, then at no zero
    for low, high in ((0.0, 1.0), (0.25, 0.75)):
        qbar = {qid: low if qid == i1 else high for qid in fixed_q.q_ids}
        solve_module._try_incumbent(fixed_q, qbar, math.inf)
        shapes.append((base.rows.copy(), base.cols.copy(), base.b.copy(), list(base.senses)))
        # every path row keeps its v and its y entry, the y entry at -qbar
        assert np.array_equal(np.bincount(base.rows)[m:], [2] * k)
        assert base.senses[m:] == ["="] * k
        for (i, l, j), row in zip(h1_pq.v, base.A[m:]):
            expected = np.zeros(base.c.size)
            expected[h1_pq.v[(i, l, j)]] = 1.0
            expected[h1_pq.y_pool[(l, j)]] = -qbar[h1_pq.q[(i, l)]]
            assert np.array_equal(row, expected)
        assert np.array_equal(base.lo[fixed_q.q_ids], list(qbar.values()))
        assert np.array_equal(base.up[fixed_q.q_ids], list(qbar.values()))
    assert fixed_q.lps == 2
    assert all(np.array_equal(a, b) for a, b in zip(*shapes))


def test_side_bilinear_rows_get_no_fixed_q_lp(h1_pq):
    # fixing q linearizes only the path rows, so a model with another
    # bilinear row gets no fixed-q LP rather than a wrong one
    point = solve_lp(relax(h1_pq.model).lp).x
    assert solve_module._try_incumbent(solve_module._FixedQ(h1_pq, math.inf), point, math.inf)
    q0, y0 = h1_pq.q[("i1", "l1")], h1_pq.y_pool[("l1", "j1")]
    h1_pq.model.add_constraint(
        "user_row", LinearExpr(), Sense.LE, 5.0, bilinear=[BilinearTerm.of(1.0, q0, y0)]
    )
    fixed_q = solve_module._FixedQ(h1_pq, math.inf)
    assert fixed_q.base is None
    assert solve_module._try_incumbent(fixed_q, point, math.inf) is None
    assert fixed_q.lps == 0
