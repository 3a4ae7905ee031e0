import math

import numpy as np
import pytest

from poolblend import (
    Network,
    add_all_pooling_inequalities,
    add_valid_cuts,
    build_pq,
    generate_valid_cuts,
    relax,
    solve_lp,
)
from poolblend.errors import AlreadyInstalled, UnboundedOutputCapacity
from poolblend.simplex import LPStatus

from oracle import grid_oracle, point_to_model_values


def install_on_h1(h1_pq):
    work = h1_pq.model.clone()
    for name in h1_pq.groups["pq_cut"]:
        work.activate(name)
    rm = relax(work)
    cb = add_all_pooling_inequalities(rm, h1_pq)
    return rm, cb


def extend_with_cut_values(cb, values):
    """Compute the cut-block auxiliaries from their definitions at a point."""
    pq = cb.pq
    net = pq.network
    out = dict(values)
    for (l, j), s_id in cb.s.items():
        c = net.nodes[j].capacity_bounds()[1]
        s = sum(values[pq.v[(i, l, j)]] for i in net.inputs_to_pool(l))
        out[s_id] = s / c
    for key, u_id in cb.u.items():
        l, j, k = key
        c = net.nodes[j].capacity_bounds()[1]
        pu = net.nodes[j].quality_upper[k]
        feeders = net.inputs_to_pool(l)
        bypass = net.inputs_to_output(j)
        others = [ll for ll in net.pools_to_output(j) if ll != l]
        exc = lambda i: pu - net.nodes[i].quality.get(k, 0.0)
        out[u_id] = sum(exc(i) * values[pq.v[(i, l, j)]] for i in feeders) / c
        t = sum(exc(i) * values[pq.y_bypass[(i, j)]] for i in bypass)
        t += sum(
            exc(i) * values[pq.v[(i, ll, j)]] for ll in others for i in net.inputs_to_pool(ll)
        )
        out[cb.t[key]] = t / c
        p = sum(exc(i) * values[pq.q[(i, l)]] for i in feeders)
        out[cb.p[key]] = p
    return out


def test_h1_triplet_parameters(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    par = cb.params[("l1", "j2", "sulfur")]
    assert par.eta_lo == pytest.approx(-1.5)
    assert par.eta_hi == pytest.approx(0.5)
    assert par.beta_lo == pytest.approx(-0.5)
    assert par.beta_hi == pytest.approx(-0.5)
    assert (par.p_lo, par.p_hi) == (par.eta_lo, par.eta_hi)
    par1 = cb.params[("l1", "j1", "sulfur")]
    assert par1.eta_lo == pytest.approx(-0.5)
    assert par1.eta_hi == pytest.approx(1.5)
    assert par1.beta_hi == pytest.approx(0.5)


def test_static_rows_follow_beta_signs(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    # j2: beta_hi = -0.5 (not > 0) -> no ineq22; beta_lo < 0 -> ineq28
    assert "ineq22[l1,j2,sulfur]" not in rm.lp.constraints
    assert "ineq28[l1,j2,sulfur]" in rm.lp.constraints
    # j1: beta_hi = 0.5 > 0 -> ineq22; beta_lo = 0.5 (not < 0) -> no ineq28
    assert "ineq22[l1,j1,sulfur]" in rm.lp.constraints
    assert "ineq28[l1,j1,sulfur]" not in rm.lp.constraints


def test_no_bypass_means_no_static_rows():
    net = Network("nobypass")
    net.add_node(0, "i1", cost=5.0, attr={"quality": {"k": 1.0}})
    net.add_node(0, "i2", cost=8.0, attr={"quality": {"k": 3.0}})
    net.add_node(1, "l1")
    net.add_node(2, "j1", capacity_upper=50.0, cost=10.0,
                 attr={"quality_upper": {"k": 2.0}})
    for e in (("i1", "l1"), ("i2", "l1"), ("l1", "j1")):
        net.add_edge(*e)
    pq = build_pq(net.freeze())
    rm = relax(pq.model.clone())
    cb = add_all_pooling_inequalities(rm, pq)
    par = cb.params[("l1", "j1", "k")]
    assert par.beta_lo is None and par.beta_hi is None
    assert not cb.static_rows
    # defining equalities and the envelope still exist
    assert "def_cut_p[l1,j1,k]" in rm.lp.constraints
    assert "cut_env1[l1,j1,k]" in rm.lp.constraints


def test_second_install_errors(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    with pytest.raises(AlreadyInstalled):
        add_all_pooling_inequalities(rm, h1_pq)


def test_unbounded_output_capacity_errors(h1):
    net = Network("unb")
    for node in h1.nodes.values():
        attr = dict(node.attr)
        cap = None if node.name == "j1" else node.capacity_upper
        net.add_node(node.layer, node.name, node.capacity_lower, cap, node.cost, attr)
    for edge in h1.edges.values():
        # cap every edge so the relaxation itself stays well posed
        net.add_edge(edge.source, edge.destination, capacity_upper=100.0)
    pq = build_pq(net.freeze())
    rm = relax(pq.model.clone())
    with pytest.raises(UnboundedOutputCapacity, match="j1"):
        add_all_pooling_inequalities(rm, pq)


def test_h1_cut_loop_raises_root_bound(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    res = solve_lp(rm.lp)
    assert res.status is LPStatus.OPTIMAL
    first = res.objective
    bounds = [first]
    for _ in range(10):
        added = add_valid_cuts(cb, rm, res.x)
        if added == 0:
            break
        res = solve_lp(rm.lp)
        bounds.append(res.objective)
    assert len(bounds) > 1, "expected at least one violated nonlinear inequality"
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
    assert bounds[-1] > first + 1.0
    assert bounds[-1] == pytest.approx(-400.0, abs=1e-6)


def test_cut_dedup_on_same_point(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    res = solve_lp(rm.lp)
    first = add_valid_cuts(cb, rm, res.x)
    assert first > 0
    again = add_valid_cuts(cb, rm, res.x)
    assert again == 0
    assert len(cb.cut_pool) == first


def test_infinite_eps_generates_nothing(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    res = solve_lp(rm.lp)
    assert generate_valid_cuts(cb, res.x, eps=math.inf) == []


def test_generated_cut_violation_at_point(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    res = solve_lp(rm.lp)
    cuts = generate_valid_cuts(cb, res.x, eps=1e-5)
    assert cuts
    for cut in cuts:
        lhs = cut.expr.value(res.x)
        assert lhs - cut.rhs == pytest.approx(cut.violation, rel=1e-9)
        assert cut.violation >= 1e-5


def test_zero_t_skips_fractional_family(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    # handcrafted point: t = 0 on the j2 triplet which meets the sign conditions
    point = {vid: 0.0 for vid in range(len(rm.lp.variables))}
    point[cb.s[("l1", "j2")]] = 0.8
    point[cb.u[("l1", "j2", "sulfur")]] = 0.4
    point[cb.p[("l1", "j2", "sulfur")]] = -1.0
    point[cb.t[("l1", "j2", "sulfur")]] = 0.0
    for cut in generate_valid_cuts(cb, point, eps=1e-9):
        assert not cut.name_hint.startswith("cut18[l1,j2")


def test_cut_loop_terminates_and_pool_dump(h1_pq):
    rm, cb = install_on_h1(h1_pq)
    res = solve_lp(rm.lp)
    for _ in range(10):
        if add_valid_cuts(cb, rm, res.x) == 0:
            break
        res = solve_lp(rm.lp)
    else:
        pytest.fail("cut loop did not settle in 10 rounds")
    dump = cb.dump_cut_pool()
    assert dump.count("\n") == len(cb.cut_pool)
    assert all(line.split(":")[0].startswith("cut1") for line in dump.splitlines())


def _validity_harness(net, pq, n_points, step=0.02):
    """Oracle-feasible points must satisfy every installed row and cut."""
    work = pq.model.clone()
    for name in pq.groups["pq_cut"]:
        work.activate(name)
    rm = relax(work)
    cb = add_all_pooling_inequalities(rm, pq)
    res = solve_lp(rm.lp)
    for _ in range(10):
        if res.status is not LPStatus.OPTIMAL or add_valid_cuts(cb, rm, res.x) == 0:
            break
        res = solve_lp(rm.lp)
    oracle = grid_oracle(net, step=step, collect_points=n_points,
                         rng=np.random.default_rng(5), extra_objectives=2)
    assert oracle.points, "oracle produced no feasible points"
    rows = cb.defining_rows + cb.envelope_rows + cb.static_rows + list(cb.cut_pool)
    worst = 0.0
    for opoint in oracle.points:
        values = point_to_model_values(pq, opoint)
        extended = extend_with_cut_values(cb, values)
        for name in rows:
            worst = max(worst, rm.lp.residual(extended, name))
    return worst, len(oracle.points), len(cb.cut_pool)


def test_validity_on_h1(h1):
    pq = build_pq(h1)
    worst, n_points, n_cuts = _validity_harness(h1, pq, n_points=400)
    assert n_cuts >= 1
    assert worst <= 1e-7, f"worst residual {worst} over {n_points} points"


def test_validity_on_tiny_instances(tiny_nets):
    for spec, net in tiny_nets[:3]:
        pq = build_pq(net)
        worst, n_points, _ = _validity_harness(net, pq, n_points=300, step=0.1)
        assert worst <= 1e-7, f"{spec.instance_name()}: worst {worst} over {n_points}"
