import math

import pytest

from poolblend import (
    BilinearTerm,
    GapSpec,
    LinearExpr,
    Sense,
    RestrictionSpec,
    derive_fractional_flows,
    install_restriction,
    solve_mip,
    uninstall_restriction,
)
from poolblend.errors import (
    AlreadyRestricted,
    InfeasibleInput,
    InvalidWeights,
    NonLinearSideConstraints,
)


def test_install_tau2_doubles_pools(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=2))
    # each of the 4 path flows splits into 2 copies; one binary per copy/output
    assert len(rm.w) == 8
    assert len(rm.zeta) == 4
    assert "flow_choice[l1,1]" in h1_pq.model.constraints
    assert "flow_choice[l1,2]" in h1_pq.model.constraints
    for name in h1_pq.groups["path_definition"]:
        assert not h1_pq.model.constraints[name].active


def test_tau1_collapse(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    row = h1_pq.model.constraints["flow_balance[i1,l1,j1]"]
    assert row.linear.terms == {
        h1_pq.v[("i1", "l1", "j1")]: 1.0,
        rm.w[("i1", "l1", 1, "j1")]: -1.0,
    }
    assert row.sense.value == "=="


def test_bad_weights_rejected(h1_pq):
    for gamma in (
        {("l1", 1): 0.5, ("l1", 2): 0.4},  # sums to 0.9
        # a NaN sum is never more than the tolerance away from 1
        {("l1", 1): math.nan, ("l1", 2): 0.5},
    ):
        with pytest.raises(InvalidWeights):
            install_restriction(h1_pq, RestrictionSpec(tau=2, gamma=gamma))
        # failed install leaves the model untouched
        for name in h1_pq.groups["path_definition"]:
            assert h1_pq.model.constraints[name].active


def test_install_uninstall_round_trip(h1_pq):
    before_dump = h1_pq.model.dump()
    before_vars = [v.name for v in h1_pq.model.variables]
    rm = install_restriction(h1_pq, RestrictionSpec(tau=2))
    assert h1_pq.model.dump() != before_dump
    uninstall_restriction(rm)
    assert h1_pq.model.dump() == before_dump
    assert [v.name for v in h1_pq.model.variables] == before_vars


def test_uninstall_twice_is_noop(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    first = uninstall_restriction(rm)
    second = uninstall_restriction(rm)
    assert first is second is h1_pq


def test_reinstall_after_uninstall(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=3))
    with pytest.raises(AlreadyRestricted):
        install_restriction(h1_pq, RestrictionSpec(tau=1))
    uninstall_restriction(rm)
    before = h1_pq.model.dump()
    rm2 = install_restriction(h1_pq, RestrictionSpec(tau=1))
    assert len(rm2.w) == 4
    uninstall_restriction(rm2)
    assert h1_pq.model.dump() == before


def test_derive_h1_single_feed(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    result = solve_mip(h1_pq.model, GapSpec(rel_tol=1e-9, abs_tol=1e-9))
    assert result.incumbent is not None
    solution = derive_fractional_flows(rm, result.incumbent)
    # optimum routes 100 of pure i2 through the pool
    assert solution.objective == pytest.approx(-400.0, abs=1e-6)
    assert solution.values[h1_pq.q[("i2", "l1")]] == pytest.approx(1.0)
    assert solution.values[h1_pq.q[("i1", "l1")]] == pytest.approx(0.0)
    uninstall_restriction(rm)
    report = h1_pq.model.is_feasible(solution.values, 1e-6)
    assert report, report


def test_derive_zero_flow_uniform(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    zero = {vid: 0.0 for vid in range(len(h1_pq.model.variables))}
    # a zeta choice per pool keeps flow_choice satisfied
    zero[rm.zeta[("l1", 1, "j1")]] = 1.0
    zero[h1_pq.q[("i1", "l1")]] = 0.5
    zero[h1_pq.q[("i2", "l1")]] = 0.5
    solution = derive_fractional_flows(rm, zero)
    assert solution.values[h1_pq.q[("i1", "l1")]] == pytest.approx(0.5)
    assert solution.values[h1_pq.q[("i2", "l1")]] == pytest.approx(0.5)
    assert solution.objective == 0.0


def test_derive_ratio_independent_across_outputs(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=2))
    result = solve_mip(h1_pq.model, GapSpec(rel_tol=1e-9, abs_tol=1e-9))
    assert result.incumbent is not None
    solution = derive_fractional_flows(rm, result.incumbent)
    values = solution.values
    for (l, j), yid in h1_pq.y_pool.items():
        y = values[yid]
        if y <= 1e-9:
            continue
        for (i, ll, jj), vid in h1_pq.v.items():
            if ll == l and jj == j:
                assert values[vid] / y == pytest.approx(values[h1_pq.q[(i, l)]], abs=1e-9)
    uninstall_restriction(rm)
    assert h1_pq.model.is_feasible(values, 1e-6)


def test_derive_rejects_garbage(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    bad = {vid: 123.0 for vid in range(len(h1_pq.model.variables))}
    with pytest.raises(InfeasibleInput):
        derive_fractional_flows(rm, bad)


def test_restriction_upper_bounds_h1_optimum(h1_pq):
    # tau=1 restricts each pool to one output; h1's optimum happens to comply
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    result = solve_mip(h1_pq.model, GapSpec(rel_tol=1e-9, abs_tol=1e-9))
    assert result.objective >= -400.0 - 1e-6
    assert result.objective == pytest.approx(-400.0, abs=1e-6)


def _columns(model):
    return [(v.id, v.name, v.lower, v.upper, v.domain) for v in model.variables]


def test_restriction_never_writes_the_built_model(h1_pq):
    base = h1_pq.model
    dump, columns = base.dump(), _columns(base)
    rm = install_restriction(h1_pq, RestrictionSpec(tau=2))
    assert h1_pq.model is rm.model and rm.base is base and rm.model is not base
    result = solve_mip(h1_pq.model, GapSpec(rel_tol=1e-9, abs_tol=1e-9))
    solution = derive_fractional_flows(rm, result.incumbent)
    assert (base.dump(), _columns(base)) == (dump, columns)
    uninstall_restriction(rm)
    assert h1_pq.model is base
    assert (base.dump(), _columns(base)) == (dump, columns)
    assert base.is_feasible(solution.values, 1e-6)


def test_derive_after_uninstall_still_checks_the_solution(h1_pq):
    rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
    result = solve_mip(h1_pq.model, GapSpec(rel_tol=1e-9, abs_tol=1e-9))
    bad = {vid: 123.0 for vid in range(len(h1_pq.model.variables))}
    uninstall_restriction(rm)
    with pytest.raises(InfeasibleInput, match="solution violates"):
        derive_fractional_flows(rm, bad)
    assert derive_fractional_flows(rm, result.incumbent).objective == pytest.approx(-400.0)


def test_bilinear_objective_is_refused_not_dropped(h1_pq):
    # the restriction drops only the path and pq_cut rows; a bilinear
    # objective term has no linear form, so the MIP is never solved without it
    q0, y0 = h1_pq.q[("i1", "l1")], h1_pq.y_pool[("l1", "j1")]
    h1_pq.model.objective_bilinear.append(BilinearTerm.of(-1.0, q0, y0))
    base = h1_pq.model
    with pytest.raises(NonLinearSideConstraints):
        rm = install_restriction(h1_pq, RestrictionSpec(tau=1))
        try:
            solve_mip(h1_pq.model, GapSpec())
        finally:
            uninstall_restriction(rm)
    assert h1_pq.model is base and getattr(h1_pq, "_restriction", None) is None


def test_side_bilinear_row_is_refused_by_the_install(h1_pq):
    q0, y0 = h1_pq.q[("i1", "l1")], h1_pq.y_pool[("l1", "j1")]
    h1_pq.model.add_constraint(
        "user_row", LinearExpr(), Sense.LE, 5.0, bilinear=[BilinearTerm.of(1.0, q0, y0)]
    )
    base = h1_pq.model
    with pytest.raises(NonLinearSideConstraints, match="user_row"):
        install_restriction(h1_pq, RestrictionSpec(tau=2))
    assert h1_pq.model is base and getattr(h1_pq, "_restriction", None) is None
    # switched off, the row no longer stands in the way
    h1_pq.model.deactivate("user_row")
    uninstall_restriction(install_restriction(h1_pq, RestrictionSpec(tau=2)))
