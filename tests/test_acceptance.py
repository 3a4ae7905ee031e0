"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The global-optimality and cut-validity criteria compare against the
grid-over-q oracle in tests/oracle.py, which rebuilds the feasible set from
the raw network and solves per-grid-point LPs with scipy's HiGHS, fully
independent of the package's model, relaxation and simplex code.
"""

import math
import time

import numpy as np
import pytest

from poolblend import (
    GapSpec,
    GenSpec,
    RestrictionSpec,
    SolveOptions,
    add_all_pooling_inequalities,
    add_valid_cuts,
    branch_and_cut,
    build_pq,
    generate_instance,
    generate_valid_cuts,
    initial_primal_search,
    install_restriction,
    performance_profile,
    rebuild,
    relative_gap,
    relax,
    shifted_geomean,
    solve_lp,
    uninstall_restriction,
)
from poolblend.bench import RunRecord
from poolblend.instances import haverly
from poolblend.network import Network
from poolblend.simplex import LPStatus

from oracle import grid_oracle, point_to_model_values
from test_cuts import extend_with_cut_values

# tiny instances whose 0.02-lattice holds an optimal q to criterion 1's
# relative 1e-4, not exactly: on 3x1x2 s6 the grid reads -763.0582 against
# the optimum -763.1239
ORACLE_TINY_SPECS = [
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 1),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 2),
    GenSpec("sparse_haverly", 4, 1, 3, 2, 9, 3),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 4),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 6),
    GenSpec("sparse_haverly", 4, 1, 3, 2, 9, 6),
    GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 8),
    GenSpec("sparse_haverly", 4, 1, 3, 2, 9, 8),
    GenSpec("sparse_haverly", 4, 2, 3, 1, 12, 10),
    GenSpec("sparse_haverly", 4, 2, 3, 2, 12, 10),
]

DESK_SPARSE = [GenSpec("sparse_haverly", 8, 3, 5, 2, 22, s) for s in range(1, 11)]
DESK_DENSE = [GenSpec("dense_rand", 5, 3, 4, 2, 25, s) for s in range(1, 11)]

DESK_GAP = GapSpec(rel_tol=1e-4, abs_tol=1e-8, time_limit=10.0)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def cut_strengthened_root(pq):
    """(plain envelope bound, bound after pooling rows + root cut loop)."""
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
    return plain.objective, res.objective, rm, cb, res


@pytest.fixture(scope="module")
def desk_batch():
    nets = [(spec, generate_instance(spec)) for spec in DESK_SPARSE + DESK_DENSE]
    out = []
    for spec, net in nets:
        pq = build_pq(net)
        plain, strengthened, _, _, _ = cut_strengthened_root(pq)
        heuristic = initial_primal_search(build_pq(net))
        solve_report = branch_and_cut(build_pq(net), DESK_GAP, SolveOptions())
        out.append(
            {
                "spec": spec,
                "net": net,
                "plain_root": plain,
                "cuts_root": strengthened,
                "heuristic": heuristic,
                "report": solve_report,
            }
        )
    return out


def test_criterion_1_global_optimality_vs_oracle(grid_oracles):
    # the oracles are computed here, inside the timed region, and only stored
    # for later tests
    t0 = time.monotonic()
    failures = []

    h1 = haverly()
    rep = branch_and_cut(build_pq(h1), GapSpec(rel_tol=1e-6), SolveOptions())
    oracle = grid_oracle(h1, step=0.02)
    grid_oracles[h1.name, 0.02] = oracle
    assert oracle.objective == pytest.approx(-400.0, abs=1e-9)
    if rep.status != "optimal" or relative_gap(rep.upper, oracle.objective) > 1e-4:
        failures.append(("h1", rep.upper, oracle.objective))

    for spec in ORACLE_TINY_SPECS:
        net = generate_instance(spec)
        rep = branch_and_cut(build_pq(net), GapSpec(rel_tol=1e-6), SolveOptions())
        oracle = grid_oracle(net, step=0.02)
        grid_oracles[net.name, 0.02] = oracle
        gap = relative_gap(rep.upper, oracle.objective)
        if rep.status != "optimal" or (gap > 1e-4 and abs(rep.upper - oracle.objective) > 1e-7):
            failures.append((spec.instance_name(), rep.upper, oracle.objective))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed <= 60.0
    report(1, ok, f"h1 and 10 tiny instances match the 0.02-grid oracle "
                  f"within rel gap 1e-4 in {elapsed:.1f}s (budget 60s)")
    assert not failures, failures
    assert elapsed <= 60.0


def test_criterion_2_cut_validity_at_oracle_points():
    instances = [("h1", haverly())] + [
        (spec.instance_name(), generate_instance(spec))
        for spec in (
            GenSpec("sparse_haverly", 3, 1, 2, 1, 8, 2),
            GenSpec("sparse_haverly", 4, 2, 3, 2, 12, 10),
        )
    ]
    total_points = 0
    total_cuts = 0
    worst = 0.0
    worst_where = None
    for name, net in instances:
        pq = build_pq(net)
        _, _, rm, cb, _ = cut_strengthened_root(pq)
        # beyond the cut-loop cuts, stress the generators at random box points
        rng = np.random.default_rng(23)
        extra_cuts = []
        for _ in range(300):
            point = np.array(
                [rng.uniform(v.lower, v.upper) if math.isfinite(v.lower) and math.isfinite(v.upper)
                 else 0.0 for v in rm.lp.variables]
            )
            extra_cuts.extend(generate_valid_cuts(cb, point, eps=1e-5))
            if len(extra_cuts) >= 60:
                break
        rows = cb.defining_rows + cb.envelope_rows + cb.static_rows + list(cb.cut_pool)
        total_cuts += len(cb.cut_pool) + len(extra_cuts)
        oracle = grid_oracle(
            net, step=0.02, collect_points=10**9,
            rng=np.random.default_rng(17), extra_objectives=1,
        )
        for opoint in oracle.points:
            values = point_to_model_values(pq, opoint)
            extended = extend_with_cut_values(cb, values)
            for row in rows:
                res = rm.lp.residual(extended, row)
                if res > worst:
                    worst, worst_where = res, (name, row)
            for cut in extra_cuts:
                res = max(0.0, cut.expr.value(extended) - cut.rhs)
                if res > worst:
                    worst, worst_where = res, (name, cut.name_hint)
        total_points += len(oracle.points)
    ok = total_points >= 5000 and worst <= 1e-7
    report(2, ok, f"{total_points} oracle-feasible points satisfy every defining "
                  f"equality, static inequality and gradient cut ({total_cuts} cuts); "
                  f"worst residual {worst:.2e} at {worst_where}")
    assert total_points >= 5000
    assert worst <= 1e-7, worst_where


def test_criterion_3_bound_dominance(desk_batch):
    violations = []
    strict_sparse = 0
    n_sparse = 0
    for cell in desk_batch:
        plain, cuts = cell["plain_root"], cell["cuts_root"]
        scale = max(1.0, abs(plain))
        if cuts < plain - 1e-7 * scale:
            violations.append((cell["spec"].instance_name(), plain, cuts))
        if cell["spec"].family == "sparse_haverly":
            n_sparse += 1
            if cuts > plain + 1e-6 * scale:
                strict_sparse += 1
    frac = strict_sparse / n_sparse
    ok = not violations and frac >= 0.3
    report(3, ok, f"strengthened root >= plain root on all {len(desk_batch)} instances; "
                  f"strictly greater on {strict_sparse}/{n_sparse} sparse ({100*frac:.0f}%)")
    assert not violations, violations
    assert frac >= 0.3


def test_criterion_4_restriction_heuristic_soundness(desk_batch):
    successes = 0
    problems = []
    for cell in desk_batch:
        solution = cell["heuristic"]
        if solution is None:
            continue
        successes += 1
        pq = build_pq(cell["net"])
        feas = pq.model.is_feasible(solution.values, 1e-6)
        if not feas:
            problems.append((cell["spec"].instance_name(), "infeasible", feas.worst_residual))
        lower = cell["report"].lower
        if solution.objective < lower - 1e-6 * max(1.0, abs(lower)):
            problems.append((cell["spec"].instance_name(), "below lower bound",
                             (solution.objective, lower)))
    rate = successes / len(desk_batch)
    ok = rate >= 0.9 and not problems
    report(4, ok, f"heuristic succeeded on {successes}/{len(desk_batch)} desk instances "
                  f"({100*rate:.0f}%); every solution feasible at 1e-6 and above the "
                  f"final lower bound")
    assert rate >= 0.9
    assert not problems, problems


def test_criterion_5_formula_reproduction():
    checks = []
    checks.append(relative_gap(-400.0, -400.0) == 0.0)
    checks.append(abs(relative_gap(100.0, 99.0) - 0.01) <= 1e-12)
    checks.append(relative_gap(-math.inf, -400.0) == math.inf)
    checks.append(relative_gap(5.0, 5.0) == 0.0)

    checks.append(abs(shifted_geomean([0.9, 1.9], 0.1) - (math.sqrt(2.0) - 0.1)) <= 1e-12)
    checks.append(abs(shifted_geomean([7.0], 0.3) - 7.0) <= 1e-12)
    checks.append(abs(shifted_geomean([2.5, 2.5, 2.5], 0.1) - 2.5) <= 1e-12)

    def rec(p, s, t):
        return RunRecord(p, s, "optimal", t, -1.0, -1.0, 0.0)

    series = performance_profile([rec("p1", "fast", 2.0), rec("p1", "slow", 4.0)])
    fast = {pt.tau: pt.rho for pt in series["fast"]}
    slow = {pt.tau: pt.rho for pt in series["slow"]}
    checks.append(fast[1.0] == 1.0 and slow[1.0] == 0.0 and slow[2.0] == 1.0)

    times = {("p1", "a"): 1.0, ("p1", "b"): 3.0, ("p2", "a"): 4.0,
             ("p2", "b"): 2.0, ("p3", "a"): 5.0, ("p3", "b"): 5.0}
    series = performance_profile([rec(p, s, t) for (p, s), t in times.items()])
    exact = True
    for config in ("a", "b"):
        for pt in series[config]:
            count = sum(
                1 for p in ("p1", "p2", "p3")
                if times[(p, config)] / min(times[(p, "a")], times[(p, "b")]) <= pt.tau
            )
            exact = exact and pt.rho == count / 3
    checks.append(exact)

    ok = all(checks)
    report(5, ok, "relative gap, shifted geometric mean and performance profile "
                  "reproduce the hand examples exactly")
    assert all(checks)


def test_criterion_6_mccormick_envelope_suite():
    from poolblend import BilinearTerm, LinearExpr, Model, Sense

    worst = 0.0
    boxes = [(-2.0, 2.0, -3.0, 1.0), (0.0, 1.0, 0.0, 10.0), (-4.0, -0.5, 1.5, 6.0)]
    for xl, xu, yl, yu in boxes:
        m = Model("box")
        x = m.add_variable("x", xl, xu)
        y = m.add_variable("y", yl, yu)
        m.add_constraint("prod", LinearExpr(), Sense.EQ, 0.0,
                         bilinear=[BilinearTerm.of(1.0, x.id, y.id)])
        rm = relax(m)
        entry = rm.envelopes[(0, 1)]
        rng = np.random.default_rng(31)
        xs = np.concatenate([rng.uniform(xl, xu, 10_000), [xl, xl, xu, xu]])
        ys = np.concatenate([rng.uniform(yl, yu, 10_000), [yl, yu, yl, yu]])
        for row in entry.row_names:
            con = rm.lp.constraints[row]
            terms = con.linear.terms
            lhs = (terms.get(entry.aux_id, 0.0) * xs * ys
                   + terms.get(entry.x_id, 0.0) * xs
                   + terms.get(entry.y_id, 0.0) * ys)
            res = lhs - con.rhs if con.sense is Sense.LE else con.rhs - lhs
            worst = max(worst, float(np.max(res)))
        # corner exactness: all four planes tight at each corner
        for cx in (xl, xu):
            for cy in (yl, yu):
                allowed_lo, allowed_hi = -math.inf, math.inf
                for row in entry.row_names:
                    con = rm.lp.constraints[row]
                    coeff = con.linear.terms[entry.aux_id]
                    rest = sum(
                        c * (cx if vid == entry.x_id else cy)
                        for vid, c in con.linear.terms.items()
                        if vid != entry.aux_id
                    )
                    bound = (con.rhs - rest) / coeff
                    if con.sense is Sense.GE:
                        allowed_lo = max(allowed_lo, bound)
                    else:
                        allowed_hi = min(allowed_hi, bound)
                worst = max(worst, abs(allowed_lo - cx * cy), abs(allowed_hi - cx * cy))
    ok = worst <= 1e-9
    report(6, ok, f"corner exactness and 10^4-sample containment on {len(boxes)} boxes "
                  f"(reference box included); worst residual {worst:.2e}")
    assert worst <= 1e-9


def test_criterion_7_structural_round_trips():
    checks = []
    h1 = haverly()
    checks.append(Network.from_json(h1.to_json()).to_json() == h1.to_json())
    for spec in (DESK_SPARSE[0], DESK_DENSE[0]):
        net = generate_instance(spec)
        checks.append(Network.from_json(net.to_json()).to_json() == net.to_json())

    pq = build_pq(h1)
    before = pq.model.dump()
    names = [v.name for v in pq.model.variables]
    rm = install_restriction(pq, RestrictionSpec(tau=2))
    uninstall_restriction(rm)
    checks.append(pq.model.dump() == before)
    checks.append([v.name for v in pq.model.variables] == names)

    checks.append(rebuild(pq).model.dump() == before)

    ok = all(checks)
    report(7, ok, "network JSON round-trip, restriction install/uninstall and "
                  "rebuild are exact structural identities")
    assert all(checks)
