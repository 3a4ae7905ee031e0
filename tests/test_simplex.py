import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog

from poolblend import LinearExpr, Model, Sense, build_pq, relax, solve_lp
import poolblend.simplex as simplex
from poolblend.simplex import LPArrays, LPStatus, solve_arrays


def test_single_variable_maximization():
    m = Model("t")
    x = m.add_variable("x", 0.0, 1.0)
    m.objective = LinearExpr({x.id: -1.0})
    res = solve_lp(m)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(-1.0)
    assert res.x[0] == pytest.approx(1.0)


def test_infeasible_pair():
    m = Model("t")
    x = m.add_variable("x", -10.0, 10.0)
    m.add_constraint("le", LinearExpr({x.id: 1.0}), Sense.LE, 0.0)
    m.add_constraint("ge", LinearExpr({x.id: 1.0}), Sense.GE, 1.0)
    assert solve_lp(m).status is LPStatus.INFEASIBLE


def test_unbounded_direction():
    m = Model("t")
    x = m.add_variable("x", 0.0, math.inf)
    m.objective = LinearExpr({x.id: -1.0})
    assert solve_lp(m).status is LPStatus.UNBOUNDED


def test_equality_rows_and_negative_bounds():
    m = Model("t")
    x = m.add_variable("x", -5.0, 5.0)
    y = m.add_variable("y", -5.0, 5.0)
    m.add_constraint("eq", LinearExpr({x.id: 1.0, y.id: 1.0}), Sense.EQ, 1.0)
    m.objective = LinearExpr({x.id: 1.0, y.id: 2.0})
    res = solve_lp(m)
    assert res.status is LPStatus.OPTIMAL
    # push x up, y down: x=5, y=-4
    assert res.objective == pytest.approx(-3.0)


def test_h1_root_bound_below_optimum(h1):
    pq = build_pq(h1)
    res = solve_lp(relax(pq.model).lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective <= -400.0


def test_deterministic_repeat(h1):
    pq = build_pq(h1)
    lp = relax(pq.model).lp
    a = solve_lp(lp)
    b = solve_lp(lp)
    assert a.objective == b.objective
    assert np.array_equal(a.x, b.x)
    assert a.iterations == b.iterations


def _random_lp(rng, n, m):
    model = Model("rand")
    lo = rng.uniform(-2.0, 0.0, size=n)
    hi = lo + rng.uniform(0.5, 3.0, size=n)
    for k in range(n):
        model.add_variable(f"x{k}", float(lo[k]), float(hi[k]))
    model.objective = LinearExpr({k: float(c) for k, c in enumerate(rng.normal(size=n))})
    senses = [Sense.LE, Sense.GE, Sense.EQ]
    mid = (lo + hi) / 2.0
    for r in range(m):
        coeffs = rng.normal(size=n)
        coeffs[rng.random(size=n) < 0.4] = 0.0
        sense = senses[int(rng.integers(3))]
        # anchor the rhs near an interior point so many rows stay feasible
        anchor = float(coeffs @ mid)
        rhs = anchor + float(rng.normal() * 0.5)
        model.add_constraint(f"r{r}", LinearExpr({k: float(c) for k, c in enumerate(coeffs) if c}), sense, rhs)
    return model


def _scipy_solve(model):
    return _highs(LPArrays.from_model(model))


def _highs(arrays):
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, sense, rhs in zip(arrays.A, arrays.senses, arrays.b):
        if sense == "<":
            A_ub.append(row)
            b_ub.append(rhs)
        elif sense == ">":
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    bounds = [
        (None if not math.isfinite(l) else l, None if not math.isfinite(u) else u)
        for l, u in zip(arrays.lo, arrays.up)
    ]
    return linprog(
        arrays.c,
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )


def test_random_lps_match_scipy_oracle():
    rng = np.random.default_rng(2024)
    optima = 0
    for trial in range(60):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 7))
        model = _random_lp(rng, n, m)
        mine = solve_lp(model)
        ref = _scipy_solve(model)
        if ref.status == 2:
            assert mine.status is LPStatus.INFEASIBLE, f"trial {trial}"
        elif ref.status == 0:
            assert mine.status is LPStatus.OPTIMAL, f"trial {trial}"
            assert mine.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            optima += 1
    assert optima >= 30  # the generator produces plenty of solvable LPs


def _enumerate_vertices(arrays):
    """Brute-force basic-solution enumeration for tiny LPs."""
    n = arrays.A.shape[1]
    planes = []
    for row, sense, rhs in zip(arrays.A, arrays.senses, arrays.b):
        planes.append((row, rhs))
    for k in range(n):
        if math.isfinite(arrays.lo[k]):
            e = np.zeros(n)
            e[k] = 1.0
            planes.append((e, arrays.lo[k]))
        if math.isfinite(arrays.up[k]):
            e = np.zeros(n)
            e[k] = 1.0
            planes.append((e, arrays.up[k]))
    best = math.inf
    for combo in itertools.combinations(range(len(planes)), n):
        A = np.array([planes[i][0] for i in combo])
        b = np.array([planes[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if np.any(x < arrays.lo - 1e-9) or np.any(x > arrays.up + 1e-9):
            continue
        ok = True
        for row, sense, rhs in zip(arrays.A, arrays.senses, arrays.b):
            lhs = row @ x
            if sense == "<" and lhs > rhs + 1e-9:
                ok = False
            elif sense == ">" and lhs < rhs - 1e-9:
                ok = False
            elif sense == "=" and abs(lhs - rhs) > 1e-9:
                ok = False
            if not ok:
                break
        if ok:
            best = min(best, float(arrays.c @ x))
    return best


def test_vertex_enumeration_duality_check():
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 4))
        model = _random_lp(rng, n, m)
        arrays = LPArrays.from_model(model)
        mine = solve_arrays(arrays)
        brute = _enumerate_vertices(arrays)
        if mine.status is LPStatus.OPTIMAL and math.isfinite(brute):
            assert mine.objective == pytest.approx(brute, abs=1e-7)
            checked += 1
    assert checked >= 10


def test_objective_constant_carries_through():
    m = Model("t")
    x = m.add_variable("x", 0.0, 2.0)
    m.objective = LinearExpr({x.id: 1.0}, constant=5.0)
    res = solve_lp(m)
    assert res.objective == pytest.approx(5.0)


def test_sparse_inverse_update_stays_exact(monkeypatch):
    """With refactoring off, the rank-1 updates alone carry B_inv to the end."""
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 10**9)
    rng = np.random.default_rng(7)
    m, n = 300, 200
    A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.03)
    lo = rng.uniform(-2.0, 0.0, size=n)
    up = lo + rng.uniform(0.5, 3.0, size=n)
    c = rng.normal(size=n)
    senses = [("<", ">", "=")[k] for k in rng.choice(3, size=m, p=[0.45, 0.45, 0.1])]
    # rhs at an interior point, loosened on the inequality rows
    slack_sign = np.array([{"<": 1.0, ">": -1.0, "=": 0.0}[s] for s in senses])
    b = A @ ((lo + up) / 2.0) + slack_sign * rng.uniform(0.0, 0.5, size=m)

    snapshots = []
    phase = simplex._Simplex._phase

    def recording_phase(self, costs):
        status = phase(self, costs)
        snapshots.append(
            (self.A, self.B_inv.copy(), self.basis.copy(), self.sigma.copy(), self._since_refactor)
        )
        return status

    monkeypatch.setattr(simplex._Simplex, "_phase", recording_phase)
    arrays = LPArrays(c, A, senses, b, lo, up)
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL

    # the last phase ends on an inverse built by updates alone
    A_kept, B_inv, basis, sigma, updates = snapshots[-1]
    assert updates >= 100
    # structural | slack e_i | artificial sigma_i * e_i, over the rows the
    # simplex carries (singleton rows were folded into the bounds)
    m_kept = A_kept.shape[0]
    B = np.hstack([A_kept, np.eye(m_kept), np.diag(sigma)])[:, basis]
    assert np.max(np.abs(B_inv @ B - np.eye(m_kept))) <= 1e-8

    ref = _highs(arrays)
    assert ref.status == 0
    assert res.objective == pytest.approx(ref.fun, rel=1e-7)


def test_forced_bland_reaches_phase_two(monkeypatch, h1):
    """From the second restart on, both phases of the attempt run Bland's rule."""
    worst_residual = simplex._Simplex._worst_residual
    phase = simplex._Simplex._phase
    checks = []
    bland_at_phase_start = []

    def failing_twice(self):
        checks.append(None)
        return 1.0 if len(checks) <= 2 else worst_residual(self)

    def recording_phase(self, costs):
        bland_at_phase_start.append(self.bland)
        return phase(self, costs)

    monkeypatch.setattr(simplex._Simplex, "_worst_residual", failing_twice)
    monkeypatch.setattr(simplex._Simplex, "_phase", recording_phase)
    res = solve_lp(relax(build_pq(h1).model).lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(-500.0, rel=1e-9)
    # (phase 1, phase 2) per attempt; the third attempt is the forced one
    assert bland_at_phase_start == [False, False, False, False, True, True]


def test_ratio_test_overshoots_no_bound_by_more_than_tolerance():
    """Harris's window is absolute: a long step must not push a tied basic
    variable far enough past its bound to fail the final drift check."""
    arrays = LPArrays(
        np.array([-1.0, 0.0]),
        np.array([[2.0, 1.0], [1.0, 1.0]]),
        ["<", "<"],
        np.array([200.00001, 100.0]),
        np.array([0.0, 0.0]),
        np.array([math.inf, 1.0]),
    )
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(-100.0, rel=1e-12)


def test_fixed_columns_never_enter(monkeypatch):
    choose = simplex._Simplex._choose_entering
    fixed_entered = []

    def recording_choose(self, d):
        enter, direction = choose(self, d)
        if enter >= 0 and self.lo[enter] == self.up[enter]:
            fixed_entered.append(enter)
        return enter, direction

    monkeypatch.setattr(simplex._Simplex, "_choose_entering", recording_choose)
    # x0 is fixed at 1; row 0 is an equality, so its slack is fixed at 0
    arrays = LPArrays(
        np.array([-10.0, -1.0, 0.0]),
        np.array([[1.0, 1.0, 1.0], [0.0, 1.0, -1.0]]),
        ["=", "<"],
        np.array([3.0, 1.0]),
        np.array([1.0, 0.0, 0.0]),
        np.array([1.0, 5.0, 5.0]),
    )
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective == pytest.approx(-11.5, rel=1e-12)
    assert fixed_entered == []


def test_singleton_row_crossing_by_an_ulp_snaps_to_a_point():
    lo, up = np.array([0.0, 0.0]), np.array([0.1, 1.0])
    # 0.7 x0 = 0.07 folds to lo = up = 0.07 / 0.7, one ulp above 0.1
    assert 0.07 / 0.7 == np.nextafter(0.1, 1.0)
    row = np.array([[0.7, 0.0], [1.0, 1.0]])
    arrays = LPArrays(np.array([1.0, 1.0]), row, ["=", ">"], np.array([0.07, 0.5]), lo, up)
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL
    assert res.x[0] == 0.1
    assert res.objective == pytest.approx(0.5, rel=1e-12)
    # a real crossing stays infeasible
    wide = LPArrays(arrays.c, row, ["=", ">"], np.array([0.0707, 0.5]), lo, up)
    assert solve_arrays(wide).status is LPStatus.INFEASIBLE


def test_random_appended_rows_warm_match_highs(warm_outcomes):
    rng = np.random.default_rng(7)
    senses = [Sense.LE, Sense.GE, Sense.EQ]
    checked = 0
    for trial in range(60):
        n = int(rng.integers(2, 8))
        model = _random_lp(rng, n, int(rng.integers(1, 7)))
        first = solve_lp(model)
        if first.status is not LPStatus.OPTIMAL:
            continue
        # rows in the style of _random_lp, anchored at the current optimum so
        # that most stay feasible and some cut it off
        for r in range(int(rng.integers(1, 4))):
            coeffs = rng.normal(size=n)
            coeffs[rng.random(size=n) < 0.4] = 0.0
            rhs = float(coeffs @ first.x) + float(rng.normal() * 0.5)
            expr = LinearExpr({k: float(c) for k, c in enumerate(coeffs) if c})
            model.add_constraint(f"extra{r}", expr, senses[int(rng.integers(3))], rhs)
        warm = solve_lp(model, start=first)
        ref = _scipy_solve(model)
        if ref.status == 2:
            assert warm.status is LPStatus.INFEASIBLE, f"trial {trial}"
        elif ref.status == 0:
            assert warm.status is LPStatus.OPTIMAL, f"trial {trial}"
            assert warm.objective == pytest.approx(ref.fun, abs=1e-7), f"trial {trial}"
            checked += 1
    assert checked >= 20
    # most re-solves stay on the warm path; infeasible ones fall back to cold
    assert sum(r is not None for r in warm_outcomes) >= 20


def test_infeasible_appended_row_matches_cold(warm_outcomes):
    m = Model("t")
    x = m.add_variable("x", 0.0, 3.0)
    y = m.add_variable("y", 0.0, 3.0)
    m.add_constraint("cap", LinearExpr({x.id: 1.0, y.id: 1.0}), Sense.LE, 5.0)
    m.objective = LinearExpr({x.id: -1.0, y.id: -2.0})
    first = solve_lp(m)
    assert first.status is LPStatus.OPTIMAL
    m.add_constraint("cut", LinearExpr({x.id: 1.0, y.id: 1.0}), Sense.GE, 7.0)
    warm = solve_lp(m, start=first)
    assert warm.status is solve_lp(m).status is LPStatus.INFEASIBLE
    assert warm_outcomes == [None]  # the dual phase finds no entering column


def test_start_that_does_not_fit_solves_cold(h1):
    lp = relax(build_pq(h1).model).lp
    other = Model("other")
    z = other.add_variable("z", 0.0, 1.0)
    other.add_constraint("r", LinearExpr({z.id: 1.0}), Sense.LE, 0.5)
    start = solve_lp(other)
    assert start.basis.tolist() == [simplex._Simplex.AT_LOWER, simplex._Simplex.FOLDED]
    cold = solve_lp(lp)
    warm = solve_lp(lp, start=start)
    assert warm.status is cold.status
    assert warm.objective == cold.objective
    assert warm.x.tobytes() == cold.x.tobytes()
    assert warm.iterations == cold.iterations
    assert np.array_equal(warm.basis, cold.basis)
