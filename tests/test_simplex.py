import copy
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from poolblend import (
    BilinearTerm,
    GapSpec,
    GenSpec,
    LinearExpr,
    Model,
    RestrictionSpec,
    Sense,
    SolveOptions,
    add_all_pooling_inequalities,
    branch_and_cut,
    build_pq,
    generate_instance,
    install_restriction,
    relax,
    solve_lp,
    solve_mip,
)
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


def _arrays(c, A, senses, b, lo, up):
    """LPArrays holding the rows of the dense matrix A by their nonzeros."""
    rows, cols = np.nonzero(A)
    return LPArrays(c, rows, cols, A[rows, cols], senses, b, lo, up)


def _boxed_lp(seed, m, n, density):
    """Random rows at the given density, with the rhs at an interior point
    and loosened on the inequality rows."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < density)
    lo = rng.uniform(-2.0, 0.0, size=n)
    up = lo + rng.uniform(0.5, 3.0, size=n)
    c = rng.normal(size=n)
    senses = [("<", ">", "=")[k] for k in rng.choice(3, size=m, p=[0.45, 0.45, 0.1])]
    slack_sign = np.array([{"<": 1.0, ">": -1.0, "=": 0.0}[s] for s in senses])
    b = A @ ((lo + up) / 2.0) + slack_sign * rng.uniform(0.0, 0.5, size=m)
    return _arrays(c, A, senses, b, lo, up)


# (seed, m, n, density)
SPARSE_LP = (7, 300, 200, 0.03)
DENSE_LP = (5, 120, 80, 0.3)


def test_sparse_inverse_update_stays_exact(monkeypatch):
    """With refactoring off, the rank-1 updates alone carry B_inv to the end.

    Without refactors B_inv fills in, so both inputs mix the two kernels;
    the dense input takes the dense kernel on most of its updates.
    """
    monkeypatch.setattr(simplex, "_REFACTOR_EVERY", 10**9)
    phase, pivot = simplex._Simplex._phase, simplex._Simplex._pivot

    def recording_phase(self, costs):
        status = phase(self, costs)
        snapshots.append(
            (self.B_inv.copy(), self.basis.copy(), self.sigma.copy(), self._since_refactor)
        )
        return status

    def counting_pivot(self, leave, enter, alpha, step, hit_lower):
        support = np.count_nonzero(alpha) * np.count_nonzero(self.B_inv[leave])
        dense.append(simplex._DENSE_UPDATE * support > self.m * self.m)
        return pivot(self, leave, enter, alpha, step, hit_lower)

    monkeypatch.setattr(simplex._Simplex, "_phase", recording_phase)
    monkeypatch.setattr(simplex._Simplex, "_pivot", counting_pivot)
    for spec in (SPARSE_LP, DENSE_LP):
        snapshots, dense = [], []
        arrays = _boxed_lp(*spec)
        res = solve_arrays(arrays)
        assert res.status is LPStatus.OPTIMAL
        if spec is DENSE_LP:
            assert sum(dense) >= 100

        # the last phase ends on an inverse built by updates alone
        B_inv, basis, sigma, updates = snapshots[-1]
        assert updates >= 100
        # structural | slack e_i | artificial sigma_i * e_i, over the rows the
        # simplex carries (singleton rows were folded into the bounds)
        A_kept = _kept_rows(arrays.A)
        m_kept = A_kept.shape[0]
        B = np.hstack([A_kept, np.eye(m_kept), np.diag(sigma)])[:, basis]
        assert np.max(np.abs(B_inv @ B - np.eye(m_kept))) <= 1e-8

        ref = _highs(arrays)
        assert ref.status == 0
        assert res.objective == pytest.approx(ref.fun, rel=1e-7)


def test_both_update_kernels_give_the_same_solve(monkeypatch):
    """The dense and the support kernel differ only in the sign of zeros."""
    arrays = _boxed_lp(*DENSE_LP)
    results = []
    for factor in (0, 10**9):  # only the support kernel; the dense one whenever it can
        monkeypatch.setattr(simplex, "_DENSE_UPDATE", factor)
        results.append(solve_arrays(arrays))
    support, dense = results
    assert support.status is dense.status is LPStatus.OPTIMAL
    assert support.objective == dense.objective
    assert support.x.tobytes() == dense.x.tobytes()
    assert support.iterations == dense.iterations
    assert np.array_equal(support.basis, dense.basis)


def _kept_rows(A):
    """The rows of A the simplex carries: those with two nonzeros or more."""
    return A[np.count_nonzero(A, axis=1) > 1]


def _with_basis(A, basis, sigma):
    """A cold _Simplex over A (rows A x <= 1, 0 <= x <= 1) given this basis."""
    m, n = A.shape
    rows, cols = np.nonzero(A)
    s = simplex._Simplex(
        np.zeros(n), rows, cols, A[rows, cols], ["<"] * m, np.ones(m), np.zeros(n), np.ones(n)
    )
    s.sigma[:] = sigma
    s.status[s.basis] = s.AT_LOWER
    s.basis = np.asarray(basis)
    s.status[s.basis] = s.BASIC
    return s


def _basis_matrix(A, s):
    """structural | slack e_i | artificial sigma_i * e_i, in basis order"""
    return np.hstack([A, np.eye(s.m), np.diag(s.sigma)])[:, s.basis]


def test_kernel_factor_matches_the_dense_inverse():
    rng = np.random.default_rng(11)
    m, n = 40, 30
    for _ in range(20):
        A = rng.normal(size=(m, n))
        k = int(rng.integers(0, 25))
        cols = rng.choice(n, size=k, replace=False)
        unit_rows = rng.choice(m, size=m - k, replace=False)
        # each covered row gets its slack or its artificial, at sign -1 or +1
        artificial = rng.random(m - k) < 0.5
        sigma = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        units = np.where(artificial, n + m + unit_rows, n + unit_rows)
        basis = rng.permutation(np.concatenate([cols, units]))
        s = _with_basis(A, basis, sigma)
        B = _basis_matrix(A, s)
        assert np.linalg.cond(B) < 1e6
        s._refactor()
        # no repair: the basis is the one given
        assert s.basis.tolist() == basis.tolist() and s._since_refactor == 0
        assert np.max(np.abs(s.B_inv @ B - np.eye(m))) <= 1e-10
        assert np.max(np.abs(s.B_inv - np.linalg.inv(B))) <= 1e-9


@pytest.mark.parametrize("dependent", ["structurals", "slack_and_artificial"])
def test_repair_leaves_a_nonsingular_basis(dependent):
    rng = np.random.default_rng(5)
    m, n = 12, 8
    A = rng.normal(size=(m, n))
    if dependent == "structurals":
        A[:, 3] = 2.0 * A[:, 1]
        # columns 1 and 3 on rows 0-3, slacks on rows 4-11
        basis = [1, 3, 0, 2] + [n + i for i in range(4, m)]
    else:
        # row 5 holds its slack and its artificial, rows 0 and 1 neither
        basis = [0, n + m + 5] + [n + i for i in range(2, m)]
    s = _with_basis(A, basis, np.ones(m))
    assert np.linalg.matrix_rank(_basis_matrix(A, s)) < m
    try:
        s._refactor()
    except simplex._Restart:
        pass  # the repaired basis is factored before the restart is raised
    B = _basis_matrix(A, s)
    assert np.linalg.matrix_rank(B) == m
    assert np.max(np.abs(s.B_inv @ B - np.eye(m))) <= 1e-10
    assert np.count_nonzero(s.status == s.BASIC) == m


def test_probe_finds_a_bad_inverse_in_any_column(monkeypatch):
    # K is singular in exact arithmetic, yet LAPACK inverts its floats
    # without an error; the inverse is wrong only in the columns of K's
    # rows, and column 0, the slack's, is exact
    K = np.array([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]])
    A = np.vstack([np.ones(3), K])
    rows, cols = np.nonzero(A)
    b = np.concatenate([[10.0], K @ np.ones(3)])
    S = simplex._Simplex
    codes = np.array([S.BASIC] * 3 + [S.BASIC] + [S.AT_LOWER] * 3, dtype=np.int8)
    s = S(np.zeros(3), rows, cols, A[rows, cols], ["<", "=", "=", "="], b,
          np.zeros(3), np.full(3, 10.0), start=codes)
    repairs = []
    repair = S._repair_basis

    def recording_repair(self):
        repairs.append(self.basis.copy())
        repair(self)

    monkeypatch.setattr(S, "_repair_basis", recording_repair)
    try:
        s._refactor()
    except simplex._Restart:
        pass  # the repaired basis is factored before the restart is raised
    assert len(repairs) == 1 and repairs[0].tolist() == [3, 0, 1, 2]
    assert np.max(np.abs(_basis_matrix(A, s) @ s.B_inv - np.eye(4))) <= 1e-10


def _sparse_lp(seed, m, n):
    """A _boxed_lp at density 0.15 with rows 0-3 cut down to one nonzero or
    none and column 0 nonzero only in those rows, so that no kept row
    touches it."""
    arrays = _boxed_lp(seed, m, n, 0.15)
    A, b, mid = arrays.A.copy(), arrays.b, (arrays.lo + arrays.up) / 2.0
    A[:, 0] = 0.0
    A[:4] = 0.0
    A[0, 0], A[1, 0], A[3, n - 1] = 2.0, -0.5, 3.0
    b[:4] = A[:4] @ mid  # the box's midpoint meets every folded row
    return _arrays(arrays.c, A, arrays.senses, b, arrays.lo, arrays.up)


def test_column_storage_matches_the_dense_products(monkeypatch):
    """The simplex keeps the kept rows by their column nonzeros, holds no
    m x n array, and each product it forms from the nonzeros equals the
    dense one; an LP whose every row folds into a bound still solves."""
    built = []
    run = simplex._Simplex.run

    def recording_run(self):
        built.append(self)
        return run(self)

    monkeypatch.setattr(simplex._Simplex, "run", recording_run)
    rng = np.random.default_rng(1)
    for seed in range(5):
        arrays = _sparse_lp(seed, 40, 30)
        assert solve_arrays(arrays).status is LPStatus.OPTIMAL
        s = built[-1]
        A = _kept_rows(arrays.A)
        assert (s.m, s.n) == A.shape and s.m < 40
        assert s.col_ptr[1] == 0  # column 0 has no nonzero in the kept rows
        big = {k for k, v in vars(s).items() if isinstance(v, np.ndarray) and v.size >= A.size}
        assert big <= {"B_inv"}

        def close(mine, dense):
            scale = max(1.0, float(np.max(np.abs(dense), initial=0.0)))
            assert mine.shape == dense.shape
            assert np.max(np.abs(mine - dense), initial=0.0) <= 1e-12 * scale

        y, x = rng.normal(size=s.m), rng.normal(size=s.n)
        close(s._dot_columns(y), y @ A)
        close(s._dot_rows(x), A @ x)
        for j in range(s.n):
            close(s._ftran(j), s.B_inv @ A[:, j])
        split = s._split()
        columns = np.zeros((s.m, split.struct.size))
        columns[split.nz_rows, split.nz_pos] = split.nz_vals
        close(columns, A[:, s.basis[split.struct]])

    # every row folds: rows 0-2 into bounds on x0 and x1, row 3 is empty
    arrays = _arrays(
        np.array([1.0, -2.0, 0.5]),
        np.array([[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 0.0]]),
        [">", ">", "<", "<"],
        np.array([1.0, -4.0, 6.0, 0.0]),
        np.full(3, -5.0),
        np.array([5.0, 5.0, 1.0]),
    )
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL
    assert res.x.tolist() == [0.5, 2.0, -5.0]
    assert res.objective == pytest.approx(_highs(arrays).fun, rel=1e-12)
    assert res.basis[3:].tolist() == [simplex._Simplex.FOLDED] * 4
    assert built[-1].m == 0


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
    arrays = _arrays(
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
    arrays = _arrays(
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
    arrays = _arrays(np.array([1.0, 1.0]), row, ["=", ">"], np.array([0.07, 0.5]), lo, up)
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL
    assert res.x[0] == 0.1
    assert res.objective == pytest.approx(0.5, rel=1e-12)
    # a real crossing stays infeasible
    wide = _arrays(arrays.c, row, ["=", ">"], np.array([0.0707, 0.5]), lo, up)
    assert solve_arrays(wide).status is LPStatus.INFEASIBLE


def test_singleton_rows_of_every_sense_fold_into_one_box():
    # on x0: 2 x0 <= 6 (x0 <= 3), -4 x0 >= -8 (x0 <= 2) and 0.5 x0 = 0.75
    rows = np.array([[2.0, 0.0], [-4.0, 0.0], [0.5, 0.0], [1.0, 1.0]])
    lo, up = np.array([-10.0, 0.0]), np.array([10.0, 1.0])
    arrays = _arrays(
        np.array([1.0, 1.0]), rows, ["<", ">", "=", ">"], np.array([6.0, -8.0, 0.75, 2.0]), lo, up
    )
    res = solve_arrays(arrays)
    assert res.status is LPStatus.OPTIMAL
    assert res.x.tolist() == [1.5, 0.5]
    # the = row past the > row's bound empties the box
    b = np.array([6.0, -8.0, 1.25, 2.0])
    assert solve_arrays(_arrays(arrays.c, rows, arrays.senses, b, lo, up)).status is (
        LPStatus.INFEASIBLE
    )


def _fold_by_loop(A, senses, b, lo, up):
    """The fold one row at a time, as min and max of Python floats."""
    for i in range(A.shape[0]):
        (cols,) = np.nonzero(A[i])
        sense = senses[i]
        if not cols.size:
            if (sense != ">" and b[i] < -1e-9) or (sense != "<" and b[i] > 1e-9):
                return False
            continue
        if cols.size > 1:
            continue
        j = cols[0]
        bound = b[i] / A[i, j]
        if A[i, j] < 0 and sense != "=":
            sense = "<" if sense == ">" else ">"
        if sense != ">":
            up[j] = min(up[j], bound)
        if sense != "<":
            lo[j] = max(lo[j], bound)
    with np.errstate(invalid="ignore"):
        snap = (lo > up) & (lo <= up + 1e-9 * np.maximum(1.0, np.abs(up)))
    lo[snap] = up[snap]
    return not np.any(lo > up)


def test_singleton_fold_gives_the_loops_boxes_bit_for_bit():
    """Ties between bounds of equal value, signed zeros among them, keep the
    first one, as the loop does."""
    rng = np.random.default_rng(4)
    outcomes = set()
    for _ in range(200):
        m, n = 30, 6
        A = np.zeros((m, n))
        cols = rng.integers(n, size=m)
        A[np.arange(m), cols] = rng.choice([-2.0, -1.0, 0.5, 1.0], size=m)
        A[rng.random(m) < 0.2] = 0.0  # empty rows
        A[rng.random(m) < 0.2, 0] = 1.0  # rows of two nonzeros stay
        senses = [("<", ">", "=")[k] for k in rng.integers(3, size=m)]
        b = rng.choice([-1.0, -0.0, 0.0, 1.0], size=m) * rng.choice([1.0, 2.0], size=m)
        b[rng.random(m) < 0.5] = 0.0
        lo = rng.choice([-math.inf, -3.0, -0.0, 0.0], size=n)
        up = rng.choice([math.inf, 3.0, -0.0, 0.0], size=n)
        ref_lo, ref_up = lo.copy(), up.copy()
        expected = _fold_by_loop(A, senses, b, ref_lo, ref_up)
        rows, cols = np.nonzero(A)
        counts = np.bincount(rows, minlength=m)
        kinds = np.array(senses)
        ok = simplex._fold_singleton_rows(rows, cols, A[rows, cols], counts, kinds, b, lo, up)
        assert ok == expected
        outcomes.add(ok)
        if ok:
            assert lo.tobytes() == ref_lo.tobytes() and up.tobytes() == ref_up.tobytes()
    assert outcomes == {True, False}


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
    # most re-solves stay on the warm path, infeasible ones included
    assert sum(r is not None for r in warm_outcomes) >= 20


def test_dual_phase_ends_on_an_optimal_basis(monkeypatch):
    """The reduced costs the dual phase updates from its pivot rows keep the
    start dual feasible, so primal phase 2 finds the basis optimal at once."""
    phase_two = simplex._Simplex._phase_two
    passes = []

    def recording_phase_two(self):
        before = self.iterations
        result = phase_two(self)
        passes.append(self.iterations - before)
        return result

    monkeypatch.setattr(simplex._Simplex, "_phase_two", recording_phase_two)
    for seed in range(5):
        lp = _boxed_lp(seed, 60, 40, 0.3)
        first = solve_arrays(lp)
        # eight rows that cut the optimum off
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(8, 40)) * (rng.random((8, 40)) < 0.5)
        arrays = _arrays(
            lp.c, np.vstack([lp.A, rows]), lp.senses + ["<"] * 8,
            np.concatenate([lp.b, rows @ first.x - 0.3]), lp.lo, lp.up,
        )
        passes.clear()
        warm = solve_arrays(arrays, start=first)
        assert warm.status is LPStatus.OPTIMAL
        assert warm.iterations >= 10
        assert passes == [1]  # one pricing pass that finds no entering column
        assert warm.objective == pytest.approx(solve_arrays(arrays).objective, abs=1e-9)


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
    # the dual phase finds no entering column, and the cut's row proves it
    assert [r.status for r in warm_outcomes] == [LPStatus.INFEASIBLE]


@pytest.mark.parametrize("z_up", [10.0, math.inf])
def test_no_proof_through_an_infinite_bound(warm_outcomes, z_up):
    # z could fix the cut only by rising past 1e11, and its coefficient is
    # below the pivot tolerance, so no column enters; a finite upper bound on
    # z still proves infeasibility, an infinite one leaves it to the cold solve
    m = Model("t")
    x = m.add_variable("x", 0.0, 3.0)
    y = m.add_variable("y", 0.0, 3.0)
    z = m.add_variable("z", 0.0, z_up)
    m.add_constraint("cap", LinearExpr({x.id: 1.0, y.id: 1.0}), Sense.LE, 5.0)
    m.objective = LinearExpr({x.id: -1.0, y.id: -2.0})
    first = solve_lp(m)
    assert first.status is LPStatus.OPTIMAL
    m.add_constraint("cut", LinearExpr({x.id: 1.0, y.id: 1.0, z.id: 1e-11}), Sense.GE, 7.0)
    warm = solve_lp(m, start=first)
    cold = solve_lp(m)
    assert warm.status is cold.status
    if math.isfinite(z_up):
        assert [r.status for r in warm_outcomes] == [LPStatus.INFEASIBLE]
    else:
        assert warm_outcomes == [None]
        assert warm.x.tobytes() == cold.x.tobytes()


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


def test_from_model_keeps_the_terms_as_nonzeros(h1):
    """The rows' nonzeros are the active rows' terms, in ascending row
    order, with the zero that LinearExpr drops left out, and A is their
    dense fill."""
    model = relax(build_pq(h1).model).lp
    first = next(iter(model.constraints.values()))
    model.deactivate(first.name)
    model.add_constraint("zero", LinearExpr({0: 0.0, 1: 2.0}), Sense.LE, 1.0)
    arrays = LPArrays.from_model(model)
    active = [con for con in model.constraints.values() if con.active]
    assert np.all(np.diff(arrays.rows) >= 0) and np.all(arrays.vals != 0.0)
    dense = np.zeros((len(active), len(model.variables)))
    for i, con in enumerate(active):
        at = arrays.rows == i
        assert dict(zip(arrays.cols[at].tolist(), arrays.vals[at].tolist())) == con.linear.terms
        for k, v in con.linear.terms.items():
            dense[i, k] = v
    assert arrays.A.tobytes() == dense.tobytes()
    assert not arrays.A.flags.writeable


def test_from_model_rejects_a_bilinear_objective():
    # LPArrays has no bilinear part, so the term would be dropped silently
    m = Model("t")
    x, y = m.add_variable("x", 0.0, 1.0), m.add_variable("y", 0.0, 1.0)
    m.objective = LinearExpr({x.id: 1.0})
    m.objective_bilinear.append(BilinearTerm.of(-1.0, x.id, y.id))
    with pytest.raises(ValueError, match="objective"):
        LPArrays.from_model(m)
    with pytest.raises(ValueError):
        solve_mip(m)


def test_solvers_never_read_the_dense_matrix(monkeypatch, h1):
    def refuse(self):
        raise AssertionError("LPArrays.A read")

    monkeypatch.setattr(LPArrays, "A", property(refuse))
    pq = build_pq(h1)
    assert solve_lp(relax(pq.model).lp).status is LPStatus.OPTIMAL
    assert branch_and_cut(pq, GapSpec(rel_tol=1e-4), SolveOptions()).status == "optimal"
    install_restriction(pq, RestrictionSpec(tau=2))
    assert solve_mip(pq.model, GapSpec(rel_tol=0.01)).incumbent is not None


def test_wide_sparse_lp_forms_no_m_by_n_array():
    """from_model and the solve together stay below the bytes of a dense A."""
    rng = np.random.default_rng(3)
    m, n = 100, 800
    model = Model("wide")
    for k in range(n):
        model.add_variable(f"x{k}", 0.0, 1.0)
    model.objective = LinearExpr({k: float(c) for k, c in enumerate(rng.normal(size=n))})
    for r in range(m):
        cols = rng.choice(n, size=12, replace=False)
        coeffs = rng.uniform(0.5, 2.0, size=12)
        model.add_constraint(
            f"r{r}", LinearExpr(dict(zip(cols.tolist(), coeffs.tolist()))), Sense.LE,
            float(coeffs.sum()) / 3.0,
        )
    tracemalloc.start()
    try:
        res = solve_arrays(LPArrays.from_model(model))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status is LPStatus.OPTIMAL
    assert peak < m * n * 8


def test_root_lp_solve_peaks_below_1_4_inverses():
    """On the 858-row root LP of a 20x6x12 instance (pooling rows and the
    pq_cut rows on), a solve's memory stays below 1.4 times its m x m
    inverse: a refactor forms no dense m x k block of the basic columns,
    and pricing and both rank-1 updates read a slab of rows at a time."""
    pq = build_pq(generate_instance(GenSpec("sparse_haverly", 20, 6, 12, 2, 70, 1)))
    for row in pq.groups["pq_cut"]:
        pq.model.activate(row)
    rm = relax(pq.model)
    add_all_pooling_inequalities(rm, pq)
    arrays = LPArrays.from_model(rm.lp)
    m = int(np.count_nonzero(np.bincount(arrays.rows, minlength=arrays.b.size) > 1))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        res = solve_arrays(arrays)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert res.status is LPStatus.OPTIMAL and m == 858
    assert peak < 1.4 * m * m * 8


def _cold_start_by_loop(s):
    """_cold_start one row at a time, clamping as min and max of Python floats."""
    m, n = s.m, s.n
    basic = np.flatnonzero(s.status[: n + m] == s.BASIC)
    s._park(basic, s.x[basic])
    s.lo[s.art_start :] = 0.0
    s.up[s.art_start :] = math.inf
    resid = s.b - s._dot_rows(s.x[:n])
    s.basis = np.empty(m, dtype=int)
    s.sigma[:] = 1.0
    for i in range(m):
        slack, art, r = n + i, s.art_start + i, resid[i]
        if s.lo[slack] - 1e-12 <= r <= s.up[slack] + 1e-12:
            s.basis[i] = slack
            s.x[slack] = min(max(r, s.lo[slack]), s.up[slack])
            s.status[slack] = s.BASIC
            s.x[art] = 0.0
            s.status[art] = s.AT_LOWER
        else:
            s._park(slack, r)
            gap = r - s.x[slack]
            s.sigma[i] = 1.0 if gap >= 0 else -1.0
            s.basis[i] = art
            s.x[art] = abs(gap)
            s.status[art] = s.BASIC


def test_cold_start_gives_the_loops_basis_bit_for_bit():
    """From the first point and from the optimum, as a restart would; rows
    with b = -0.0 host a slack of -0.0, as min(max(...)) leaves it."""
    checked = 0
    for seed in range(6):
        arrays = _boxed_lp(seed, 40, 30, 0.2)
        A, b = arrays.A.copy(), arrays.b.copy()
        A[:12] = 0.0  # empty rows, whose activity is 0.0
        b[:6] = -0.0
        b[6:9] = 0.0
        b[9:12] = -1e-13  # within 1e-12 below a slack's bound: clamped, sigma stays +1
        rows, cols = np.nonzero(A)
        s = simplex._Simplex(
            arrays.c, rows, cols, A[rows, cols], arrays.senses, b, arrays.lo, arrays.up
        )
        for state in ("first", "optimum"):
            if state == "optimum":
                assert s.run().status is LPStatus.OPTIMAL
            mine, loop = copy.deepcopy(s), copy.deepcopy(s)
            mine._cold_start()
            _cold_start_by_loop(loop)
            assert mine.basis.tolist() == loop.basis.tolist()
            assert mine.x.tobytes() == loop.x.tobytes()
            assert mine.status.tobytes() == loop.status.tobytes()
            assert mine.sigma.tobytes() == loop.sigma.tobytes()
            assert np.signbit(mine.x[s.n : s.n + 6]).all()
            checked += int(np.any(loop.sigma < 0))
    assert checked  # some rows start on an artificial at sign -1


def _bounds_only_by_loop(s):
    """_bounds_only one column at a time; None where it is unbounded."""
    x = np.zeros(s.n)
    c = s.c_real[: s.n]
    for j in range(s.n):
        if c[j] > 0:
            if not math.isfinite(s.lo[j]):
                return None
            x[j] = s.lo[j]
        elif c[j] < 0:
            if not math.isfinite(s.up[j]):
                return None
            x[j] = s.up[j]
        else:
            x[j] = s.lo[j] if math.isfinite(s.lo[j]) else (
                s.up[j] if math.isfinite(s.up[j]) else 0.0
            )
        s._park(j, x[j])
    return x


def test_bounds_only_matches_the_loop():
    """With no rows every column rests where the column loop put it, signed
    zeros included, and is parked there."""
    rng = np.random.default_rng(8)
    outcomes = set()
    for _ in range(50):
        n = 8
        c = rng.choice([-1.0, 0.0, -0.0, 1.0], size=n)
        lo = rng.choice([-math.inf, -1.0, -0.0, 0.0], size=n)
        up = rng.choice([math.inf, 2.0, -0.0, 0.0], size=n)
        s = simplex._Simplex(c, [], [], [], [], np.zeros(0), lo, up)
        loop = copy.deepcopy(s)
        expected = _bounds_only_by_loop(loop)
        res = s.run()
        outcomes.add(res.status)
        if expected is None:
            assert res.status is LPStatus.UNBOUNDED
            continue
        assert res.status is LPStatus.OPTIMAL
        assert res.x.tobytes() == expected.tobytes()
        assert s.status.tobytes() == loop.status.tobytes()
        assert s.x.tobytes() == loop.x.tobytes()
    assert outcomes == {LPStatus.OPTIMAL, LPStatus.UNBOUNDED}
