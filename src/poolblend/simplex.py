"""Bounded-variable primal simplex with a two-phase start, and a dual phase
that re-optimizes from an earlier optimal basis.

Numpy implementation sized for the instances this package generates
(hundreds of rows).  ``solve_arrays`` decides what the simplex carries:
after the bound overrides, every row with at most one nonzero is a bound,
so ``a * x_j (sense) b`` tightens the box of x_j by b/a (the sense flips
for a < 0) and an empty row is checked and dropped.  A box that crosses by
at most 1e-9 relative is snapped to a point, since a quotient can land an
ulp outside; a wider crossing is infeasible.  The solution keeps every
column.

Nonbasic variables rest at a bound, rows carry slacks, and an artificial
basis opens phase 1.  Only the structural columns are stored (dense,
m x n): slack i is the implicit unit column e_i and artificial i is
sigma_i * e_i.  The explicit basis inverse gets its rank-1 update on the
nonzero support of the pivot column and pivot row only; the skipped
entries would subtract exact zeros, so the inverse, and with it the pivot
sequence, is the same as under a dense update.  Entering variable: most
negative reduced-cost direction (Dantzig) over the columns that can move,
so fixed structurals, equality-row slacks and phase-2 artificials are never
priced, with a permanent switch to Bland's rule after 5*(m+n) degenerate
pivots so cycling cannot occur.  Leaving variable: Harris's two-pass ratio
test with an absolute tolerance, so no basic variable passes a bound by
more than 1e-9; among the rows that block within that step the largest
pivot wins.  Deterministic for a fixed input: all ties break on the lowest
variable index.

An optimal result carries its basis (``LPResult.basis``): one int8 status
per structural column and one per ``LPArrays`` row for its slack, with a
code of its own for a basic artificial and -1 for a row folded into a bound.
It is O(n+m) bytes and holds no factor.  A solve given ``start=`` (a cut
round: the same columns, rows appended) installs that basis with the new
rows' slacks basic, which keeps it dual feasible, and factors it once.  A
bounded dual phase then restores primal feasibility: the basic variable
with the largest bound violation leaves, its pivot row is B_inv[r] times
[A | I], and Harris's two-pass ratio test on |d_j|/|alpha_rj| picks the
entering column, the largest |alpha_rj| among the ties; fixed columns never
enter.  Primal phase 2 then cleans up drift, followed by the same final
refactor and residual checks as a cold solve.  Both phases pivot through one
update routine.  A start that does not fit, and a warm solve that ends in
anything but a verified optimum, fall back to the cold two-phase solve, so a
start can change time and pivots but never the status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalFailure
from .model import Domain, Model

__all__ = ["LPStatus", "LPResult", "LPArrays", "solve_lp", "solve_arrays"]

_OPT_TOL = 1e-9
_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-10
_REFACTOR_EVERY = 100


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass
class LPResult:
    status: LPStatus
    objective: float
    x: np.ndarray
    iterations: int
    # optimal basis, O(n+m) int8: one code per structural column, then one per
    # LPArrays row for its slack (codes as in _Simplex); None unless OPTIMAL
    basis: np.ndarray | None = None


@dataclass
class LPArrays:
    """Row/column form of a model: A x (sense) b, lo <= x <= up, min c x."""

    c: np.ndarray
    A: np.ndarray
    senses: list[str]  # '<', '=', '>'
    b: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    objective_constant: float = 0.0

    @classmethod
    def from_model(cls, model: Model, relax_binaries: bool = False) -> "LPArrays":
        n = len(model.variables)
        lo = np.array([v.lower for v in model.variables], dtype=float)
        up = np.array([v.upper for v in model.variables], dtype=float)
        if not relax_binaries:
            for v in model.variables:
                if v.domain is Domain.BINARY:
                    raise ValueError(f"variable {v.name!r} is binary; LP expects continuous")
        c = np.zeros(n)
        for var_id, coeff in model.objective.terms.items():
            c[var_id] = coeff
        rows, senses, b = [], [], []
        for con in model.constraints.values():
            if not con.active:
                continue
            if con.bilinear:
                raise ValueError(f"constraint {con.name!r} has bilinear terms; relax first")
            row = np.zeros(n)
            for var_id, coeff in con.linear.terms.items():
                row[var_id] = coeff
            rows.append(row)
            senses.append({"<=": "<", "==": "=", ">=": ">"}[con.sense.value])
            b.append(con.rhs - con.linear.constant)
        A = np.asarray(rows) if rows else np.zeros((0, n))
        return cls(c, A, senses, np.asarray(b, dtype=float), lo, up, model.objective.constant)


def solve_lp(
    model: Model,
    bound_overrides: dict[int, tuple[float, float]] | None = None,
    start: LPResult | None = None,
) -> LPResult:
    """Solve the (bilinear-free, continuous) model to LP optimality.

    ``start`` is an earlier result of the same model with rows appended since,
    as in a cut loop; see ``solve_arrays``.
    """
    return solve_arrays(LPArrays.from_model(model), bound_overrides, start)


def solve_arrays(
    arrays: LPArrays,
    bound_overrides: dict[int, tuple[float, float]] | None = None,
    start: LPResult | None = None,
) -> LPResult:
    """Solve the arrays to LP optimality.

    With ``start``, an optimal result over the same columns and a prefix of
    these rows, the solve re-optimizes from ``start.basis``: rows it has not
    seen enter with their slack basic, a dual phase restores primal
    feasibility and primal phase 2 finishes.  A start that does not fit, or a
    warm solve that ends in anything but a verified optimum, falls back to the
    cold solve, so ``start`` can change the time and the pivot count but
    never the status.  Without ``start`` the solve is cold.
    """
    lo = arrays.lo.copy()
    up = arrays.up.copy()
    if bound_overrides:
        for var_id, (vlo, vup) in bound_overrides.items():
            lo[var_id] = vlo
            up[var_id] = vup
    A, senses, b = arrays.A, arrays.senses, arrays.b
    keep = np.count_nonzero(A, axis=1) > 1
    for i in np.flatnonzero(~keep):
        # a row with at most one nonzero is a bound: a * x_j (sense) b
        (cols,) = np.nonzero(A[i])
        sense = senses[i]
        if not cols.size:
            if (sense != ">" and b[i] < -_FEAS_TOL) or (sense != "<" and b[i] > _FEAS_TOL):
                return LPResult(LPStatus.INFEASIBLE, math.inf, np.array([]), 0)
            continue
        j = cols[0]
        bound = b[i] / A[i, j]
        if A[i, j] < 0 and sense != "=":
            sense = "<" if sense == ">" else ">"
        if sense != ">":
            up[j] = min(up[j], bound)
        if sense != "<":
            lo[j] = max(lo[j], bound)
    # a quotient can land an ulp outside the box: snap such crossings shut
    with np.errstate(invalid="ignore"):
        snap = (lo > up) & (lo <= up + _FEAS_TOL * np.maximum(1.0, np.abs(up)))
    lo[snap] = up[snap]
    if np.any(lo > up):
        return LPResult(LPStatus.INFEASIBLE, math.inf, np.array([]), 0)
    n = A.shape[1]
    problem = (arrays.c, A[keep], [s for s, k in zip(senses, keep) if k], b[keep], lo, up)
    result, warm_iterations = None, 0
    start_codes = _start_codes(start, n, keep)
    if start_codes is not None:
        simplex = _Simplex(*problem, start=start_codes)
        result = simplex.run_warm()
        warm_iterations = simplex.iterations
    if result is None:
        simplex = _Simplex(*problem)
        result = simplex.run()
        result.iterations += warm_iterations
    if result.status is LPStatus.OPTIMAL:
        result.objective += arrays.objective_constant
        result.basis = np.full(n + keep.size, _Simplex.FOLDED, dtype=np.int8)
        codes = simplex.basis_codes()
        result.basis[:n] = codes[:n]
        result.basis[n:][keep] = codes[n:]
    return result


def _start_codes(start: LPResult | None, n: int, keep: np.ndarray) -> np.ndarray | None:
    """The start's codes over the columns and kept rows, or None if it does not fit.

    It fits when it has n columns and at most as many rows, every row it kept
    is kept again, and it makes as many variables basic as there are kept
    rows (at least one).  A row it has not seen (or folded) begins with its
    slack basic.
    """
    if start is None or start.basis is None or start.x.size != n or not keep.any():
        return None
    seen = start.basis.size - n
    if seen > keep.size:
        return None
    old = start.basis[n:]
    if np.any(old[~keep[:seen]] != _Simplex.FOLDED):
        return None  # a row it kept is folded now
    rows = np.full(keep.size, _Simplex.BASIC, dtype=np.int8)
    rows[:seen] = np.where(old == _Simplex.FOLDED, _Simplex.BASIC, old)
    codes = np.concatenate([start.basis[:n], rows[keep]])
    basic = np.isin(codes, (_Simplex.BASIC, _Simplex.ARTIFICIAL))
    if np.count_nonzero(basic) != np.count_nonzero(keep):
        return None
    return codes


class _Restart(Exception):
    """Basis repair left an artificial basic at a nonzero value; redo phase 1."""


class _Simplex:
    AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3
    # basis codes only: a row whose artificial is basic, a row folded into a bound
    ARTIFICIAL, FOLDED = 4, -1

    def __init__(self, c, A, senses, b, lo, up, start=None):
        m, n = A.shape
        self.m, self.n = m, n
        self.n_struct = n
        N = n + m + m  # structural | slacks | artificials
        self.N = N
        self.A = np.ascontiguousarray(A, dtype=float)
        self.sigma = np.ones(m)  # artificial i is sigma[i] * e_i
        slack_lo = np.zeros(m)
        slack_up = np.zeros(m)
        for i, sense in enumerate(senses):
            if sense == "<":
                slack_lo[i], slack_up[i] = 0.0, math.inf
            elif sense == ">":
                slack_lo[i], slack_up[i] = -math.inf, 0.0
            else:
                slack_lo[i], slack_up[i] = 0.0, 0.0
        self.lo = np.concatenate([lo, slack_lo, np.zeros(m)])
        self.up = np.concatenate([up, slack_up, np.full(m, math.inf)])
        self.b = b.astype(float)
        self.c_real = np.concatenate([c, np.zeros(2 * m)])
        self.art_start = n + m

        self.status = np.empty(N, dtype=np.int8)
        self.x = np.zeros(N)
        for j in range(n + m):
            self._park(j, self.lo[j])
        self.basis = np.arange(self.art_start, self.art_start + m)
        self.iterations = 0
        self.max_iterations = 20000 + 60 * (m + n)
        self._since_refactor = 0
        self._force_bland = False
        if start is None:
            self._cold_start()
        else:
            self._install(start)

    def _cold_start(self) -> None:
        """(Re)build a starting basis from the current point.

        Rows whose residual fits inside the slack bounds host it in the slack
        (basic, possibly at a bound value); only genuinely violated rows get
        an artificial, so phase 1 usually has little or nothing to do.
        """
        m, n = self.m, self.n
        for j in range(n + m):
            if self.status[j] == self.BASIC:
                self._park(j, self.x[j])
        self.lo[self.art_start :] = 0.0
        self.up[self.art_start :] = math.inf
        resid = self.b - self.A @ self.x[:n]
        self.basis = np.empty(m, dtype=int)
        sigma = self.sigma
        sigma[:] = 1.0
        for i in range(m):
            slack = n + i
            art = self.art_start + i
            r = resid[i]
            if self.lo[slack] - 1e-12 <= r <= self.up[slack] + 1e-12:
                r = min(max(r, self.lo[slack]), self.up[slack])
                self.basis[i] = slack
                self.x[slack] = r
                self.status[slack] = self.BASIC
                self.x[art] = 0.0
                self.status[art] = self.AT_LOWER
            else:
                self._park(slack, r)
                gap = r - self.x[slack]
                sigma[i] = 1.0 if gap >= 0 else -1.0
                self.basis[i] = art
                self.x[art] = abs(gap)
                self.status[art] = self.BASIC
        self.B_inv = np.diag(sigma) if m else np.zeros((0, 0))
        self.degenerate_pivots = 0
        self.bland = self._force_bland
        self._since_refactor = 0

    def _install(self, codes: np.ndarray) -> None:
        """Take the basis in codes (columns, then kept rows) in phase-2 form.

        Artificials are fixed at zero; a basic slack or artificial keeps its
        row's position and the basic structurals fill the other positions in
        column order.  Nonbasic columns rest at the bound their code names
        (the nearest finite one if that bound is now infinite).
        """
        m, n = self.m, self.n
        self.up[self.art_start :] = 0.0
        self.x[self.art_start :] = 0.0
        self.status[self.art_start :] = self.AT_LOWER
        # __init__ parked every column at its lower bound (or nearest finite)
        for j in np.flatnonzero(codes[:n] == self.AT_UPPER):
            self._park(j, self.up[j])
        structural = iter(np.flatnonzero(codes[:n] == self.BASIC))
        self.basis = np.empty(m, dtype=int)
        for i, code in enumerate(codes[n:]):
            if code == self.BASIC:
                self.basis[i] = n + i
            elif code == self.ARTIFICIAL:
                self.basis[i] = self.art_start + i
            else:
                self.basis[i] = next(structural)
        self.status[self.basis] = self.BASIC
        self.degenerate_pivots = 0
        self.bland = False

    def basis_codes(self) -> np.ndarray:
        """Status of each column, then of each row's slack (ARTIFICIAL where
        the row's artificial is basic)."""
        n, m = self.n, self.m
        codes = self.status[: n + m].copy()
        codes[n:][self.status[self.art_start :] == self.BASIC] = self.ARTIFICIAL
        return codes

    # -- helpers --------------------------------------------------------

    def _park(self, j: int, value: float) -> None:
        """Make j nonbasic at its finite bound nearest value, else free at 0."""
        lo, up = self.lo[j], self.up[j]
        if math.isfinite(lo) and (not math.isfinite(up) or abs(value - lo) <= abs(value - up)):
            self.x[j], self.status[j] = lo, self.AT_LOWER
        elif math.isfinite(up):
            self.x[j], self.status[j] = up, self.AT_UPPER
        else:
            self.x[j], self.status[j] = 0.0, self.FREE

    def _column(self, j: int) -> np.ndarray:
        """Column j: structural from A, slack i as e_i, artificial i as sigma_i * e_i."""
        if j < self.n:
            return self.A[:, j]
        i = (j - self.n) % self.m
        col = np.zeros(self.m)
        col[i] = 1.0 if j < self.art_start else self.sigma[i]
        return col

    def _basis_matrix(self) -> np.ndarray:
        """The m x m basis B whose inverse the pivot loop carries."""
        return np.column_stack([self._column(j) for j in self.basis])

    def _row_activity(self, x: np.ndarray) -> np.ndarray:
        """A x + slacks + sigma * artificials, for a full-length point x."""
        n, m = self.n, self.m
        return self.A @ x[:n] + x[n : n + m] + self.sigma * x[n + m :]

    def _recompute_basics(self) -> None:
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.B_inv @ (self.b - self._row_activity(xn))

    def _refactor(self) -> None:
        B = self._basis_matrix()
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError:
            self._repair_basis()
            return
        # spot-check the inverse; LAPACK returns garbage silently near
        # singularity instead of raising
        probe = np.zeros(self.m)
        probe[self.iterations % self.m] = 1.0
        if not np.all(np.isfinite(self.B_inv)) or (
            float(np.max(np.abs(B @ (self.B_inv @ probe) - probe))) > 1e-6
        ):
            self._repair_basis()
            return
        self._since_refactor = 0
        self._recompute_basics()

    def _repair_basis(self) -> None:
        """Replace linearly dependent basic columns with artificials.

        The repaired basis may leave an artificial at a nonzero value, i.e.
        primal infeasible; the caller restarts from phase 1 in that case.
        """
        m = self.m
        B = self._basis_matrix()
        Q = np.zeros((m, 0))
        dropped = []
        for k in range(m):
            col = B[:, k]
            r = col - Q @ (Q.T @ col)
            nrm = float(np.linalg.norm(r))
            if nrm > 1e-8 * max(1.0, float(np.linalg.norm(col))):
                Q = np.column_stack([Q, r / nrm])
            else:
                dropped.append(k)
        for k in dropped:
            out_var = int(self.basis[k])
            self._park(out_var, self.x[out_var])
            placed = False
            for row in range(m):
                art = self.art_start + row
                if self.status[art] == self.BASIC:
                    continue
                col = self._column(art)
                r = col - Q @ (Q.T @ col)
                if float(np.linalg.norm(r)) > 1e-8:
                    Q = np.column_stack([Q, r / float(np.linalg.norm(r))])
                    self.basis[k] = art
                    self.status[art] = self.BASIC
                    placed = True
                    break
            if not placed:
                raise NumericalFailure("basis repair found no replacement column")
        B = self._basis_matrix()
        try:
            self.B_inv = np.linalg.inv(B)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("basis still singular after repair") from exc
        self._recompute_basics()
        art_values = self.x[self.basis[self.basis >= self.art_start]]
        if dropped and (art_values.size and float(np.max(np.abs(art_values))) > 1e-9):
            raise _Restart

    def _choose_entering(self, d: np.ndarray) -> tuple[int, float]:
        # a fixed column (lo == up) has nowhere to move, so it is never priced
        movable = self.lo != self.up
        score = np.full(self.N, -math.inf)
        at_lo = (self.status == self.AT_LOWER) & movable
        at_up = (self.status == self.AT_UPPER) & movable
        free = self.status == self.FREE
        score[at_lo] = -d[at_lo]
        score[at_up] = d[at_up]
        score[free] = np.abs(d[free])
        if self.bland:
            eligible = score > _OPT_TOL
            if not eligible.any():
                return -1, 0.0
            enter = int(np.argmax(eligible))
        else:
            enter = int(np.argmax(score))
            if score[enter] <= _OPT_TOL:
                return -1, 0.0
        if self.status[enter] == self.AT_LOWER:
            direction = 1.0
        elif self.status[enter] == self.AT_UPPER:
            direction = -1.0
        else:
            direction = -math.copysign(1.0, d[enter])
        return enter, direction

    def _phase(self, c: np.ndarray) -> LPStatus | None:
        while True:
            self.iterations += 1
            if self.iterations > self.max_iterations:
                raise NumericalFailure(f"simplex exceeded {self.max_iterations} iterations")
            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactor()
            y = c[self.basis] @ self.B_inv
            d = self._reduced_costs(c, y)
            enter, direction = self._choose_entering(d)
            if enter < 0:
                return None  # phase optimal
            alpha = self.B_inv @ self._column(enter)
            steps = direction * alpha
            xB = self.x[self.basis]
            with np.errstate(divide="ignore", invalid="ignore"):
                t_lo = np.where(steps > _PIVOT_TOL, (xB - self.lo[self.basis]) / steps, math.inf)
                t_up = np.where(steps < -_PIVOT_TOL, (xB - self.up[self.basis]) / steps, math.inf)
            t_cand = np.maximum(np.minimum(t_lo, t_up), 0.0)
            t_cand[np.isnan(t_cand)] = math.inf
            t_min = float(t_cand.min()) if self.m else math.inf
            t_own = self.up[enter] - self.lo[enter]
            if t_own < t_min - _RATIO_TIE:
                # bound flip: entering travels its full range, basis unchanged
                self._count_degenerate(t_own)
                self.x[self.basis] = xB - t_own * steps
                self.status[enter] = (
                    self.AT_UPPER if self.status[enter] == self.AT_LOWER else self.AT_LOWER
                )
                self.x[enter] = (
                    self.up[enter] if self.status[enter] == self.AT_UPPER else self.lo[enter]
                )
                continue
            if not math.isfinite(t_min):
                return LPStatus.UNBOUNDED
            # Harris: t_max is the longest step that moves no basic variable
            # more than _FEAS_TOL past its bound; among the rows that block
            # within it prefer the largest pivot, so the inverse stays well
            # conditioned
            with np.errstate(divide="ignore"):
                t_max = float(np.min(t_cand + _FEAS_TOL / np.abs(steps)))
            ties = np.flatnonzero(t_cand <= t_max)
            if self.bland:
                leave = int(ties[np.argmin(self.basis[ties])])
            else:
                leave = int(ties[np.argmax(np.abs(steps[ties]))])
            pivot = alpha[leave]
            if abs(pivot) < 1e-7 and self._since_refactor > 0:
                # suspicious pivot on a stale inverse: refresh and retry
                self._refactor()
                continue
            t_leave = float(t_cand[leave])
            self._count_degenerate(t_leave)
            self._pivot(leave, enter, alpha, direction * t_leave, hit_lower=steps[leave] > 0)

    def _dual_phase(self) -> bool:
        """Bounded dual simplex on the real costs until the basis is primal
        feasible.

        Leaving: the basic variable with the largest bound violation.  Its
        pivot row is B_inv[r] [A | I | diag(sigma)].  Entering: Harris's
        two-pass ratio test on |d_j| / |alpha_rj| over the nonbasic columns
        whose move drives the leaving variable toward its violated bound;
        among the ties the largest |alpha_rj| wins, and fixed columns never
        enter.  Returns False when no column qualifies (the LP is infeasible,
        or the start was not dual feasible) or after 5*(m+n) pivots.
        """
        c = self.c_real
        movable = self.lo != self.up
        limit = self.iterations + 5 * (self.m + self.n)
        while True:
            self.iterations += 1
            if self.iterations > limit:
                return False
            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactor()
            xB = self.x[self.basis]
            below = self.lo[self.basis] - xB
            above = xB - self.up[self.basis]
            leave = int(np.argmax(np.maximum(below, above)))
            rising = below[leave] > above[leave]
            if max(below[leave], above[leave]) <= _FEAS_TOL:
                return True
            rho = self.B_inv[leave]
            alpha_r = np.concatenate([rho @ self.A, rho, self.sigma * rho])
            # moving x_j by +1 moves the leaving variable by -alpha_rj
            toward = -alpha_r if rising else alpha_r
            at_lo = self.status == self.AT_LOWER
            at_up = self.status == self.AT_UPPER
            free = self.status == self.FREE
            cand = movable & (
                (at_lo & (toward > _PIVOT_TOL)) | (at_up & (toward < -_PIVOT_TOL))
            )
            cand |= free & (np.abs(alpha_r) > _PIVOT_TOL)
            if not cand.any():
                return False
            d = self._reduced_costs(c, c[self.basis] @ self.B_inv)
            cols = np.flatnonzero(cand)
            # |d_j| on the dual feasible side: how far d_j may travel to zero
            room = np.where(at_up[cols], -d[cols], d[cols])
            room[free[cols]] = np.abs(room[free[cols]])
            room = np.maximum(room, 0.0)
            size = np.abs(alpha_r[cols])
            theta_max = float(np.min((room + _OPT_TOL) / size))
            ties = np.flatnonzero(room / size <= theta_max)
            enter = int(cols[ties[np.argmax(size[ties])]])
            alpha = self.B_inv @ self._column(enter)
            pivot = alpha[leave]
            if abs(pivot) < 1e-7 and self._since_refactor > 0:
                self._refactor()
                continue
            out_var = int(self.basis[leave])
            target = self.lo[out_var] if rising else self.up[out_var]
            self._pivot(leave, enter, alpha, (xB[leave] - target) / pivot, hit_lower=rising)

    def _pivot(
        self, leave: int, enter: int, alpha: np.ndarray, step: float, hit_lower: bool
    ) -> None:
        """Move `enter` by step into basis position `leave`.

        The basic variables move by -step * alpha, the leaving one rests at
        the bound it hit, and the inverse gets its rank-1 update on the
        nonzero support (a refactor when the pivot is tiny).
        """
        out_var = int(self.basis[leave])
        self.x[self.basis] -= step * alpha
        self.x[enter] += step
        self.x[out_var] = self.lo[out_var] if hit_lower else self.up[out_var]
        self.status[out_var] = self.AT_LOWER if hit_lower else self.AT_UPPER
        self.status[enter] = self.BASIC
        self.basis[leave] = enter
        pivot = alpha[leave]
        if abs(pivot) < _PIVOT_TOL:
            self._refactor()
            return
        # rank-1 update on the nonzero support: every skipped entry would
        # subtract an exact zero
        row = self.B_inv[leave, :] / pivot
        rows = np.flatnonzero(alpha)
        cols = np.flatnonzero(row)
        self.B_inv[np.ix_(rows, cols)] -= np.outer(alpha[rows], row[cols])
        self.B_inv[leave, :] = row
        self._since_refactor += 1

    def _reduced_costs(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d = c - y [A | I | diag(sigma)], without forming the m x N matrix."""
        n, m = self.n, self.m
        d = np.empty(self.N)
        d[:n] = c[:n] - y @ self.A
        d[n : n + m] = c[n : n + m] - y
        d[n + m :] = c[n + m :] - self.sigma * y
        return d

    def _count_degenerate(self, t: float) -> None:
        if t <= 1e-12:
            self.degenerate_pivots += 1
            if not self.bland and self.degenerate_pivots > 5 * (self.m + self.n):
                self.bland = True

    def run(self) -> LPResult:
        if self.m == 0:
            return self._bounds_only()
        restarts = 0
        while True:
            try:
                return self._run_two_phase()
            except _Restart:
                restarts += 1
                if restarts > 3:
                    raise NumericalFailure("repeated basis repairs; giving up")
                if restarts >= 2:
                    self._force_bland = True
                self._cold_start()

    def _run_two_phase(self) -> LPResult:
        c1 = np.zeros(self.N)
        c1[self.art_start :] = 1.0
        status = self._phase(c1)
        if status is LPStatus.UNBOUNDED:
            raise NumericalFailure("phase 1 reported an unbounded direction")
        scale = max(1.0, float(np.max(np.abs(self.b))))
        art_sum = float(np.sum(np.abs(self.x[self.art_start :])))
        if art_sum > 1e-7 * scale:
            return LPResult(
                LPStatus.INFEASIBLE, math.inf, self.x[: self.n_struct].copy(), self.iterations
            )
        self.up[self.art_start :] = 0.0
        return self._phase_two()

    def run_warm(self) -> LPResult | None:
        """Factor the installed basis, restore primal feasibility with the
        dual phase, then finish with primal phase 2.  None unless that ends in
        a verified optimum; the caller then solves cold."""
        try:
            self._refactor()
            if not self._dual_phase():
                return None
            result = self._phase_two()
        except (_Restart, NumericalFailure):
            return None
        return result if result.status is LPStatus.OPTIMAL else None

    def _phase_two(self) -> LPResult:
        self.degenerate_pivots = 0
        self.bland = self._force_bland
        status = self._phase(self.c_real)
        if status is LPStatus.UNBOUNDED:
            return LPResult(
                LPStatus.UNBOUNDED, -math.inf, self.x[: self.n_struct].copy(), self.iterations
            )
        self._refactor()
        if not np.all(np.isfinite(self.x)):
            raise _Restart
        resid = self._worst_residual()
        bound_drift = float(
            np.max(np.maximum(np.maximum(self.lo - self.x, self.x - self.up), 0.0))
        )
        if resid > 1e-7 or bound_drift > 1e-6:
            raise _Restart
        x = self.x[: self.n_struct].copy()
        obj = float(self.c_real[: self.n_struct] @ x)
        return LPResult(LPStatus.OPTIMAL, obj, x, self.iterations)

    def _worst_residual(self) -> float:
        scale = max(1.0, float(np.max(np.abs(self.b))))
        lhs = self._row_activity(self.x)
        return float(np.max(np.abs(lhs - self.b))) / scale

    def _bounds_only(self) -> LPResult:
        x = np.zeros(self.n_struct)
        c = self.c_real[: self.n_struct]
        for j in range(self.n_struct):
            if c[j] > 0:
                if not math.isfinite(self.lo[j]):
                    return LPResult(LPStatus.UNBOUNDED, -math.inf, x, 0)
                x[j] = self.lo[j]
            elif c[j] < 0:
                if not math.isfinite(self.up[j]):
                    return LPResult(LPStatus.UNBOUNDED, -math.inf, x, 0)
                x[j] = self.up[j]
            else:
                x[j] = self.lo[j] if math.isfinite(self.lo[j]) else (
                    self.up[j] if math.isfinite(self.up[j]) else 0.0
                )
            self._park(j, x[j])  # so that basis_codes reports where x[j] rests
        return LPResult(LPStatus.OPTIMAL, float(c @ x), x, 0)
