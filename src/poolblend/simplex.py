"""Bounded-variable primal simplex with a two-phase start.

Numpy implementation sized for the instances this package generates
(hundreds of rows).  Nonbasic variables rest at a bound, rows carry slacks,
and an artificial basis opens phase 1.  Only the structural columns are
stored (dense, m x n): slack i is the implicit unit column e_i and
artificial i is sigma_i * e_i.  The explicit basis inverse gets its rank-1
update on the nonzero support of the pivot column and pivot row only; the
skipped entries would subtract exact zeros, so the inverse, and with it the
pivot sequence, is the same as under a dense update.  Entering variable:
most negative reduced-cost direction (Dantzig), with a permanent switch to
Bland's rule after 5*(m+n) degenerate pivots so cycling cannot occur.
Deterministic for a fixed input: all ties break on the lowest variable
index.
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


@dataclass
class LPArrays:
    """Row/column form of a model: A x (sense) b, lo <= x <= up, min c x."""

    c: np.ndarray
    A: np.ndarray
    senses: list[str]  # '<', '=', '>'
    b: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    names: list[str]
    row_names: list[str]
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
        rows, senses, b, row_names = [], [], [], []
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
            row_names.append(con.name)
        A = np.asarray(rows) if rows else np.zeros((0, n))
        return cls(
            c,
            A,
            senses,
            np.asarray(b, dtype=float),
            lo,
            up,
            [v.name for v in model.variables],
            row_names,
            model.objective.constant,
        )


def solve_lp(model: Model, bound_overrides: dict[int, tuple[float, float]] | None = None) -> LPResult:
    """Solve the (bilinear-free, continuous) model to LP optimality."""
    return solve_arrays(LPArrays.from_model(model), bound_overrides)


def solve_arrays(arrays: LPArrays, bound_overrides: dict[int, tuple[float, float]] | None = None) -> LPResult:
    lo = arrays.lo.copy()
    up = arrays.up.copy()
    if bound_overrides:
        for var_id, (vlo, vup) in bound_overrides.items():
            lo[var_id] = vlo
            up[var_id] = vup
    if np.any(lo > up):
        return LPResult(LPStatus.INFEASIBLE, math.inf, np.array([]), 0)
    result = _Simplex(arrays.c, arrays.A, arrays.senses, arrays.b, lo, up).run()
    if result.status is LPStatus.OPTIMAL:
        result.objective += arrays.objective_constant
    return result


class _Restart(Exception):
    """Basis repair left an artificial basic at a nonzero value; redo phase 1."""


class _Simplex:
    AT_LOWER, AT_UPPER, FREE, BASIC = 0, 1, 2, 3

    def __init__(self, c, A, senses, b, lo, up):
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
            if math.isfinite(self.lo[j]):
                self.status[j] = self.AT_LOWER
                self.x[j] = self.lo[j]
            elif math.isfinite(self.up[j]):
                self.status[j] = self.AT_UPPER
                self.x[j] = self.up[j]
            else:
                self.status[j] = self.FREE
                self.x[j] = 0.0
        self.basis = np.arange(self.art_start, self.art_start + m)
        self.iterations = 0
        self.max_iterations = 20000 + 60 * (m + n)
        self._since_refactor = 0
        self._force_bland = False
        self._cold_start()

    def _cold_start(self) -> None:
        """(Re)build a starting basis from the current point.

        Rows whose residual fits inside the slack bounds host it in the slack
        (basic, possibly at a bound value); only genuinely violated rows get
        an artificial, so phase 1 usually has little or nothing to do.
        """
        m, n = self.m, self.n
        for j in range(n + m):
            if self.status[j] == self.BASIC:
                value, lo, up = self.x[j], self.lo[j], self.up[j]
                if math.isfinite(lo) and (not math.isfinite(up) or abs(value - lo) <= abs(value - up)):
                    self.x[j] = lo
                    self.status[j] = self.AT_LOWER
                elif math.isfinite(up):
                    self.x[j] = up
                    self.status[j] = self.AT_UPPER
                else:
                    self.x[j] = 0.0
                    self.status[j] = self.FREE
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
                # park the slack at the bound nearest the residual
                if r < self.lo[slack]:
                    self.x[slack] = self.lo[slack]
                    self.status[slack] = self.AT_LOWER
                else:
                    self.x[slack] = self.up[slack]
                    self.status[slack] = self.AT_UPPER
                gap = r - self.x[slack]
                sigma[i] = 1.0 if gap >= 0 else -1.0
                self.basis[i] = art
                self.x[art] = abs(gap)
                self.status[art] = self.BASIC
        self.B_inv = np.diag(sigma) if m else np.zeros((0, 0))
        self.degenerate_pivots = 0
        self.bland = self._force_bland
        self._since_refactor = 0

    # -- helpers --------------------------------------------------------

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
            value = self.x[out_var]
            lo, up = self.lo[out_var], self.up[out_var]
            if math.isfinite(lo) and (not math.isfinite(up) or abs(value - lo) <= abs(value - up)):
                self.x[out_var] = lo
                self.status[out_var] = self.AT_LOWER
            elif math.isfinite(up):
                self.x[out_var] = up
                self.status[out_var] = self.AT_UPPER
            else:
                self.x[out_var] = 0.0
                self.status[out_var] = self.FREE
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
        score = np.full(self.N, -math.inf)
        at_lo = self.status == self.AT_LOWER
        at_up = self.status == self.AT_UPPER
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
                if not math.isfinite(t_own):
                    return LPStatus.UNBOUNDED
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
            # stability window: among near-minimal ratios prefer the largest
            # pivot so the basis inverse stays well conditioned
            window = max(_RATIO_TIE, 1e-7 * (1.0 + abs(t_min)))
            ties = np.flatnonzero(t_cand <= t_min + window)
            if self.bland:
                leave = int(ties[np.argmin(self.basis[ties])])
            else:
                leave = int(ties[np.argmax(np.abs(steps[ties]))])
            pivot = alpha[leave]
            if abs(pivot) < 1e-7 and self._since_refactor > 0:
                # suspicious pivot on a stale inverse: refresh and retry
                self._refactor()
                continue
            t_leave = float(min(t_cand[leave], t_min + window))
            self._count_degenerate(t_leave)
            out_var = int(self.basis[leave])
            hit_lower = steps[leave] > 0
            self.x[self.basis] = xB - t_leave * steps
            self.x[enter] += direction * t_leave
            self.x[out_var] = self.lo[out_var] if hit_lower else self.up[out_var]
            self.status[out_var] = self.AT_LOWER if hit_lower else self.AT_UPPER
            self.status[enter] = self.BASIC
            self.basis[leave] = enter
            if abs(pivot) < _PIVOT_TOL:
                self._refactor()
                continue
            # rank-1 update on the nonzero support: every skipped entry
            # would subtract an exact zero
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
        return LPResult(LPStatus.OPTIMAL, float(c @ x), x, 0)
