"""Bounded-variable primal simplex with a two-phase start, and a dual phase
that re-optimizes from an earlier optimal basis.

Numpy implementation sized for the instances this package generates
(hundreds of rows).  ``LPArrays`` holds the rows by their entries, filled
from each row's terms, and no m x n array is formed between the model and
the result.  ``solve_arrays`` decides what the simplex carries from the
entries' row counts, stored zeros included: after the bound overrides, every
row with at most one entry is a bound, so ``a * x_j (sense) b`` tightens the
box of x_j by b/a (the sense flips for a < 0) and an empty row is checked
and dropped.  All such rows fold at once, with the same boxes as one by one.
A box that crosses by at most 1e-9 relative is snapped to a point, since a
quotient can land an ulp outside; a wider crossing is infeasible.  The
solution keeps every column.

Nonbasic variables rest at a bound, rows carry slacks, and an artificial
basis opens phase 1.  Only the structural columns are stored, by their
nonzeros (column pointers, row indices and values, ordered by column, then
row): pricing and a pivot row are one weighted ``np.bincount`` over the
nonzeros, and so is a row activity, and B_inv times structural column j
reads only the columns of B_inv on j's rows.  Slack i is the implicit unit
column e_i and artificial i is sigma_i * e_i, so B_inv times either is one
column of B_inv.  Pricing's y = c_B B_inv reads only the rows of B_inv
whose basic cost is nonzero (Bixby 2002): in phase 1 the artificials, in
phase 2 the basic structurals with a cost, a few percent of the basis on
the large root LPs.  A refactor inverts only the structural kernel, the
basic structural columns on the rows that no basic unit column covers, and
assembles the explicit basis inverse blockwise from it (Suhl & Suhl's
triangular pre-pass over the unit columns): O(k^3 + (m-k) k^2) for k basic
structurals, against O(m^3) for the whole basis.  Each refactor checks the
inverse on B (B_inv 1) = 1, which every column of B_inv enters, and repairs
the basis when a row misses by more than 1e-6.  It keeps the basic
structural columns by their nonzeros, scatters only the kernel (and, for
the basis repair, the kernel rows) into a dense block, and writes the unit
rows' block of the inverse a slab of rows at a time, so no dense m x k block
of the basis forms.  Between refactors the inverse gets a rank-1 update:
the whole outer product when the nonzero supports of the pivot column and
pivot row span more than 1/4 of B_inv, else only the entries on that
support, both in slabs of rows.  The skipped entries would subtract exact
zeros, so both kernels give the same inverse up to the sign of a zero, and
the same pivots.  Besides B_inv, a solve's largest temporaries are then the
kernel and its inverse, and one slab of rows.  Entering variable: most
negative reduced-cost direction (Dantzig) over the columns that can move, so
fixed structurals, equality-row slacks and phase-2 artificials are never
priced, with a permanent switch to Bland's rule after 5*(m+n) degenerate
pivots so cycling cannot occur.  Leaving variable: Harris's two-pass ratio
test with an absolute tolerance, so no basic variable passes a bound by more
than 1e-9; among the rows that block within that step the largest pivot
wins.  Deterministic for a fixed input: all ties break on the lowest
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
enter.  The reduced costs d are formed once per factor and then updated from
each pivot row.  A violated row that no column can fix is checked on a fresh
factor as a Farkas certificate (Koberstein's dual ray): when no point of the
nonbasic boxes brings its basic variable within bounds, the solve ends
INFEASIBLE.  Otherwise primal phase 2 cleans up drift, followed by the same
final refactor and residual checks as a cold solve.  Both phases pivot
through one update routine.  A start that does not fit, and a warm solve
that ends in neither a verified optimum nor that proof, fall back to the
cold two-phase solve.  The proof asks for a miss beyond the residual at
which a cold phase 1 reports infeasibility, so a start can change time and
pivots but not the status.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import NumericalFailure
from .model import Domain, Model

__all__ = ["LPStatus", "LPResult", "LPArrays", "solve_lp", "solve_arrays"]

_OPT_TOL = 1e-9
_FEAS_TOL = 1e-9
_PIVOT_TOL = 1e-10
_RATIO_TIE = 1e-10
_REFACTOR_EVERY = 100
# the rank-1 update subtracts the whole outer product once its support covers
# more than 1/_DENSE_UPDATE of B_inv: contiguous passes beat the gather and
# scatter of np.ix_ there.  Both updates, pricing and the refactor's unit
# block go _SLAB rows at a time, so a temporary stays in cache when B_inv
# does not (m in the hundreds) and small beside it
_DENSE_UPDATE = 4
_SLAB = 128


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
    """Row/column form of a model: A x (sense) b, lo <= x <= up, min c x.

    A is held by its entries, in ascending row order: vals[k] sits at
    (rows[k], cols[k]).  A row's entry count, stored zeros included, decides
    whether ``solve_arrays`` folds it; ``from_model`` stores nonzeros only.
    """

    c: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    senses: list[str]  # '<', '=', '>'
    b: np.ndarray
    lo: np.ndarray
    up: np.ndarray
    objective_constant: float = 0.0

    @property
    def A(self) -> np.ndarray:
        """A dense, read-only copy of the rows, for inspection; the solve
        never forms it."""
        dense = np.zeros((self.b.size, self.c.size))
        dense[self.rows, self.cols] = self.vals
        dense.flags.writeable = False
        return dense

    @classmethod
    def from_model(cls, model: Model, relax_binaries: bool = False) -> "LPArrays":
        lo = np.array([v.lower for v in model.variables], dtype=float)
        up = np.array([v.upper for v in model.variables], dtype=float)
        if not relax_binaries:
            for v in model.variables:
                if v.domain is Domain.BINARY:
                    raise ValueError(f"variable {v.name!r} is binary; LP expects continuous")
        if model.objective_bilinear:
            raise ValueError("the objective has bilinear terms; relax first")
        c = np.zeros(len(model.variables))
        for var_id, coeff in model.objective.terms.items():
            c[var_id] = coeff
        active = [con for con in model.constraints.values() if con.active]
        b = np.empty(len(active))
        senses, lengths, cols, vals = [], [], [], []
        for i, con in enumerate(active):
            if con.bilinear:
                raise ValueError(f"constraint {con.name!r} has bilinear terms; relax first")
            terms = con.linear.terms
            lengths.append(len(terms))
            cols.extend(terms)
            vals.extend(terms.values())
            senses.append({"<=": "<", "==": "=", ">=": ">"}[con.sense.value])
            b[i] = con.rhs - con.linear.constant
        # LinearExpr holds no zero terms, so every term is a nonzero
        rows = np.repeat(np.arange(len(active)), lengths)
        cols, vals = np.array(cols, dtype=np.intp), np.array(vals, dtype=float)
        return cls(c, rows, cols, vals, senses, b, lo, up, model.objective.constant)


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
    feasibility or proves the rows infeasible, and primal phase 2 finishes.
    The start may come from arrays with other coefficients or boxes, as a
    fixed-q LP starts from one at another q: its basis is then neither
    primal nor dual feasible in general, and it only saves pivots when it
    is near.  A start that does not fit, or a warm solve that ends in
    neither a verified optimum nor a proof of infeasibility, falls back to
    the cold solve, so ``start`` can change the time and the pivot count but
    not the status.  Without ``start`` the solve is cold.
    """
    lo = arrays.lo.copy()
    up = arrays.up.copy()
    if bound_overrides:
        for var_id, (vlo, vup) in bound_overrides.items():
            lo[var_id] = vlo
            up[var_id] = vup
    rows, cols, vals, b = arrays.rows, arrays.cols, arrays.vals, arrays.b
    kinds = np.array(arrays.senses, dtype=str)
    n = arrays.c.size
    counts = np.bincount(rows, minlength=b.size)
    if not _fold_singleton_rows(rows, cols, vals, counts, kinds, b, lo, up):
        return LPResult(LPStatus.INFEASIBLE, math.inf, np.array([]), 0)
    keep = counts > 1
    kept = keep[rows]
    renumber = np.cumsum(keep) - 1
    problem = (
        arrays.c, renumber[rows[kept]], cols[kept], vals[kept], kinds[keep], b[keep], lo, up
    )
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


def _fold_singleton_rows(rows, cols, vals, counts, kinds, b, lo, up) -> bool:
    """Fold every row with at most one entry into lo and up, in place.

    counts includes stored zeros.  Row i with the one entry a (nonzero) at
    column j is a * x_j (sense) b, a bound b / a on x_j; the sense flips for
    a < 0.  An empty row is only checked.
    Returns False when an empty row is violated or a box crosses by more
    than 1e-9 relative; a box that crosses by less is snapped to a point,
    since a quotient can land an ulp outside it.
    """
    empty = counts == 0
    if np.any(
        empty
        & (((kinds != ">") & (b < -_FEAS_TOL)) | ((kinds != "<") & (b > _FEAS_TOL)))
    ):
        return False
    single = counts[rows] == 1
    i, j, a = rows[single], cols[single], vals[single]
    bound = b[i] / a
    sense = kinds[i]
    both = sense == "="
    upper = (sense == "<") != (a < 0)
    _tighten(up, j[both | upper], bound[both | upper], np.minimum, np.less)
    _tighten(lo, j[both | ~upper], bound[both | ~upper], np.maximum, np.greater)
    with np.errstate(invalid="ignore"):
        snap = (lo > up) & (lo <= up + _FEAS_TOL * np.maximum(1.0, np.abs(up)))
    lo[snap] = up[snap]
    return not np.any(lo > up)


def _tighten(box, j, bound, tightest, tighter) -> None:
    """Tighten box[j] by each bound, in order, as the loop ``box[j] =
    min(box[j], bound)`` would (``max`` for a lower bound): a bound
    replaces box[j] only when strictly tighter, so of equal values the
    earliest wins, and the sign of a zero comes out as the loop's."""
    best = box.copy()
    tightest.at(best, j, bound)
    hit = bound == best[j]
    at, first = np.unique(j[hit], return_index=True)
    value = bound[hit][first]
    moved = tighter(value, box[at])
    box[at[moved]] = value[moved]


class _Split(NamedTuple):
    """The basis by kind of column; unit columns are slacks and artificials."""

    struct: np.ndarray  # basis positions of the structural columns
    unit: np.ndarray  # basis positions of the unit columns
    rows: np.ndarray  # the row each unit column covers
    signs: np.ndarray  # its entry there: +1, or sigma for an artificial
    covered: np.ndarray  # mask of the rows some unit column covers
    kernel: np.ndarray  # the other rows
    # the basic structural columns by their nonzeros: nz_vals[k] sits on row
    # nz_rows[k] of the column at struct[nz_pos[k]]
    nz_rows: np.ndarray
    nz_pos: np.ndarray
    nz_vals: np.ndarray


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

    def __init__(self, c, rows, cols, vals, senses, b, lo, up, start=None):
        """The LP min c x over rows A x (sense) b and the box lo <= x <= up,
        with A given by its nonzeros: vals[k] sits at (rows[k], cols[k])."""
        m, n = b.size, c.size
        self.m, self.n = m, n
        N = n + m + m  # structural | slacks | artificials
        self.N = N
        # A by columns: column j holds the entries col_ptr[j]:col_ptr[j+1],
        # ordered by column, then row
        order = np.lexsort((rows, cols))
        self.row_idx = np.asarray(rows, dtype=np.intp)[order]
        self.col_idx = np.asarray(cols, dtype=np.intp)[order]
        self.vals = np.asarray(vals, dtype=float)[order]
        self.col_ptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(np.bincount(self.col_idx, minlength=n), out=self.col_ptr[1:])
        self.sigma = np.ones(m)  # artificial i is sigma[i] * e_i
        kinds = np.array(senses, dtype=str)
        slack_lo = np.where(kinds == ">", -math.inf, 0.0)
        slack_up = np.where(kinds == "<", math.inf, 0.0)
        self.lo = np.concatenate([lo, slack_lo, np.zeros(m)])
        self.up = np.concatenate([up, slack_up, np.full(m, math.inf)])
        self.b = b.astype(float)
        self.c_real = np.concatenate([c, np.zeros(2 * m)])
        self.art_start = n + m

        self.status = np.empty(N, dtype=np.int8)
        self.x = np.zeros(N)
        self._park(np.arange(n + m), self.lo[: n + m])
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
        basic = np.flatnonzero(self.status[: n + m] == self.BASIC)
        self._park(basic, self.x[basic])
        self.lo[self.art_start :] = 0.0
        self.up[self.art_start :] = math.inf
        resid = self.b - self._dot_rows(self.x[:n])
        slack = np.arange(n, n + m)
        lo, up = self.lo[slack], self.up[slack]
        fits = (lo - 1e-12 <= resid) & (resid <= up + 1e-12)
        # clamped as min(max(r, lo), up) would: a tie keeps r, and its zero's sign
        r = np.where(lo > resid, lo, resid)
        r = np.where(up < r, up, r)
        self.x[slack[fits]] = r[fits]
        self.status[slack[fits]] = self.BASIC
        self._park(slack[~fits], resid[~fits])
        gap = resid - self.x[slack]
        self.sigma[:] = np.where(fits | (gap >= 0), 1.0, -1.0)
        self.basis = np.where(fits, slack, slack + m)
        self.x[self.art_start :] = np.where(fits, 0.0, np.abs(gap))
        self.status[self.art_start :] = np.where(fits, self.AT_LOWER, self.BASIC)
        self.B_inv = np.diag(self.sigma)
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
        upper = np.flatnonzero(codes[:n] == self.AT_UPPER)
        self._park(upper, self.up[upper])
        slack = codes[n:] == self.BASIC
        art = codes[n:] == self.ARTIFICIAL
        self.basis = np.empty(m, dtype=int)
        self.basis[slack] = n + np.flatnonzero(slack)
        self.basis[art] = self.art_start + np.flatnonzero(art)
        self.basis[~(slack | art)] = np.flatnonzero(codes[:n] == self.BASIC)
        self.status[self.basis] = self.BASIC
        self.B_inv = np.empty((m, m))  # run_warm factors the basis into it
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

    def _park(self, j, value) -> None:
        """Make column j nonbasic at its finite bound nearest value, else free
        at 0; j and value may be matching arrays."""
        lo, up = self.lo[j], self.up[j]
        lo_ok, up_ok = np.isfinite(lo), np.isfinite(up)
        with np.errstate(invalid="ignore"):  # inf - inf where lo_ok is False
            at_lo = lo_ok & (~up_ok | (np.abs(value - lo) <= np.abs(value - up)))
        at_up = ~at_lo & up_ok
        self.x[j] = np.where(at_lo, lo, np.where(at_up, up, 0.0))
        self.status[j] = np.where(
            at_lo, self.AT_LOWER, np.where(at_up, self.AT_UPPER, self.FREE)
        )

    def _dot_columns(self, y: np.ndarray) -> np.ndarray:
        """y A: y times each structural column, over its nonzeros."""
        weights = y[self.row_idx] * self.vals
        return np.bincount(self.col_idx, weights=weights, minlength=self.n)

    def _dot_rows(self, x: np.ndarray) -> np.ndarray:
        """A x for the structural part x, over the nonzeros."""
        weights = self.vals * x[self.col_idx]
        return np.bincount(self.row_idx, weights=weights, minlength=self.m)

    def _ftran(self, j: int) -> np.ndarray:
        """B_inv times column j, over its nonzeros; slack i is e_i and
        artificial i sigma_i * e_i, so theirs is one column of B_inv."""
        if j < self.n:
            at = slice(self.col_ptr[j], self.col_ptr[j + 1])
            return self.B_inv[:, self.row_idx[at]] @ self.vals[at]
        i = (j - self.n) % self.m
        return self.B_inv[:, i] * (1.0 if j < self.art_start else self.sigma[i])

    def _split(self) -> _Split:
        """Where the basis keeps its structural and its unit columns."""
        basis = self.basis
        struct = np.flatnonzero(basis < self.n)
        unit = np.flatnonzero(basis >= self.n)
        rows = (basis[unit] - self.n) % self.m
        signs = np.where(basis[unit] < self.art_start, 1.0, self.sigma[rows])
        covered = np.zeros(self.m, dtype=bool)
        covered[rows] = True
        cols = basis[struct]
        starts = self.col_ptr[cols]
        lengths = self.col_ptr[cols + 1] - starts
        # entry k of column t is nonzero starts[t] + k
        offsets = np.cumsum(lengths) - lengths
        at = np.arange(lengths.sum()) + np.repeat(starts - offsets, lengths)
        return _Split(
            struct, unit, rows, signs, covered, np.flatnonzero(~covered),
            self.row_idx[at], np.repeat(np.arange(cols.size), lengths), self.vals[at],
        )

    def _basic_rows(self, split: _Split, rows: np.ndarray) -> np.ndarray:
        """S[rows] for the basic structural columns S, dense (len(rows) x
        len(struct)), scattered from their nonzeros; rows are distinct."""
        where = np.full(self.m, -1)
        where[rows] = np.arange(rows.size)
        at = where[split.nz_rows]
        hit = at >= 0
        block = np.zeros((rows.size, split.struct.size))
        block[at[hit], split.nz_pos[hit]] = split.nz_vals[hit]
        return block

    def _row_activity(self, x: np.ndarray) -> np.ndarray:
        """A x + slacks + sigma * artificials, for a full-length point x."""
        n, m = self.n, self.m
        return self._dot_rows(x[:n]) + x[n : n + m] + self.sigma * x[n + m :]

    def _recompute_basics(self) -> None:
        xn = self.x.copy()
        xn[self.basis] = 0.0
        self.x[self.basis] = self.B_inv @ (self.b - self._row_activity(xn))

    def _refactor(self) -> None:
        # check the inverse against B; LAPACK returns garbage silently near
        # singularity instead of raising
        split = self._split()
        if (
            not self._factor(split)
            or not np.all(np.isfinite(self.B_inv))
            or self._probe_error(split) > 1e-6
        ):
            self._repair_basis()
            return
        self._since_refactor = 0
        self._recompute_basics()

    def _factor(self, split: _Split) -> bool:
        """Write the inverse of the basis into B_inv from the inverse of its
        structural kernel.

        With S the basic structural columns, U the rows the basic unit columns
        cover, D their signs and R the other rows, the kernel is K = S[R] and
        B_inv[struct, R] = K^-1, B_inv[struct, U] = 0, B_inv[unit, U] = D,
        B_inv[unit, R] = -D S[U] K^-1.  The last block is zero on the unit
        rows where S has no nonzero; on the others it is formed and written
        _SLAB rows at a time.  Returns False, leaving B_inv as it was, when
        two unit columns cover one row or K is singular.
        """
        struct, unit, rows, signs, _, kernel = split[:6]
        if kernel.size != struct.size:
            return False  # a row covered twice
        try:
            K_inv = np.linalg.inv(self._basic_rows(split, kernel))
        except np.linalg.LinAlgError:
            return False
        B_inv = self.B_inv
        B_inv.fill(0.0)
        B_inv[np.ix_(struct, kernel)] = K_inv
        B_inv[unit, rows] = signs
        meets = np.zeros(self.m, dtype=bool)
        meets[split.nz_rows] = True
        touched = np.flatnonzero(meets[rows])  # the unit columns on a row of S
        for i in range(0, touched.size, _SLAB):
            t = touched[i : i + _SLAB]
            block = self._basic_rows(split, rows[t]) @ K_inv
            block *= -signs[t, None]
            B_inv[np.ix_(unit[t], kernel)] = block
        return True

    def _probe_error(self, split: _Split) -> float:
        """max |B (B_inv 1) - 1|, with B applied over its nonzeros: every
        column of B_inv enters it."""
        col = self.B_inv @ np.ones(self.m)
        weights = split.nz_vals * col[split.struct][split.nz_pos]
        # float even when no structural is basic: bincount of nothing is int
        image = np.bincount(split.nz_rows, weights=weights, minlength=self.m).astype(float)
        image[split.rows] += split.signs * col[split.unit]
        return float(np.max(np.abs(image - 1.0)))

    def _repair_basis(self) -> None:
        """Replace linearly dependent basic columns with artificials.

        A unit column on a row that an earlier basic unit column covers is
        dependent, and so is a structural column whose part on the uncovered
        rows Gram-Schmidt finds in the span of the earlier ones.  Each takes
        the artificial of an uncovered row outside that span.  The repaired
        basis may leave an artificial at a nonzero value, i.e. primal
        infeasible; the caller restarts from phase 1 in that case.
        """
        split = self._split()
        struct, unit, rows, _, covered, kernel = split[:6]
        first = np.unique(rows, return_index=True)[1]
        dropped = np.delete(unit, first).tolist()
        Q = np.zeros((kernel.size, 0))
        for k, col in zip(struct, self._basic_rows(split, kernel).T):
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
            for at, row in enumerate(kernel):
                if covered[row]:
                    continue
                # the row's unit vector on the kernel rows, less its projection
                r = -Q @ Q[at]
                r[at] += 1.0
                if float(np.linalg.norm(r)) > 1e-8:
                    Q = np.column_stack([Q, r / float(np.linalg.norm(r))])
                    art = self.art_start + row
                    self.basis[k] = art
                    self.status[art] = self.BASIC
                    covered[row] = True
                    placed = True
                    break
            if not placed:
                raise NumericalFailure("basis repair found no replacement column")
        if not self._factor(self._split()):
            raise NumericalFailure("basis still singular after repair")
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
            d = self._reduced_costs(c, self._btran(c))
            enter, direction = self._choose_entering(d)
            if enter < 0:
                return None  # phase optimal
            alpha = self._ftran(enter)
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

    def _dual_phase(self) -> LPStatus | None:
        """Bounded dual simplex on the real costs until the basis is primal
        feasible.

        Leaving: the basic variable with the largest bound violation.  Its
        pivot row is alpha_r = B_inv[r] [A | I | diag(sigma)].  Entering:
        Harris's two-pass ratio test on |d_j| / |alpha_rj| over the nonbasic
        columns whose move drives the leaving variable toward its violated
        bound; among the ties the largest |alpha_rj| wins, and fixed columns
        never enter.  The reduced costs d are formed once per factor and then
        updated from the pivot row, d -= d_q / alpha_rq * alpha_r.

        Returns OPTIMAL once the basis is primal feasible, INFEASIBLE when a
        row with no entering column is, on a fresh factor, a certificate
        (``_proves_infeasible``), and None when it is not one or after
        5*(m+n) pivots.  A row with no entering column proves infeasibility
        whatever the reduced costs are, so the start need not be dual
        feasible for that.
        """
        c = self.c_real
        movable = self.lo != self.up
        limit = self.iterations + 5 * (self.m + self.n)
        d = None  # reduced costs, formed again after each refactor
        while True:
            self.iterations += 1
            if self.iterations > limit:
                return None
            if self.iterations % _REFACTOR_EVERY == 0:
                self._refactor()
                d = None
            xB = self.x[self.basis]
            below = self.lo[self.basis] - xB
            above = xB - self.up[self.basis]
            leave = int(np.argmax(np.maximum(below, above)))
            rising = below[leave] > above[leave]
            if max(below[leave], above[leave]) <= _FEAS_TOL:
                return LPStatus.OPTIMAL
            rho = self.B_inv[leave]
            alpha_r = np.concatenate([self._dot_columns(rho), rho, self.sigma * rho])
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
                if self._since_refactor > 0:
                    self._refactor()  # judge the row on a fresh factor
                    d = None
                    continue
                proof = self._proves_infeasible(leave, alpha_r, rising)
                return LPStatus.INFEASIBLE if proof else None
            if d is None:
                d = self._reduced_costs(c, self._btran(c))
            cols = np.flatnonzero(cand)
            # |d_j| on the dual feasible side: how far d_j may travel to zero
            room = np.where(at_up[cols], -d[cols], d[cols])
            room[free[cols]] = np.abs(room[free[cols]])
            room = np.maximum(room, 0.0)
            size = np.abs(alpha_r[cols])
            theta_max = float(np.min((room + _OPT_TOL) / size))
            ties = np.flatnonzero(room / size <= theta_max)
            enter = int(cols[ties[np.argmax(size[ties])]])
            alpha = self._ftran(enter)
            pivot = alpha[leave]
            if abs(pivot) < 1e-7 and self._since_refactor > 0:
                self._refactor()
                d = None
                continue
            out_var = int(self.basis[leave])
            target = self.lo[out_var] if rising else self.up[out_var]
            if self._pivot(leave, enter, alpha, (xB[leave] - target) / pivot, hit_lower=rising):
                d -= d[enter] / alpha_r[enter] * alpha_r
            else:
                d = None

    def _proves_infeasible(self, leave: int, alpha_r: np.ndarray, rising: bool) -> bool:
        """Whether pivot row alpha_r of basis position ``leave`` is a Farkas
        certificate against the nonbasic boxes.

        Every point of the rows has x_B[leave] = rho b - sum_N alpha_rj x_j,
        with rho = B_inv[leave].  Setting each nonbasic column with
        alpha_rj != 0 to the bound of its box that moves x_B[leave] furthest
        toward the bound it violates gives the nearest value it can reach.
        An infinite bound there makes that value infinite on the feasible
        side, which proves nothing.  The proof needs the value to miss the
        bound by more than 1e-7 * max(1, |b|_max) * |rho|_max: then every
        point of the boxes leaves the rows a total residual above phase 1's
        infeasibility threshold, so a cold solve agrees.
        """
        out_var = int(self.basis[leave])
        rho = self.B_inv[leave]
        nonbasic = (self.status != self.BASIC) & (alpha_r != 0.0)
        a = alpha_r[nonbasic]
        # raising x_j lowers x_B[leave] when alpha_rj > 0
        bound = np.where((a > 0) == rising, self.lo[nonbasic], self.up[nonbasic])
        reach = float(rho @ self.b - a @ bound)
        miss = self.lo[out_var] - reach if rising else reach - self.up[out_var]
        scale = max(1.0, float(np.max(np.abs(self.b))))
        return miss > 1e-7 * scale * float(np.max(np.abs(rho)))

    def _pivot(
        self, leave: int, enter: int, alpha: np.ndarray, step: float, hit_lower: bool
    ) -> bool:
        """Move `enter` by step into basis position `leave`.

        The basic variables move by -step * alpha, the leaving one rests at
        the bound it hit, and the inverse gets its rank-1 update.  Returns
        False when the pivot is tiny and the basis was refactored instead.
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
            return False
        # off the nonzero support of alpha and row the update subtracts exact
        # zeros, so both kernels give the same inverse up to the sign of a zero
        row = self.B_inv[leave, :] / pivot
        rows = np.flatnonzero(alpha)
        cols = np.flatnonzero(row)
        if _DENSE_UPDATE * rows.size * cols.size > self.m * self.m:
            for i in range(0, self.m, _SLAB):
                self.B_inv[i : i + _SLAB] -= np.outer(alpha[i : i + _SLAB], row)
        else:
            on_cols = row[cols]
            for i in range(0, rows.size, _SLAB):
                at = rows[i : i + _SLAB]
                self.B_inv[np.ix_(at, cols)] -= np.outer(alpha[at], on_cols)
        self.B_inv[leave, :] = row
        self._since_refactor += 1
        return True

    def _btran(self, c: np.ndarray) -> np.ndarray:
        """y = c_B B_inv, from only the rows of B_inv whose basic cost is
        nonzero, _SLAB of them at a time."""
        costs = c[self.basis]
        on = np.flatnonzero(costs)
        y = np.zeros(self.m)
        for i in range(0, on.size, _SLAB):
            at = on[i : i + _SLAB]
            y += costs[at] @ self.B_inv[at]
        return y

    def _reduced_costs(self, c: np.ndarray, y: np.ndarray) -> np.ndarray:
        """d = c - y [A | I | diag(sigma)], without forming the m x N matrix."""
        n, m = self.n, self.m
        d = np.empty(self.N)
        d[:n] = c[:n] - self._dot_columns(y)
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
                LPStatus.INFEASIBLE, math.inf, self.x[: self.n].copy(), self.iterations
            )
        self.up[self.art_start :] = 0.0
        return self._phase_two()

    def run_warm(self) -> LPResult | None:
        """Factor the installed basis, restore primal feasibility with the
        dual phase, then finish with primal phase 2.  Returns a verified
        optimum, or INFEASIBLE when the dual phase proves it; None otherwise,
        and the caller then solves cold."""
        try:
            self._refactor()
            status = self._dual_phase()
            if status is LPStatus.INFEASIBLE:
                x = self.x[: self.n].copy()
                return LPResult(LPStatus.INFEASIBLE, math.inf, x, self.iterations)
            if status is None:
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
                LPStatus.UNBOUNDED, -math.inf, self.x[: self.n].copy(), self.iterations
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
        x = self.x[: self.n].copy()
        obj = float(self.c_real[: self.n] @ x)
        return LPResult(LPStatus.OPTIMAL, obj, x, self.iterations)

    def _worst_residual(self) -> float:
        scale = max(1.0, float(np.max(np.abs(self.b))))
        lhs = self._row_activity(self.x)
        return float(np.max(np.abs(lhs - self.b))) / scale

    def _bounds_only(self) -> LPResult:
        """No rows: each column rests at the bound its cost points to, a
        costless one at its finite lower bound, else its upper, else 0."""
        n = self.n
        c, lo, up = self.c_real[:n], self.lo[:n], self.up[:n]
        if np.any((c > 0) & ~np.isfinite(lo)) or np.any((c < 0) & ~np.isfinite(up)):
            return LPResult(LPStatus.UNBOUNDED, -math.inf, np.zeros(n), 0)
        free = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
        x = np.where(c > 0, lo, np.where(c < 0, up, free))
        self._park(np.arange(n), x)  # so that basis_codes reports where x rests
        return LPResult(LPStatus.OPTIMAL, float(c @ x), x, 0)
