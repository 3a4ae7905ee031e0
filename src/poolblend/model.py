"""Solver-agnostic optimization model: bounded variables, linear constraints
with optional bilinear terms, and a linear(+bilinear) minimize objective.

The quadratic structure is restricted to products of two distinct variables;
that is the whole class the pooling formulations need.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .errors import MissingVariableValue, UnknownConstraint

__all__ = [
    "Domain",
    "Sense",
    "Variable",
    "LinearExpr",
    "BilinearTerm",
    "Constraint",
    "Model",
    "FeasibilityReport",
]


class Domain(Enum):
    CONTINUOUS = "continuous"
    BINARY = "binary"


class Sense(Enum):
    LE = "<="
    EQ = "=="
    GE = ">="


@dataclass(slots=True)
class Variable:
    """A column and its box.  ``Model.add_variable`` and ``Model.set_bounds``
    check the box; the constructor does not, so a clone can copy a box that
    bound tightening left empty."""

    id: int
    name: str
    lower: float
    upper: float
    domain: Domain = Domain.CONTINUOUS


class LinearExpr:
    """Sparse linear expression: coefficient map plus a constant."""

    __slots__ = ("terms", "constant")

    def __init__(self, terms: Mapping[int, float] | None = None, constant: float = 0.0):
        self.terms: dict[int, float] = {}
        self.constant = constant
        if terms:
            for var_id, coeff in terms.items():
                self.add_term(var_id, coeff)

    def add_term(self, var_id: int, coeff: float) -> "LinearExpr":
        if coeff == 0.0:
            return self
        old = self.terms.get(var_id)
        # float() returns a float coefficient itself; 0.0 + coeff would
        # allocate a new float for every term
        new = float(coeff) if old is None else old + coeff
        if new == 0.0:
            self.terms.pop(var_id, None)
        else:
            self.terms[var_id] = new
        return self

    def value(self, point: Sequence[float] | Mapping[int, float]) -> float:
        total = self.constant
        for var_id, coeff in self.terms.items():
            total += coeff * _point_value(point, var_id)
        return total

    def copy(self) -> "LinearExpr":
        out = LinearExpr()
        out.terms = dict(self.terms)
        out.constant = self.constant
        return out

    def items(self) -> list[tuple[int, float]]:
        return sorted(self.terms.items())

    def __bool__(self) -> bool:
        return bool(self.terms) or self.constant != 0.0


@dataclass(frozen=True, slots=True)
class BilinearTerm:
    coefficient: float
    var_a: int
    var_b: int

    @staticmethod
    def of(coefficient: float, var_a: int, var_b: int) -> "BilinearTerm":
        if var_a > var_b:
            var_a, var_b = var_b, var_a
        return BilinearTerm(coefficient, var_a, var_b)

    def value(self, point) -> float:
        return self.coefficient * _point_value(point, self.var_a) * _point_value(point, self.var_b)


@dataclass(slots=True)
class Constraint:
    name: str
    linear: LinearExpr
    # immutable, so rows without a product share () and clones share the tuple
    bilinear: tuple[BilinearTerm, ...]
    sense: Sense
    rhs: float
    active: bool = True

    def lhs_value(self, point) -> float:
        total = self.linear.value(point)
        for term in self.bilinear:
            total += term.value(point)
        return total

    def residual(self, point) -> float:
        """Signed violation: 0 on the feasible side, positive amount beyond it."""
        lhs = self.lhs_value(point)
        if self.sense is Sense.LE:
            return max(0.0, lhs - self.rhs)
        if self.sense is Sense.GE:
            return max(0.0, self.rhs - lhs)
        return abs(lhs - self.rhs)


@dataclass
class FeasibilityReport:
    feasible: bool
    worst_name: str | None
    worst_residual: float

    def __bool__(self) -> bool:
        return self.feasible


class Model:
    def __init__(self, name: str = "model"):
        self.name = name
        self.variables: list[Variable] = []
        self.constraints: dict[str, Constraint] = {}
        self.objective: LinearExpr = LinearExpr()
        self.objective_bilinear: list[BilinearTerm] = []

    # -- building ------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: float = -math.inf,
        upper: float = math.inf,
        domain: Domain = Domain.CONTINUOUS,
    ) -> Variable:
        if lower > upper:
            raise ValueError(f"variable {name!r}: lower {lower} > upper {upper}")
        if domain is Domain.BINARY and not (lower >= 0.0 and upper <= 1.0):
            raise ValueError(f"binary variable {name!r} must have bounds within [0, 1]")
        var = Variable(id=len(self.variables), name=name, lower=lower, upper=upper, domain=domain)
        self.variables.append(var)
        return var

    def add_constraint(
        self,
        name: str,
        linear: LinearExpr,
        sense: Sense,
        rhs: float,
        bilinear: Iterable[BilinearTerm] = (),
        active: bool = True,
    ) -> Constraint:
        if name in self.constraints:
            raise ValueError(f"constraint {name!r} already in model")
        con = Constraint(name=name, linear=linear, bilinear=tuple(bilinear), sense=sense, rhs=rhs, active=active)
        self.constraints[name] = con
        return con

    def constraint(self, name: str) -> Constraint:
        try:
            return self.constraints[name]
        except KeyError:
            raise UnknownConstraint(f"constraint {name!r} not in model") from None

    def deactivate(self, name: str) -> None:
        self.constraint(name).active = False

    def activate(self, name: str) -> None:
        self.constraint(name).active = True

    def set_bounds(self, var_id: int, lower: float, upper: float) -> None:
        var = self.variables[var_id]
        if lower > upper:
            raise ValueError(f"variable {var.name!r}: lower {lower} > upper {upper}")
        var.lower = lower
        var.upper = upper

    # -- evaluation ----------------------------------------------------

    def residual(self, point, name: str) -> float:
        con = self.constraint(name)
        return con.residual(point)

    def objective_value(self, point) -> float:
        total = self.objective.value(point)
        for term in self.objective_bilinear:
            total += term.value(point)
        return total

    def is_feasible(self, point, tol: float = 1e-6) -> FeasibilityReport:
        """Check active rows and variable bounds at the point, within tol."""
        if tol <= 0:
            raise ValueError("tol must be positive")
        worst_name = None
        worst = 0.0
        for con in self.constraints.values():
            if not con.active:
                continue
            res = con.residual(point)
            if res > worst:
                worst, worst_name = res, con.name
        for var in self.variables:
            value = _point_value(point, var.id)
            res = max(var.lower - value, value - var.upper, 0.0)
            if res > worst:
                worst, worst_name = res, f"bounds[{var.name}]"
        return FeasibilityReport(feasible=bool(worst <= tol), worst_name=worst_name, worst_residual=worst)

    # -- utilities -----------------------------------------------------

    def clone(self) -> "Model":
        out = Model(self.name)
        out.variables = [
            Variable(v.id, v.name, v.lower, v.upper, v.domain) for v in self.variables
        ]
        for con in self.constraints.values():
            out.constraints[con.name] = Constraint(
                name=con.name,
                linear=con.linear.copy(),
                bilinear=con.bilinear,
                sense=con.sense,
                rhs=con.rhs,
                active=con.active,
            )
        out.objective = self.objective.copy()
        out.objective_bilinear = list(self.objective_bilinear)
        return out

    def dump(self) -> str:
        """One constraint per line: ``name: expr sense rhs``; golden-file friendly."""
        lines = []
        for name in self.constraints:
            con = self.constraints[name]
            expr = self._format_expr(con.linear, con.bilinear)
            flag = "" if con.active else "  [inactive]"
            lines.append(f"{name}: {expr} {con.sense.value} {_fmt(con.rhs)}{flag}")
        return "\n".join(lines) + ("\n" if lines else "")

    def _format_expr(self, linear: LinearExpr, bilinear: Sequence[BilinearTerm]) -> str:
        parts = []
        for var_id, coeff in linear.items():
            parts.append(f"{_fmt(coeff)} {self.variables[var_id].name}")
        for term in sorted(bilinear, key=lambda t: (t.var_a, t.var_b)):
            parts.append(
                f"{_fmt(term.coefficient)} "
                f"{self.variables[term.var_a].name}*{self.variables[term.var_b].name}"
            )
        if linear.constant != 0.0:
            parts.append(_fmt(linear.constant))
        return " + ".join(parts) if parts else "0"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _point_value(point, var_id: int) -> float:
    try:
        return point[var_id]
    except (KeyError, IndexError):
        raise MissingVariableValue(f"point has no value for variable id {var_id}") from None
