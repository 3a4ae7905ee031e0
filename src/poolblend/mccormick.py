"""Convex LP relaxation: every bilinear product is replaced by an auxiliary
variable constrained to its McCormick envelope over the variable box.

Products sharing the same variable pair share one auxiliary variable.  A
defining row ``alpha*v - alpha*x*y = 0`` makes ``v`` itself the envelope
variable of the pair: the row is not emitted and ``v``'s own box is
intersected with the corner products, so the LP carries no identity row and
no second column for the product.  When a factor's box is degenerate
(lower == upper) the product is linearized in place and no auxiliary
variable is created.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import BoundsWiden, UnboundedBilinearVariable
from .model import BilinearTerm, Constraint, Domain, LinearExpr, Model, Sense

__all__ = ["EnvelopeEntry", "RelaxedModel", "relax", "refresh_bounds"]


@dataclass(frozen=True)
class EnvelopeEntry:
    aux_id: int
    x_id: int
    y_id: int
    row_names: tuple[str, ...]
    # the aux variable's own box; its LP box is this box intersected with
    # the corner products of the current factor boxes
    aux_lower: float = -math.inf
    aux_upper: float = math.inf


@dataclass
class RelaxedModel:
    lp: Model
    envelopes: dict[tuple[int, int], EnvelopeEntry]

    def clone(self) -> "RelaxedModel":
        # entries are frozen, so the clone shares them
        return RelaxedModel(lp=self.lp.clone(), envelopes=dict(self.envelopes))


def _corner_products(xl, xu, yl, yu) -> list[float]:
    return [xl * yl, xl * yu, xu * yl, xu * yu]


def _envelope_rows(lp: Model, entry: EnvelopeEntry) -> None:
    """(Re)write the four envelope rows and the aux bounds for the entry."""
    x = lp.variables[entry.x_id]
    y = lp.variables[entry.y_id]
    xl, xu, yl, yu = x.lower, x.upper, y.lower, y.upper
    corners = _corner_products(xl, xu, yl, yu)
    # assigned directly, not through set_bounds: an empty intersection is a
    # valid outcome here, and the LP layer reports it as INFEASIBLE
    aux = lp.variables[entry.aux_id]
    aux.lower = max(entry.aux_lower, min(corners))
    aux.upper = min(entry.aux_upper, max(corners))
    w, xi, yi = entry.aux_id, entry.x_id, entry.y_id
    rows = [
        # w >= xl*y + yl*x - xl*yl
        (LinearExpr({w: 1.0, yi: -xl, xi: -yl}), Sense.GE, -xl * yl),
        # w >= xu*y + yu*x - xu*yu
        (LinearExpr({w: 1.0, yi: -xu, xi: -yu}), Sense.GE, -xu * yu),
        # w <= xu*y + yl*x - xu*yl
        (LinearExpr({w: 1.0, yi: -xu, xi: -yl}), Sense.LE, -xu * yl),
        # w <= xl*y + yu*x - xl*yu
        (LinearExpr({w: 1.0, yi: -xl, xi: -yu}), Sense.LE, -xl * yu),
    ]
    for name, (expr, sense, rhs) in zip(entry.row_names, rows):
        if name in lp.constraints:
            con = lp.constraints[name]
            con.linear = expr
            con.sense = sense
            con.rhs = rhs
        else:
            lp.add_constraint(name, expr, sense, rhs)


def _defined_product(con: Constraint) -> tuple[int, BilinearTerm] | None:
    """(v, term) when the row reads alpha*v - alpha*x*y = 0 with v not a factor."""
    if con.sense is not Sense.EQ or con.rhs != 0.0 or con.linear.constant != 0.0:
        return None
    if len(con.linear.terms) != 1 or len(con.bilinear) != 1:
        return None
    ((v, alpha),) = con.linear.terms.items()
    term = con.bilinear[0]
    if term.coefficient != -alpha or v in (term.var_a, term.var_b):
        return None
    return v, term


def relax(model: Model) -> RelaxedModel:
    """Linearize the model: binaries become [0,1] continuous, every bilinear
    term routes through a shared envelope variable."""
    lp = Model(f"relaxed[{model.name}]")
    for var in model.variables:
        lp.add_variable(var.name, var.lower, var.upper, Domain.CONTINUOUS)

    envelopes: dict[tuple[int, int], EnvelopeEntry] = {}

    def envelope_key(term: BilinearTerm) -> tuple[int, int] | None:
        """The factor pair that needs an envelope, or None when a factor box
        is degenerate; raises when a factor box is unbounded."""
        xa, xb = model.variables[term.var_a], model.variables[term.var_b]
        for var in (xa, xb):
            if not (math.isfinite(var.lower) and math.isfinite(var.upper)):
                raise UnboundedBilinearVariable(
                    f"variable {var.name!r} in a bilinear term has unbounded box"
                )
        if xa.lower == xa.upper or xb.lower == xb.upper:
            return None
        return (term.var_a, term.var_b)

    def add_envelope(key: tuple[int, int], aux_id: int) -> None:
        aux = lp.variables[aux_id]
        envelopes[key] = EnvelopeEntry(
            aux_id=aux_id,
            x_id=key[0],
            y_id=key[1],
            row_names=(
                f"mccormick_ge1[{aux.name}]",
                f"mccormick_ge2[{aux.name}]",
                f"mccormick_le1[{aux.name}]",
                f"mccormick_le2[{aux.name}]",
            ),
            aux_lower=aux.lower,
            aux_upper=aux.upper,
        )

    # defining rows first, so every other use of their product shares v
    defined: set[str] = set()
    for con in model.constraints.values():
        found = _defined_product(con) if con.active else None
        if found is None:
            continue
        v, term = found
        key = envelope_key(term)
        if key is None or key in envelopes:
            continue
        add_envelope(key, v)
        defined.add(con.name)

    def rewrite(linear: LinearExpr, bilinear) -> LinearExpr:
        out = linear.copy()
        for term in bilinear:
            xa, xb = model.variables[term.var_a], model.variables[term.var_b]
            key = envelope_key(term)
            if key is None:
                if xa.lower == xa.upper:
                    out.add_term(term.var_b, term.coefficient * xa.lower)
                else:
                    out.add_term(term.var_a, term.coefficient * xb.lower)
                continue
            if key not in envelopes:
                aux = lp.add_variable(f"w[{xa.name}*{xb.name}]")
                add_envelope(key, aux.id)
            out.add_term(envelopes[key].aux_id, term.coefficient)
        return out

    for con in model.constraints.values():
        if not con.active or con.name in defined:
            continue
        expr = rewrite(con.linear, con.bilinear)
        lp.add_constraint(con.name, expr, con.sense, con.rhs)
    lp.objective = rewrite(model.objective, model.objective_bilinear)

    rm = RelaxedModel(lp=lp, envelopes=envelopes)
    for key in sorted(envelopes):
        _envelope_rows(lp, envelopes[key])
    return rm


def refresh_bounds(rm: RelaxedModel, new_bounds: dict[int, tuple[float, float]]) -> RelaxedModel:
    """Tighten variable boxes and recompute the affected envelope rows.

    Bounds may only shrink; widening any direction raises BoundsWiden.
    Refreshing with identical bounds is a structural no-op.
    """
    changed: set[int] = set()
    for var_id, (lo, hi) in new_bounds.items():
        var = rm.lp.variables[var_id]
        if lo < var.lower - 1e-12 or hi > var.upper + 1e-12:
            raise BoundsWiden(
                f"variable {var.name!r}: [{lo}, {hi}] is not inside [{var.lower}, {var.upper}]"
            )
        if lo == var.lower and hi == var.upper:
            continue
        rm.lp.set_bounds(var_id, lo, hi)
        changed.add(var_id)
    if changed:
        for key in sorted(rm.envelopes):
            entry = rm.envelopes[key]
            if entry.aux_id in changed:
                aux = rm.lp.variables[entry.aux_id]
                entry = replace(entry, aux_lower=aux.lower, aux_upper=aux.upper)
                rm.envelopes[key] = entry
            if entry.x_id in changed or entry.y_id in changed:
                _envelope_rows(rm.lp, entry)
    return rm
