import math

import numpy as np
import pytest

from poolblend import (
    BilinearTerm,
    LinearExpr,
    Model,
    Sense,
    build_pq,
    refresh_bounds,
    relax,
    solve_lp,
)
from poolblend.errors import BoundsWiden, UnboundedBilinearVariable
from poolblend.simplex import LPStatus


def product_model(xl, xu, yl, yu):
    m = Model("prod")
    x = m.add_variable("x", xl, xu)
    y = m.add_variable("y", yl, yu)
    m.add_constraint(
        "prod", LinearExpr(), Sense.EQ, 0.0, bilinear=[BilinearTerm.of(1.0, x.id, y.id)]
    )
    return m


def envelope_w_range(rm, x_val, y_val):
    """Interval the four planes allow for w at a fixed (x, y)."""
    entry = rm.envelopes[(0, 1)]
    lo, hi = -math.inf, math.inf
    for name in entry.row_names:
        con = rm.lp.constraints[name]
        coeff_w = con.linear.terms[entry.aux_id]
        rest = sum(
            c * (x_val if vid == entry.x_id else y_val)
            for vid, c in con.linear.terms.items()
            if vid != entry.aux_id
        )
        bound = (con.rhs - rest) / coeff_w
        if con.sense is Sense.GE:
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    return lo, hi


def test_reference_box_at_origin():
    # box [-2,2] x [-3,1]: the envelope allows w in [-2, 2] at the origin
    rm = relax(product_model(-2.0, 2.0, -3.0, 1.0))
    lo, hi = envelope_w_range(rm, 0.0, 0.0)
    assert lo == pytest.approx(-2.0)
    assert hi == pytest.approx(2.0)


def test_corner_exactness_reference_box():
    rm = relax(product_model(-2.0, 2.0, -3.0, 1.0))
    for x in (-2.0, 2.0):
        for y in (-3.0, 1.0):
            lo, hi = envelope_w_range(rm, x, y)
            assert lo == pytest.approx(x * y, abs=1e-12)
            assert hi == pytest.approx(x * y, abs=1e-12)


def test_unit_box_corner_pins_product():
    rm = relax(product_model(0.0, 1.0, 0.0, 1.0))
    lo, hi = envelope_w_range(rm, 1.0, 1.0)
    assert lo == pytest.approx(1.0)
    assert hi == pytest.approx(1.0)


@pytest.mark.parametrize(
    "box",
    [(-2.0, 2.0, -3.0, 1.0), (0.0, 1.0, 0.0, 10.0), (-5.0, -1.0, 2.0, 7.0)],
)
def test_containment_10k_samples(box):
    xl, xu, yl, yu = box
    rm = relax(product_model(xl, xu, yl, yu))
    entry = rm.envelopes[(0, 1)]
    rng = np.random.default_rng(123)
    xs = rng.uniform(xl, xu, size=10_000)
    ys = rng.uniform(yl, yu, size=10_000)
    for name in entry.row_names:
        con = rm.lp.constraints[name]
        terms = con.linear.terms
        lhs = (
            terms.get(entry.aux_id, 0.0) * xs * ys
            + terms.get(entry.x_id, 0.0) * xs
            + terms.get(entry.y_id, 0.0) * ys
        )
        if con.sense is Sense.LE:
            assert float(np.max(lhs - con.rhs)) <= 1e-9
        else:
            assert float(np.min(lhs - con.rhs)) >= -1e-9


def test_aux_bounds_cover_corner_products():
    rm = relax(product_model(-2.0, 2.0, -3.0, 1.0))
    aux = rm.lp.variables[rm.envelopes[(0, 1)].aux_id]
    assert aux.lower == -6.0  # min corner product
    assert aux.upper == 6.0   # max corner product


def test_shared_aux_variable():
    m = Model("twice")
    x = m.add_variable("x", 0.0, 1.0)
    y = m.add_variable("y", 0.0, 1.0)
    m.add_constraint("a", LinearExpr(), Sense.LE, 1.0,
                     bilinear=[BilinearTerm.of(1.0, x.id, y.id)])
    m.add_constraint("b", LinearExpr(), Sense.GE, 0.0,
                     bilinear=[BilinearTerm.of(2.0, x.id, y.id)])
    rm = relax(m)
    assert len(rm.envelopes) == 1
    assert len(rm.lp.variables) == 3


def test_degenerate_box_linearizes_in_place():
    m = Model("deg")
    x = m.add_variable("x", 2.0, 2.0)
    y = m.add_variable("y", 0.0, 5.0)
    m.add_constraint("row", LinearExpr(), Sense.LE, 4.0,
                     bilinear=[BilinearTerm.of(1.0, x.id, y.id)])
    rm = relax(m)
    assert not rm.envelopes
    assert rm.lp.constraints["row"].linear.terms == {y.id: 2.0}


def test_unbounded_factor_raises():
    m = Model("unb")
    x = m.add_variable("x", 0.0, math.inf)
    y = m.add_variable("y", 0.0, 1.0)
    m.add_constraint("row", LinearExpr(), Sense.LE, 1.0,
                     bilinear=[BilinearTerm.of(1.0, x.id, y.id)])
    with pytest.raises(UnboundedBilinearVariable, match="x"):
        relax(m)


def defined_product_model(v_bounds):
    """v = x*y as a defining row (scaled by 2), plus a second row using x*y."""
    m = Model("defined")
    x = m.add_variable("x", 0.0, 2.0)
    y = m.add_variable("y", 1.0, 3.0)
    v = m.add_variable("v", *v_bounds)
    m.add_constraint("def", LinearExpr({v.id: 2.0}), Sense.EQ, 0.0,
                     bilinear=[BilinearTerm.of(-2.0, x.id, y.id)])
    m.add_constraint("use", LinearExpr(), Sense.LE, 5.0,
                     bilinear=[BilinearTerm.of(1.0, x.id, y.id)])
    return m, x, y, v


def test_defining_row_puts_envelope_on_defined_variable():
    m, x, y, v = defined_product_model((0.5, 10.0))
    rm = relax(m)
    # no aux column and no row for the identity; the other use shares v
    assert len(rm.lp.variables) == 3
    assert "def" not in rm.lp.constraints
    assert rm.envelopes[(x.id, y.id)].aux_id == v.id
    assert rm.lp.constraints["use"].linear.terms == {v.id: 1.0}
    assert len(rm.lp.constraints) == 1 + 4
    # v's own box [0.5, 10] intersected with the corner products [0, 6]
    aux = rm.lp.variables[v.id]
    assert (aux.lower, aux.upper) == (0.5, 6.0)
    refresh_bounds(rm, {y.id: (1.0, 2.0)})
    assert (aux.lower, aux.upper) == (0.5, 4.0)
    # a tightened v box is v's own box from then on
    refresh_bounds(rm, {v.id: (1.0, 3.5)})
    refresh_bounds(rm, {x.id: (0.0, 1.9)})
    assert (aux.lower, aux.upper) == (1.0, 3.5)


def test_refresh_empty_defined_box_is_infeasible():
    m, x, y, v = defined_product_model((3.0, 10.0))
    rm = relax(m)
    assert solve_lp(rm.lp).status is LPStatus.OPTIMAL
    # corner products now top out at 1 * 2 = 2, below v's lower bound 3
    refresh_bounds(rm, {x.id: (0.0, 1.0), y.id: (1.0, 2.0)})
    aux = rm.lp.variables[v.id]
    assert aux.lower > aux.upper
    assert solve_lp(rm.lp).status is LPStatus.INFEASIBLE


def test_clone_of_an_emptied_box_is_infeasible():
    m, x, y, v = defined_product_model((3.0, 10.0))
    rm = relax(m)
    refresh_bounds(rm, {x.id: (0.0, 1.0), y.id: (1.0, 2.0)})
    # the clone copies v's empty box [3, 2] instead of raising on it
    clone = rm.clone()
    aux = clone.lp.variables[v.id]
    assert (aux.lower, aux.upper) == (3.0, 2.0)
    assert solve_lp(clone.lp).status is LPStatus.INFEASIBLE


def test_refreshing_a_clone_leaves_the_original_envelope():
    m, x, y, v = defined_product_model((0.5, 10.0))
    rm = relax(m)
    clone = rm.clone()
    key = (x.id, y.id)
    assert clone.envelopes[key] is rm.envelopes[key]
    refresh_bounds(clone, {v.id: (1.0, 3.5)})
    refresh_bounds(clone, {x.id: (0.0, 1.9)})
    entry, original = clone.envelopes[key], rm.envelopes[key]
    assert (entry.aux_lower, entry.aux_upper) == (1.0, 3.5)
    assert (original.aux_lower, original.aux_upper) == (0.5, 10.0)
    aux = rm.lp.variables[v.id]
    assert (aux.lower, aux.upper) == (0.5, 6.0)


def test_inactive_rows_are_dropped():
    m = product_model(0.0, 1.0, 0.0, 1.0)
    m.deactivate("prod")
    rm = relax(m)
    assert "prod" not in rm.lp.constraints
    assert not rm.envelopes


def test_refresh_identical_bounds_is_noop():
    rm = relax(product_model(-2.0, 2.0, -3.0, 1.0))
    before = rm.lp.dump()
    refresh_bounds(rm, {0: (-2.0, 2.0), 1: (-3.0, 1.0)})
    assert rm.lp.dump() == before


def test_refresh_halved_box_changes_all_rows():
    rm = relax(product_model(-2.0, 2.0, -3.0, 1.0))
    entry = rm.envelopes[(0, 1)]
    before = {
        name: dict(rm.lp.constraints[name].linear.terms) for name in entry.row_names
    }
    refresh_bounds(rm, {1: (-2.0, 0.0)})  # both endpoints move
    for name in entry.row_names:
        assert dict(rm.lp.constraints[name].linear.terms) != before[name]


def test_refresh_rejects_widening():
    rm = relax(product_model(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(BoundsWiden):
        refresh_bounds(rm, {0: (0.0, 2.0)})


def test_refresh_tightens_h1_root_bound(h1):
    pq = build_pq(h1)
    rm = relax(pq.model)
    root = solve_lp(rm.lp)
    assert root.status is LPStatus.OPTIMAL
    child = rm.clone()
    q_id = pq.q[("i1", "l1")]
    refresh_bounds(child, {q_id: (0.25, 0.25)})
    res = solve_lp(child.lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective >= root.objective - 1e-9


def test_h1_root_relaxation_value(h1):
    # the plain envelope relaxation sits well below the -400 optimum
    pq = build_pq(h1)
    rm = relax(pq.model)
    res = solve_lp(rm.lp)
    assert res.status is LPStatus.OPTIMAL
    assert res.objective <= -400.0
    assert res.objective == pytest.approx(-500.0, rel=1e-9)
