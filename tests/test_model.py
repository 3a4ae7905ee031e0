import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poolblend import BilinearTerm, Domain, LinearExpr, Model, Sense, relax
from poolblend.cuts import add_all_pooling_inequalities
from poolblend.errors import MissingVariableValue, UnknownConstraint


def two_var_model():
    m = Model("t")
    x = m.add_variable("x", 0.0, 10.0)
    y = m.add_variable("y", 0.0, 10.0)
    m.add_constraint("sum_le", LinearExpr({x.id: 1.0, y.id: 1.0}), Sense.LE, 3.0)
    m.add_constraint(
        "prod_eq", LinearExpr(), Sense.EQ, 2.0, bilinear=[BilinearTerm.of(1.0, x.id, y.id)]
    )
    return m


def test_residual_interior_point():
    m = two_var_model()
    assert m.residual({0: 1.0, 1: 1.0}, "sum_le") == 0.0


def test_residual_bilinear_equality():
    m = two_var_model()
    assert m.residual({0: 1.0, 1: 1.0}, "prod_eq") == pytest.approx(1.0)


def test_residual_errors():
    m = two_var_model()
    with pytest.raises(UnknownConstraint):
        m.residual({0: 0.0, 1: 0.0}, "ghost")
    with pytest.raises(MissingVariableValue):
        m.residual({0: 0.0}, "sum_le")


def test_residual_senses():
    m = Model("t")
    x = m.add_variable("x", -10.0, 10.0)
    m.add_constraint("ge", LinearExpr({x.id: 1.0}), Sense.GE, 2.0)
    assert m.residual({0: 5.0}, "ge") == 0.0
    assert m.residual({0: 1.0}, "ge") == pytest.approx(1.0)


def test_is_feasible_reports_worst():
    m = two_var_model()
    report = m.is_feasible({0: 2.0, 1: 1.0}, tol=1e-6)
    assert report.feasible  # sum=3 ok, prod=2 exact
    report = m.is_feasible({0: 3.0, 1: 1.0}, tol=1e-6)
    assert not report
    assert report.worst_name in {"sum_le", "prod_eq"}
    assert report.worst_residual == pytest.approx(1.0)


def test_is_feasible_report_is_bool_on_numpy_point():
    m = two_var_model()
    assert bool(m.is_feasible(np.array([2.0, 1.0]), 1e-6)) is True
    assert bool(m.is_feasible(np.zeros(2), 1e-6)) is False


def test_is_feasible_checks_bounds():
    m = Model("t")
    m.add_variable("x", 0.0, 1.0)
    report = m.is_feasible({0: 2.0}, tol=1e-6)
    assert not report
    assert report.worst_name == "bounds[x]"


def test_deactivation_removes_row_from_feasibility():
    m = two_var_model()
    point = {0: 3.0, 1: 3.0}  # violates both rows
    assert not m.is_feasible(point, 1e-6)
    m.deactivate("sum_le")
    m.deactivate("prod_eq")
    assert m.is_feasible(point, 1e-6)
    m.activate("sum_le")
    assert not m.is_feasible(point, 1e-6)


def test_binary_domain_validation():
    m = Model("t")
    with pytest.raises(ValueError):
        m.add_variable("b", 0.0, 2.0, Domain.BINARY)
    m.add_variable("b", 0.0, 1.0, Domain.BINARY)


def test_add_variable_rejects_an_empty_box():
    with pytest.raises(ValueError):
        Model("t").add_variable("x", 2.0, 1.0)


def test_linear_expr_drops_zeros():
    e = LinearExpr({0: 1.0})
    e.add_term(0, -1.0)
    assert not e.terms
    e.add_term(1, 0.0)
    assert not e.terms


def test_duplicate_constraint_name_rejected():
    m = two_var_model()
    with pytest.raises(ValueError):
        m.add_constraint("sum_le", LinearExpr(), Sense.LE, 0.0)


def test_slotted_records_keep_their_values(h1_pq):
    terms = LinearExpr({0: 1, 1: np.float64(-2.5)}).terms
    assert terms == {0: 1.0, 1: -2.5}
    assert all(type(coeff) is float for coeff in terms.values())
    m = two_var_model()
    for record in (m.variables[0], m.constraints["sum_le"]):
        assert "__slots__" in type(record).__dict__
        with pytest.raises(AttributeError):
            record.note = "no such field"
    # the h1 model and its relaxation with pooling inequalities, as dumped
    # before Variable and Constraint took slots
    rm = relax(h1_pq.model)
    add_all_pooling_inequalities(rm, h1_pq)
    for model, digest in (
        (h1_pq.model, "5df6ce3fb003ffb1bd6758a0cfda797ba679b7e656820d5b2bee285c1841b12e"),
        (rm.lp, "191b41b8f329574f7050e445fc95c7b229276354e9a4bb8ad1ab90a0a70480e7"),
    ):
        assert hashlib.sha256(model.dump().encode()).hexdigest() == digest
        assert model.clone().dump() == model.dump()


def test_dump_format():
    m = two_var_model()
    m.deactivate("prod_eq")
    dump = m.dump()
    assert "sum_le: 1 x + 1 y <= 3" in dump
    assert "prod_eq: 1 x*y == 2  [inactive]" in dump


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
    st.floats(-5, 5, allow_nan=False),
)
@settings(max_examples=50, deadline=None)
def test_clone_preserves_residuals(point, rhs):
    m = Model("t")
    x = m.add_variable("x", -10.0, 10.0)
    y = m.add_variable("y", -10.0, 10.0)
    m.add_constraint(
        "row",
        LinearExpr({x.id: 2.0, y.id: -1.5}, constant=0.5),
        Sense.LE,
        rhs,
        bilinear=[BilinearTerm.of(0.7, x.id, y.id)],
    )
    clone = m.clone()
    values = {0: point[0], 1: point[1]}
    assert clone.residual(values, "row") == m.residual(values, "row")
    assert clone.dump() == m.dump()


def test_residual_nonnegative_for_inequalities():
    m = two_var_model()
    for point in ({0: 0.0, 1: 0.0}, {0: 9.0, 1: 9.0}):
        assert m.residual(point, "sum_le") >= 0.0
