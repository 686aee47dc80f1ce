"""Tests for standard-form compilation and the LP backends.

Every LP answer here is checked by :func:`tests.lp_certify.certify_lp`:
exact rational dual bounds and Farkas certificates, computed by the
proof checker's arithmetic instead of a second floating-point solver.
That includes the property-based sweep over random bounded LPs and
every node LP of the paper's Table 3/4 rows.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ModelError
from repro.ilp import highs
from repro.ilp.expr import lin_sum
from repro.ilp.incremental import IncrementalLPSolver
from repro.ilp.model import Model
from repro.ilp.resilience import ResilientLPBackend
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import SolveStatus, ValueVector
from repro.ilp.standard_form import compile_standard_form
from repro.reporting.experiments import EXPERIMENT_ROWS, run_row
from tests.lp_certify import certify_lp


def build_small_lp():
    """max x+y s.t. x+2y<=4, 3x+y<=6  =>  min -(x+y); opt at (1.6,1.2)."""
    model = Model("lp")
    x = model.add_var("x", 0, 10)
    y = model.add_var("y", 0, 10)
    model.add(x + 2 * y <= 4)
    model.add(3 * x + y <= 6)
    model.set_objective(-1 * x - y)
    return model


class TestStandardForm:
    def test_shapes_and_senses(self):
        model = Model("m")
        x = model.add_binary("x")
        y = model.add_binary("y")
        model.add(x + y <= 1)
        model.add(x - y >= 0)
        model.add(x + y == 1)
        model.set_objective(x)
        form = compile_standard_form(model)
        assert form.a_ub.shape == (2, 2)
        assert form.a_eq.shape == (1, 2)
        # GE row negated into <=.
        assert form.a_ub.toarray()[1].tolist() == [-1.0, 1.0]
        assert form.b_ub.tolist() == [1.0, 0.0]
        assert form.integrality.tolist() == [1.0, 1.0]

    def test_nan_rejected(self):
        model = Model("m")
        x = model.add_binary("x")
        model.add(float("nan") * x <= 1)
        with pytest.raises(ModelError, match="not finite"):
            compile_standard_form(model)

    def test_empty_constraints_ok(self):
        model = Model("m")
        model.add_binary("x")
        form = compile_standard_form(model)
        assert form.a_ub.shape[0] == 0
        assert form.a_eq.shape[0] == 0


def backends():
    """The cold path, and the warm kernel where the binding loads."""
    out = [solve_lp_scipy]
    if highs.have_highspy():
        out.append(IncrementalLPSolver())
    return out


def certified(form, lb=None, ub=None):
    """Each backend's certified answer on the box ``[lb, ub]``."""
    results = []
    for backend in backends():
        result = backend(form, lb, ub)
        certify_lp(form, lb, ub, result)
        results.append(result)
    return results


class TestSimplexBasics:
    """Basic LPs through HiGHS's dual simplex, cold and warm, each
    answer certified exactly."""

    def test_small_lp_optimum(self):
        for result in certified(compile_standard_form(build_small_lp())):
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == pytest.approx(-2.8, abs=1e-7)
            assert result.values[0] == pytest.approx(1.6, abs=1e-7)
            assert result.values[1] == pytest.approx(1.2, abs=1e-7)

    def test_equality_constraints(self):
        model = Model("m")
        x = model.add_var("x", 0, 5)
        y = model.add_var("y", 0, 5)
        model.add(x + y == 3)
        model.set_objective(x - 2 * y)
        for result in certified(compile_standard_form(model)):
            assert result.status is SolveStatus.OPTIMAL
            assert result.values[1] == pytest.approx(3.0)

    def test_infeasible(self):
        model = Model("m")
        x = model.add_var("x", 0, 1)
        model.add(x >= 2)
        model.set_objective(x + 0)
        for result in certified(compile_standard_form(model)):
            assert result.status is SolveStatus.INFEASIBLE

    def test_contradictory_bound_overrides(self):
        form = compile_standard_form(build_small_lp())
        lb = form.lb.copy()
        ub = form.ub.copy()
        lb[0], ub[0] = 2.0, 1.0
        for result in certified(form, lb, ub):
            assert result.status is SolveStatus.INFEASIBLE

    def test_bound_overrides_respected(self):
        form = compile_standard_form(build_small_lp())
        lb = form.lb.copy()
        lb[0] = 1.9  # force x >= 1.9
        for result in certified(form, lb, form.ub):
            assert result.status is SolveStatus.OPTIMAL
            assert result.values[0] >= 1.9 - 1e-9

    def test_negative_lower_bounds(self):
        model = Model("m")
        x = model.add_var("x", -5, 5)
        model.add(x >= -3)
        model.set_objective(x + 0)
        for result in certified(compile_standard_form(model)):
            assert result.objective == pytest.approx(-3.0)

    def test_unbounded_detected(self):
        model = Model("m")
        x = model.add_var("x", 0, float("inf"))
        model.set_objective(-1 * x)
        form = compile_standard_form(model)
        for backend in backends():
            assert backend(form).status is SolveStatus.UNBOUNDED

    def test_degenerate_redundant_equalities(self):
        model = Model("m")
        x = model.add_var("x", 0, 4)
        y = model.add_var("y", 0, 4)
        model.add(x + y == 2)
        model.add(2 * x + 2 * y == 4)  # redundant copy
        model.set_objective(x + 0)
        for result in certified(compile_standard_form(model)):
            assert result.status is SolveStatus.OPTIMAL
            assert result.objective == pytest.approx(0.0)


class TestScipyBackend:
    """The cold path without SciPy's vendored binding: ``linprog``."""

    @pytest.fixture(autouse=True)
    def _no_binding(self, monkeypatch):
        monkeypatch.setattr(highs, "_binding", (None, "no binding (stub)"))

    def test_matches_simplex_on_small_lp(self):
        form = compile_standard_form(build_small_lp())
        result = solve_lp_scipy(form)
        certify_lp(form, None, None, result)
        assert result.objective == pytest.approx(-2.8, abs=1e-7)

    def test_infeasible(self):
        model = Model("m")
        x = model.add_var("x", 0, 1)
        model.add(x >= 2)
        model.set_objective(x + 0)
        form = compile_standard_form(model)
        result = solve_lp_scipy(form)
        certify_lp(form, None, None, result)
        assert result.status is SolveStatus.INFEASIBLE


@st.composite
def random_lp(draw):
    """A random box-bounded LP with a handful of constraints."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-6, 10)) for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    ubs = [draw(st.integers(1, 6)) for _ in range(n)]
    return c, rows, rhs, senses, ubs


@given(random_lp())
@settings(max_examples=120, deadline=None)
def test_property_scipy_lp_certified_exactly(problem):
    c, rows, rhs, senses, ubs = problem
    model = Model("prop")
    xs = [model.add_var(f"x{i}", 0, ubs[i]) for i in range(len(c))]
    for row, b, sense in zip(rows, rhs, senses):
        expr = lin_sum(coef * x for coef, x in zip(row, xs))
        if sense == "<=":
            model.add(expr <= b)
        elif sense == ">=":
            model.add(expr >= b)
        else:
            model.add(expr == b)
    model.set_objective(lin_sum(coef * x for coef, x in zip(c, xs)))
    results = certified(compile_standard_form(model))
    assert len({result.status for result in results}) == 1


#: The 13 Table 3/4 rows, solved in the default configuration.
PAPER_ROWS = [row for row in EXPERIMENT_ROWS if row.table in ("t3", "t4")]


def _copy(vector):
    return None if vector is None else np.array(vector, dtype=float)


@pytest.mark.parametrize("row", PAPER_ROWS, ids=lambda row: row.key)
def test_every_paper_row_node_lp_certifies(monkeypatch, row):
    """Every LP answer the branch and bound receives on a paper row
    carries an exact certificate on its node box."""
    calls = []
    real = ResilientLPBackend.__call__

    def recording(self, form, lb_override=None, ub_override=None):
        result = real(self, form, lb_override, ub_override)
        if result.status is SolveStatus.OPTIMAL:
            result = dataclasses.replace(
                result,
                values=ValueVector(result.values.array.copy()),
                dual_ub=_copy(result.dual_ub),
                dual_eq=_copy(result.dual_eq),
            )
        calls.append((
            form,
            np.array(form.lb if lb_override is None else lb_override),
            np.array(form.ub if ub_override is None else ub_override),
            result,
        ))
        return result

    monkeypatch.setattr(ResilientLPBackend, "__call__", recording)
    measured = run_row(row)
    assert measured["status"] in ("optimal", "infeasible")
    assert calls
    for form, lb, ub, result in calls:
        certify_lp(form, lb, ub, result)
