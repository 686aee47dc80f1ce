"""Tests for the cold per-node HiGHS path of ``solve_lp_scipy``.

Each node is solved on a fresh ``Highs`` object of SciPy's vendored
binding, over a model built once per form.  The path must land on
``scipy.optimize.linprog(method="highs")``'s answer bit for bit (the
reference here is ``linprog`` called directly), keep ``linprog``'s
post-solve check and status mapping, fall back to ``linprog`` only when
no binding loads, and share its model builder with the warm kernel
without changing the kernel's model.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from scipy import sparse

from repro.core import parallel_support
from repro.core.formulation import build_model
from repro.core.partitioner import TemporalPartitioner
from repro.errors import TransientSolverError
from repro.graph.generators import paper_graph
from repro.ilp import highs, scipy_backend
from repro.ilp.highs import CHECK_TOL, build_lp, read_optimal, stack_rows
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import SolveStatus
from repro.ilp.standard_form import StandardForm, compile_standard_form
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import (
    EXPERIMENT_ROWS,
    reference_device,
    reference_memory,
    run_row,
)

ROWS = {row.key: row for row in EXPERIMENT_ROWS}
#: Plain-search rows that close quickly: (key, tighten, nodes).  Table 1
#: is the untightened formulation.
PLAIN_ROWS = (("t1-g1-N2-L3", False, 49), ("t2-g1-N2-L3", True, 47))

pytestmark = pytest.mark.skipif(
    highs.load_highs() is None,
    reason="SciPy's vendored HiGHS binding does not load",
)


def linprog_reference(form, lb, ub):
    """``linprog``'s answer: ``("raise", raw)`` or the full outcome."""
    result = scipy.optimize.linprog(
        c=form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=form.b_ub if form.b_ub.shape[0] else None,
        A_eq=form.a_eq if form.a_eq.shape[0] else None,
        b_eq=form.b_eq if form.b_eq.shape[0] else None,
        bounds=np.column_stack([lb, ub]),
        method="highs",
    )
    if result.status in (1, 4):
        return ("raise", result.status)
    status = {
        0: SolveStatus.OPTIMAL, 2: SolveStatus.INFEASIBLE,
        3: SolveStatus.UNBOUNDED,
    }[result.status]
    if status is not SolveStatus.OPTIMAL:
        return (status,)
    return (
        status, float(result.fun), np.asarray(result.x),
        np.asarray(result.ineqlin.marginals), np.asarray(result.eqlin.marginals),
    )


def cold_outcome(form, lb, ub):
    try:
        result = solve_lp_scipy(form, lb, ub)
    except TransientSolverError as exc:
        return ("raise", exc.raw_status)
    if result.status is not SolveStatus.OPTIMAL:
        return (result.status,)
    return (
        result.status, result.objective, result.values.array,
        result.dual_ub, result.dual_eq,
    )


def assert_identical(ours, ref):
    assert ours[0] == ref[0]
    assert len(ours) == len(ref)
    for a, b in zip(ours[1:], ref[1:]):
        assert np.array_equal(a, b)


def record_plain_search(monkeypatch, key, tighten):
    """``run_row`` in plain search, with every backend call recorded."""
    calls = []
    make = parallel_support.make_lp_backend

    def recording(*args, **kwargs):
        inner = make(*args, **kwargs)

        def backend(form, lb=None, ub=None):
            calls.append((
                form,
                np.array(form.lb if lb is None else lb, dtype=float),
                np.array(form.ub if ub is None else ub, dtype=float),
            ))
            return inner(form, lb, ub)

        return backend

    monkeypatch.setattr(parallel_support, "make_lp_backend", recording)
    return run_row(ROWS[key], tighten=tighten, plain_search=True), calls


def random_form(rng, m_ub, m_eq, n):
    """A small dense-ish LP with some free and some boxed columns."""
    def block(m):
        dense = rng.integers(-3, 4, size=(m, n)).astype(float)
        return sparse.csr_matrix(dense, shape=(m, n))

    kind = rng.integers(0, 3, size=n)
    lb = np.where(kind == 0, -np.inf, 0.0)
    ub = np.where(kind == 2, rng.integers(1, 5, size=n).astype(float), np.inf)
    return StandardForm(
        c=rng.integers(-3, 4, size=n).astype(float),
        a_ub=block(m_ub), b_ub=rng.integers(-2, 8, size=m_ub).astype(float),
        a_eq=block(m_eq), b_eq=rng.integers(-2, 5, size=m_eq).astype(float),
        lb=lb, ub=ub, integrality=np.zeros(n),
    )


def random_overrides(rng, form):
    """Branching-style bound tightenings of a few columns."""
    lb, ub = form.lb.copy(), form.ub.copy()
    for col in rng.choice(form.num_vars, size=rng.integers(0, 3), replace=False):
        point = float(rng.integers(-1, 4))
        if rng.random() < 0.5:
            lb[col] = max(lb[col], point)
        else:
            ub[col] = min(ub[col], point)
    return lb, ub


class TestIdentityWithLinprog:
    @pytest.mark.parametrize("key,tighten,nodes", PLAIN_ROWS)
    def test_every_plain_search_lp(self, monkeypatch, key, tighten, nodes):
        row, calls = record_plain_search(monkeypatch, key, tighten)
        assert (row["status"], row["objective"], row["nodes"]) == (
            "optimal", 0, nodes,
        )
        assert len(calls) == nodes
        for form, lb, ub in calls:
            assert_identical(cold_outcome(form, lb, ub), linprog_reference(form, lb, ub))

    def test_seeded_random_lps(self):
        rng = np.random.default_rng(20240611)
        seen = set()
        shapes = [(0, 2), (3, 0), (2, 1), (1, 2), (4, 2)]
        for draw in range(300):
            m_ub, m_eq = shapes[draw % len(shapes)]
            form = random_form(rng, m_ub, m_eq, int(rng.integers(2, 6)))
            lb, ub = random_overrides(rng, form)
            if np.any(lb > ub):
                continue
            ours = cold_outcome(form, lb, ub)
            assert_identical(ours, linprog_reference(form, lb, ub))
            seen.add(ours[0])
            if ours[0] is SolveStatus.OPTIMAL and np.isinf(form.lb).any():
                seen.add("free")
        # The draw reaches every outcome the mapping distinguishes.
        assert {
            SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE, SolveStatus.UNBOUNDED,
            "free",
        } <= seen


def fake_highs(col_value, row_value, objective=0.0, row_dual=None):
    solution = SimpleNamespace(
        col_value=list(col_value),
        row_value=list(row_value),
        row_dual=list(row_dual if row_dual is not None else [0.0] * len(row_value)),
    )
    return SimpleNamespace(
        getSolution=lambda: solution,
        getInfo=lambda: SimpleNamespace(objective_function_value=objective),
    )


class TestPostSolveCheck:
    def _form(self):
        # x0 + x1 <= 4 ; x0 - x1 == 1 ; 0 <= x <= 3
        return StandardForm(
            c=np.array([1.0, 1.0]),
            a_ub=sparse.csr_matrix(np.array([[1.0, 1.0]])), b_ub=np.array([4.0]),
            a_eq=sparse.csr_matrix(np.array([[1.0, -1.0]])), b_eq=np.array([1.0]),
            lb=np.zeros(2), ub=np.full(2, 3.0), integrality=np.zeros(2),
        )

    @pytest.mark.parametrize("col_value,row_value,objective", [
        ([2.0, 1.0], [3.0, 1.0], 3.0),
        ([2.0, 1.0], [4.0 + 0.5 * CHECK_TOL, 1.0], 3.0),
        ([2.0, 1.0], [3.0, 1.0 - 0.5 * CHECK_TOL], 3.0),
        ([3.0 + 0.5 * CHECK_TOL, 1.0], [3.0, 1.0], 3.0),
    ])
    def test_within_tolerance_reads(self, col_value, row_value, objective):
        form = self._form()
        h = fake_highs(col_value, row_value, objective, row_dual=[-0.5, 2.0])
        result = read_optimal(h, form, (form.lb, form.ub))
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == objective
        assert np.array_equal(result.values.array, col_value)
        assert np.array_equal(result.dual_ub, [-0.5])
        assert np.array_equal(result.dual_eq, [2.0])

    @pytest.mark.parametrize("col_value,row_value,objective", [
        ([2.0, 1.0], [4.0 + 2 * CHECK_TOL, 1.0], 3.0),    # inequality row
        ([2.0, 1.0], [3.0, 1.0 + 2 * CHECK_TOL], 3.0),    # equality row
        ([2.0, 1.0], [3.0, 1.0 - 2 * CHECK_TOL], 3.0),
        ([3.0 + 2 * CHECK_TOL, 1.0], [3.0, 1.0], 3.0),    # column bound
        ([-2 * CHECK_TOL, 1.0], [3.0, 1.0], 3.0),
        ([np.nan, 1.0], [3.0, 1.0], 3.0),                 # NaN point
        ([2.0, 1.0], [3.0, np.nan], 3.0),                 # NaN row
        ([2.0, 1.0], [3.0, 1.0], np.nan),                 # NaN objective
    ])
    def test_violation_is_numerical_trouble(self, col_value, row_value, objective):
        form = self._form()
        h = fake_highs(col_value, row_value, objective)
        with pytest.raises(TransientSolverError) as info:
            read_optimal(h, form, (form.lb, form.ub))
        assert info.value.raw_status == 4
        # The kernel reads without the check.
        assert read_optimal(h, form).status is SolveStatus.OPTIMAL

    def test_node_bounds_are_the_ones_checked(self):
        form = self._form()
        h = fake_highs([2.0, 1.0], [3.0, 1.0], 3.0)
        ub = form.ub.copy()
        ub[0] = 1.0
        with pytest.raises(TransientSolverError):
            read_optimal(h, form, (form.lb, ub))

    def test_non_finite_duals_drop_their_block_only(self):
        form = self._form()
        h = fake_highs([2.0, 1.0], [3.0, 1.0], 3.0, row_dual=[np.inf, 2.0])
        result = read_optimal(h, form, (form.lb, form.ub))
        assert result.dual_ub is None
        assert np.array_equal(result.dual_eq, [2.0])


class TestStatusMapping:
    def _binding(self):
        return highs.load_highs()

    def test_each_model_status(self):
        highspy = self._binding()
        status = highspy.HighsModelStatus
        infeasible = {status.kInfeasible, status.kModelError}
        limits = {status.kTimeLimit, status.kIterationLimit}
        for model_status in status.__members__.values():
            if model_status in infeasible:
                outcome = scipy_backend._status_outcome(highspy, model_status)
                assert outcome.status is SolveStatus.INFEASIBLE
            elif model_status == status.kUnbounded:
                outcome = scipy_backend._status_outcome(highspy, model_status)
                assert outcome.status is SolveStatus.UNBOUNDED
            else:
                with pytest.raises(TransientSolverError) as info:
                    scipy_backend._status_outcome(highspy, model_status)
                assert info.value.raw_status == (1 if model_status in limits else 4)

    def test_matches_linprogs_own_mapping(self):
        from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

        highspy = self._binding()
        expected = {
            2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED,
            1: ("raise", 1), 4: ("raise", 4),
        }
        for model_status in highspy.HighsModelStatus.__members__.values():
            if model_status == highspy.HighsModelStatus.kOptimal:
                continue  # read, not mapped
            code, _ = _highs_to_scipy_status_message(model_status, "")
            try:
                got = scipy_backend._status_outcome(highspy, model_status).status
            except TransientSolverError as exc:
                got = ("raise", exc.raw_status)
            assert got == expected[code], model_status

    def _fake_binding(self, pass_status, run_status, model_status, h=None):
        """The real binding with a scripted ``Highs`` that records options."""
        real = self._binding()
        options = {}

        class Highs:
            def setOptionValue(self, name, value):
                options[name] = value
                return real.HighsStatus.kOk

            def passModel(self, lp):
                return pass_status

            def run(self):
                return run_status

            def getModelStatus(self):
                return model_status

            def getSolution(self):
                return h.getSolution()

            def getInfo(self):
                return h.getInfo()

        return SimpleNamespace(**{**vars(real), "Highs": Highs}), options

    def test_pass_model_error_is_infeasible(self):
        # linprog reports a model HiGHS refuses as kModelError.
        real = self._binding()
        fake, _ = self._fake_binding(
            real.HighsStatus.kError, real.HighsStatus.kOk,
            real.HighsModelStatus.kNotset,
        )
        form = TestPostSolveCheck()._form()
        result = scipy_backend._solve_cold(fake, form, form.lb, form.ub)
        assert result.status is SolveStatus.INFEASIBLE

    def test_failed_run_reporting_optimal_is_numerical_trouble(self):
        real = self._binding()
        fake, _ = self._fake_binding(
            real.HighsStatus.kOk, real.HighsStatus.kError,
            real.HighsModelStatus.kOptimal,
        )
        form = TestPostSolveCheck()._form()
        with pytest.raises(TransientSolverError) as info:
            scipy_backend._solve_cold(fake, form, form.lb, form.ub)
        assert info.value.raw_status == 4

    def test_optimal_point_is_checked_against_the_node_box(self):
        real = self._binding()
        form = TestPostSolveCheck()._form()
        ub = form.ub.copy()
        ub[0] = 1.0  # the fabricated point has x0 = 2
        fake, options = self._fake_binding(
            real.HighsStatus.kOk, real.HighsStatus.kOk,
            real.HighsModelStatus.kOptimal,
            fake_highs([2.0, 1.0], [3.0, 1.0], 3.0),
        )
        assert scipy_backend._solve_cold(fake, form, form.lb, form.ub).objective == 3.0
        with pytest.raises(TransientSolverError) as info:
            scipy_backend._solve_cold(fake, form, form.lb, ub)
        assert info.value.raw_status == 4
        # The options linprog(method="highs") sets.
        assert options == {
            "output_flag": False, "presolve": "on", "simplex_strategy": 1,
        }


class TestLinprogOnlyWithoutBinding:
    def test_without_binding_one_linprog_call_per_node(self, monkeypatch):
        monkeypatch.setattr(
            highs, "_binding", (None, "no usable HiGHS binding (stub)")
        )
        linprog_calls = []
        real_linprog = scipy_backend.linprog

        def spy(*args, **kwargs):
            linprog_calls.append(1)
            return real_linprog(*args, **kwargs)

        monkeypatch.setattr(scipy_backend, "linprog", spy)
        row, calls = record_plain_search(monkeypatch, "t2-g1-N2-L3", True)
        assert (row["status"], row["objective"], row["nodes"]) == ("optimal", 0, 47)
        assert len(linprog_calls) == len(calls) == 47

    @pytest.mark.parametrize("plain", [True, False])
    @pytest.mark.parametrize("key,tighten,nodes", PLAIN_ROWS)
    def test_search_runs_no_linprog(self, monkeypatch, key, tighten, nodes, plain):
        """With the binding loaded, no search solves a node through linprog."""
        def no_linprog(*args, **kwargs):
            raise AssertionError("the search must not call linprog")

        monkeypatch.setattr(scipy.optimize, "linprog", no_linprog)
        monkeypatch.setattr(scipy_backend, "linprog", no_linprog)
        row = run_row(ROWS[key], tighten=tighten, plain_search=plain)
        assert (row["status"], row["objective"]) == ("optimal", 0)
        if plain:
            assert row["nodes"] == nodes


def old_kernel_lp_arrays(form):
    """The warm kernel's model as it was built before the shared builder."""
    blocks = [a for a in (form.a_ub, form.a_eq) if a.shape[0]]
    if blocks:
        stacked = sparse.vstack(blocks, format="csr")
        indptr = np.asarray(stacked.indptr, dtype=np.int32)
        indices = np.asarray(stacked.indices, dtype=np.int32)
        data = np.asarray(stacked.data, dtype=float)
    else:
        indptr = np.zeros(1, dtype=np.int32)
        indices = np.zeros(0, dtype=np.int32)
        data = np.zeros(0, dtype=float)
    m_ub = form.a_ub.shape[0]
    return {
        "num_col_": form.num_vars,
        "num_row_": m_ub + form.a_eq.shape[0],
        "col_cost_": np.asarray(form.c, dtype=float),
        "col_lower_": np.asarray(form.lb, dtype=float),
        "col_upper_": np.asarray(form.ub, dtype=float),
        "row_lower_": np.concatenate([np.full(m_ub, -np.inf), form.b_eq]),
        "row_upper_": np.concatenate([form.b_ub, form.b_eq]),
        "start_": indptr, "index_": indices, "value_": data,
    }


class TestSharedBuilder:
    def _forms(self):
        forms = []
        for key in ("t2-g1-N2-L3", "t3-g1-N3-L1", "t4-g6-N2-L1"):
            row = ROWS[key]
            spec = TemporalPartitioner(
                device=reference_device(), memory=reference_memory()
            ).make_spec(
                paper_graph(row.graph), mix_from_string(row.mix),
                n_partitions=row.n_partitions, relaxation=row.relaxation,
            )
            forms.append(compile_standard_form(build_model(spec)[0]))
        rng = np.random.default_rng(7)
        forms += [random_form(rng, m_ub, m_eq, 4)
                  for m_ub, m_eq in ((0, 0), (0, 2), (3, 0), (2, 2))]
        return forms

    def test_builder_matches_the_old_kernel_model(self):
        highspy = highs.load_highs()
        for form in self._forms():
            lp = build_lp(highspy, form)
            expected = old_kernel_lp_arrays(form)
            assert lp.num_col_ == expected["num_col_"]
            assert lp.num_row_ == expected["num_row_"]
            assert lp.a_matrix_.format_ == highspy.MatrixFormat.kRowwise
            for name in ("col_cost_", "col_lower_", "col_upper_",
                         "row_lower_", "row_upper_"):
                assert np.array_equal(getattr(lp, name), expected[name]), name
            for name in ("start_", "index_", "value_"):
                assert np.array_equal(
                    getattr(lp.a_matrix_, name), expected[name]
                ), name

    def test_stack_rows_keeps_inequalities_first(self):
        form = TestPostSolveCheck()._form()
        indptr, indices, data, row_lower, row_upper = stack_rows(form)
        assert indptr.tolist() == [0, 2, 4]
        assert data.tolist() == [1.0, 1.0, 1.0, -1.0]
        assert row_lower.tolist() == [-np.inf, 1.0]
        assert row_upper.tolist() == [4.0, 1.0]

    def test_model_is_built_once_per_form(self, monkeypatch):
        form = TestPostSolveCheck()._form()
        builds = []
        real = scipy_backend.build_lp

        def counting(highspy, f):
            builds.append(f)
            return real(highspy, f)

        monkeypatch.setattr(scipy_backend, "build_lp", counting)
        first = solve_lp_scipy(form)
        ub = form.ub.copy()
        ub[0] = 1.5
        second = solve_lp_scipy(form, form.lb, ub)
        assert len(builds) == 1
        assert first.status is second.status is SolveStatus.OPTIMAL
        assert_identical(
            cold_outcome(form, form.lb, ub), linprog_reference(form, form.lb, ub)
        )
