"""Tests for the incremental warm-starting LP kernel and its plumbing.

Covers the kernel itself (equivalence with the stateless scipy backend
over random LPs and random branching-style bound overrides,
rebind-on-new-form, the warm-started HiGHS path, re-solving on a
resilient retry), the one fallback path (a stale binding leaves the
kernel out of the partitioner's chain; kernel faults fall through the
chain and quarantine the kernel), the array-backed
:class:`~repro.ilp.solution.ValueVector` result values, and the
``solve.kernel`` telemetry passthroughs.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import parallel_support
from repro.core.partitioner import TemporalPartitioner
from repro.errors import SolverError
from repro.graph.generators import paper_graph
from repro.ilp import highs
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.highs import have_highspy
from repro.ilp.incremental import IncrementalLPSolver
from repro.ilp.model import Model
from repro.ilp.resilience import ResilientLPBackend, validate_lp_result
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import (
    LPResult,
    SolveStatus,
    ValueVector,
    plain_values,
)
from repro.ilp.standard_form import compile_standard_form
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import (
    EXPERIMENT_ROWS,
    reference_device,
    reference_memory,
)


def build_lp_model(c, rows, rhs, senses, ubs, integer=False):
    model = Model("prop")
    xs = [
        model.add_var(f"x{i}", 0, ubs[i], integer=integer)
        for i in range(len(c))
    ]
    for row, b, sense in zip(rows, rhs, senses):
        expr = lin_sum(coef * x for coef, x in zip(row, xs))
        if sense == "<=":
            model.add(expr <= b)
        elif sense == ">=":
            model.add(expr >= b)
        else:
            model.add(expr == b)
    model.set_objective(lin_sum(coef * x for coef, x in zip(c, xs)))
    return model


@st.composite
def random_lp_with_branchings(draw):
    """A random bounded LP plus a few branching-style bound overrides."""
    n = draw(st.integers(2, 5))
    m = draw(st.integers(1, 5))
    coef = st.integers(-4, 4)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-6, 10)) for _ in range(m)]
    senses = [draw(st.sampled_from(["<=", ">=", "=="])) for _ in range(m)]
    ubs = [draw(st.integers(1, 6)) for _ in range(n)]
    # Branching-style overrides: tighten one variable's box per "node".
    overrides = []
    for _ in range(draw(st.integers(1, 4))):
        var = draw(st.integers(0, n - 1))
        fix_up = draw(st.booleans())
        point = draw(st.integers(0, 6))
        overrides.append((var, fix_up, point))
    return c, rows, rhs, senses, ubs, overrides


@given(random_lp_with_branchings())
@example(
    (
        [0] * 5,
        [[0, 0, 0, 0, 0], [0, 0, 0, -1, 1]],
        [0, 0],
        ["<=", "<="],
        [1] * 5,
        [(3, True, 1), (0, False, 0)],
    )
)
@settings(max_examples=100, deadline=None)
def test_property_incremental_matches_scipy(problem):
    """The kernel and the stateless backend agree on every node solve.

    Status and objective must match; the optimal *vertex* need not —
    a degenerate LP (the pinned zero-objective example) has many
    optima, and the warm-started kernel may stop at a different one
    (DESIGN.md §11) — so the kernel's point is checked for
    feasibility instead.
    """
    c, rows, rhs, senses, ubs, overrides = problem
    form = compile_standard_form(
        build_lp_model(c, rows, rhs, senses, ubs)
    )
    kernel = IncrementalLPSolver()

    # Root solve plus each branching override, like B&B nodes would.
    nodes = [(form.lb.copy(), form.ub.copy())]
    for var, fix_up, point in overrides:
        lb = form.lb.copy()
        ub = form.ub.copy()
        if fix_up:
            lb[var] = min(point, ub[var])
        else:
            ub[var] = max(point, lb[var])
        nodes.append((lb, ub))

    tol = 1e-7
    for lb, ub in nodes:
        ours = kernel(form, lb, ub)
        ref = solve_lp_scipy(form, lb, ub)
        assert ours.status == ref.status
        if ours.status is SolveStatus.OPTIMAL:
            assert ours.objective == pytest.approx(ref.objective, abs=1e-7)
            x = np.array([ours.values[i] for i in range(form.num_vars)])
            assert np.all(x >= lb - tol) and np.all(x <= ub + tol)
            assert np.all(form.a_ub @ x <= form.b_ub + tol)
            assert np.allclose(form.a_eq @ x, form.b_eq, rtol=0, atol=tol)


class TestIncrementalKernel:
    def _form(self):
        return compile_standard_form(
            build_lp_model(
                [-1, -1], [[1, 2], [3, 1]], [4, 6], ["<=", "<="], [10, 10]
            )
        )

    def test_contradictory_bounds_short_circuit(self):
        form = self._form()
        kernel = IncrementalLPSolver()
        lb = form.lb.copy()
        ub = form.ub.copy()
        lb[0], ub[0] = 2.0, 1.0
        assert kernel(form, lb, ub).status is SolveStatus.INFEASIBLE
        assert kernel.lp_solves == 0  # decided without any LP

    def test_rebind_on_new_form(self):
        kernel = IncrementalLPSolver()
        form_a = self._form()
        form_b = compile_standard_form(
            build_lp_model([1, 1], [[1, 1]], [3], [">="], [5, 5])
        )
        a = kernel(form_a)
        b = kernel(form_b)
        assert kernel.rebinds == 2
        assert a.objective != pytest.approx(b.objective)
        # Returning to a previous form rebinds again.
        kernel(form_a)
        assert kernel.rebinds == 3

    def test_highs_kernel_warm_starts_every_resolve(self):
        """SciPy's vendored HiGHS drives the kernel; re-solves run warm."""
        form = self._form()
        kernel = IncrementalLPSolver()
        root = kernel(form)
        for var in range(form.num_vars):
            ub = form.ub.copy()
            ub[var] = 1.0
            kernel(form, form.lb, ub)
        telemetry = kernel.kernel_telemetry()
        assert telemetry["name"] == "incremental-highs"
        assert telemetry["lp_solves"] == 1 + form.num_vars
        assert telemetry["warm_start_hits"] == telemetry["lp_solves"] - 1
        # The stacked HiGHS row duals split into the (ub, eq) contract.
        assert root.dual_ub is not None and root.dual_eq is not None
        assert root.dual_ub.shape == form.b_ub.shape
        assert root.dual_eq.shape == form.b_eq.shape

    def test_kernel_telemetry_block(self):
        form = self._form()
        kernel = IncrementalLPSolver()
        kernel(form)
        kernel(form)
        telemetry = kernel.kernel_telemetry()
        assert set(telemetry) == {
            "name", "calls", "lp_solves", "warm_start_hits", "rebinds",
        }
        assert telemetry["name"] == "incremental-highs"
        assert telemetry["calls"] == 2
        assert telemetry["lp_solves"] == 2
        assert telemetry["rebinds"] == 1

    def test_optimal_results_carry_row_duals(self):
        form = self._form()
        result = IncrementalLPSolver()(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.dual_ub is not None and result.dual_eq is not None
        assert result.dual_ub.shape == form.b_ub.shape
        assert result.dual_eq.shape == form.b_eq.shape


class TestValueVector:
    def test_mapping_protocol(self):
        vec = ValueVector(np.array([1.0, 0.0, 2.5]))
        assert len(vec) == 3
        assert vec[0] == 1.0
        assert vec[2] == 2.5
        assert list(vec) == [0, 1, 2]
        assert dict(vec) == {0: 1.0, 1: 0.0, 2: 2.5}
        assert sorted(vec.items()) == [(0, 1.0), (1, 0.0), (2, 2.5)]
        assert 2 in vec and 3 not in vec

    def test_out_of_range_and_negative_keys_raise(self):
        vec = ValueVector(np.array([1.0]))
        with pytest.raises(KeyError):
            vec[1]
        with pytest.raises(KeyError):
            vec[-1]

    def test_equality_with_dict_and_unhashable(self):
        vec = ValueVector(np.array([1.0, 2.0]))
        assert vec == {0: 1.0, 1: 2.0}
        assert vec == ValueVector(np.array([1.0, 2.0]))
        assert vec != ValueVector(np.array([1.0, 3.0]))
        with pytest.raises(TypeError):
            hash(vec)

    def test_plain_values_round_trip(self):
        vec = ValueVector(np.array([0.0, 1.0]))
        plain = plain_values(vec)
        assert plain == {0: 0.0, 1: 1.0}
        assert isinstance(plain, dict)
        assert plain_values(None) is None
        assert plain_values({3: 1.5}) == {3: 1.5}

    def test_lpresult_with_vector_values_compares(self):
        a = LPResult(
            status=SolveStatus.OPTIMAL, objective=1.0,
            values=ValueVector(np.array([1.0])),
        )
        b = LPResult(
            status=SolveStatus.OPTIMAL, objective=1.0,
            values=ValueVector(np.array([1.0])),
            dual_ub=np.array([0.5]),  # excluded from equality
        )
        assert a == b


class TestKernelIntegration:
    def _model(self):
        # min -(x+y+z) over binaries with a knapsack row: two fit.
        return build_lp_model(
            [-1, -1, -1], [[2, 2, 3]], [5], ["<="], [1, 1, 1], integer=True
        )

    def test_bnb_surfaces_kernel_telemetry(self):
        kernel = IncrementalLPSolver()
        config = BranchAndBoundConfig(
            objective_is_integral=True, lp_backend=kernel,
        )
        result = BranchAndBound(self._model(), config=config).solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.stats.kernel is not None
        assert result.stats.kernel["name"] == kernel.kernel_name
        assert result.stats.kernel["lp_solves"] >= 1
        assert "kernel" in result.stats.as_dict()

    def test_resilient_chain_passes_kernel_telemetry_through(self):
        backend = ResilientLPBackend(
            backends=[
                ("incremental", IncrementalLPSolver()),
                ("scipy-highs", solve_lp_scipy),
            ]
        )
        form = compile_standard_form(self._model())
        backend(form)
        telemetry = backend.kernel_telemetry()
        assert telemetry is not None
        assert telemetry["calls"] == 1

    def test_resilient_chain_without_kernel_returns_none(self):
        backend = ResilientLPBackend(
            backends=[("scipy-highs", solve_lp_scipy)]
        )
        assert backend.kernel_telemetry() is None

    def test_kernel_fault_falls_through_chain(self):
        """A dead kernel demotes to the chain's stateless backends."""

        def dead(form, lb=None, ub=None):
            raise SolverError("kernel down")

        backend = ResilientLPBackend(
            backends=[("incremental", dead), ("scipy-highs", solve_lp_scipy)]
        )
        form = compile_standard_form(self._model())
        result = backend(form)
        assert result.status is SolveStatus.OPTIMAL
        assert backend.fallbacks == 1

    def test_validation_retry_re_solves_on_the_kernel(self, monkeypatch):
        """A retry after a failed validation gets a fresh kernel solve."""
        form = compile_standard_form(self._model())
        kernel = IncrementalLPSolver(form)
        real = kernel._solve_highs
        bad = []

        def corrupt_once(lb, ub):
            result = real(lb, ub)
            if not bad:
                # Wrong objective for the returned point: fails validation.
                bad.append(result)
                return LPResult(
                    status=SolveStatus.OPTIMAL,
                    objective=result.objective - 1.0,
                    values=result.values,
                )
            return result

        monkeypatch.setattr(kernel, "_solve_highs", corrupt_once)
        backend = ResilientLPBackend(
            backends=[
                ("incremental", kernel),
                ("scipy-highs", solve_lp_scipy),
            ],
            sleep=lambda _s: None,
        )
        result = backend(form)
        assert kernel.lp_solves == 2
        assert backend.validation_failures == 1
        assert validate_lp_result(result, form, form.lb, form.ub) is None
        assert backend.fallbacks == 0


def t3_outcome():
    """``partition_spec`` on the Table 3 row t3-g1-N3-L1 (optimum 2)."""
    row = next(r for r in EXPERIMENT_ROWS if r.key == "t3-g1-N3-L1")
    tp = TemporalPartitioner(device=reference_device(), memory=reference_memory())
    spec = tp.make_spec(
        paper_graph(row.graph), mix_from_string(row.mix),
        n_partitions=row.n_partitions, relaxation=row.relaxation,
    )
    outcome = tp.partition_spec(spec)
    return outcome, (outcome.status, outcome.objective)


class TestOneFallbackPath:
    """The resilient chain is the only place a kernel fault is handled."""

    def test_stale_binding_leaves_the_kernel_out(self, monkeypatch):
        stale = SimpleNamespace(**vars(highs._vendored_highs()))
        stale.Highs = type(
            "StaleHighs",
            (),
            {
                name: None
                for name in highs._REQUIRED_METHODS
                if name != "changeColsBounds"
            },
        )
        monkeypatch.setattr(highs, "_vendored_highs", lambda: stale)
        monkeypatch.setattr(highs, "_binding", None)
        assert not have_highspy()
        form = TestIncrementalKernel()._form()
        with pytest.raises(SolverError, match="lacks Highs.changeColsBounds"):
            IncrementalLPSolver()(form)
        backend = parallel_support.make_lp_backend()
        assert backend.kernel_telemetry() is None
        assert [b["name"] for b in backend.resilience_telemetry()["backends"]] == [
            "scipy-highs",
        ]
        # A cold vertex may change the node count, not the answer.
        outcome, answer = t3_outcome()
        assert answer == (SolveStatus.OPTIMAL, 2)
        assert outcome.solve_stats.kernel is None

    def test_kernel_faults_fall_through_and_quarantine(self, monkeypatch):
        _, fault_free = t3_outcome()
        real = IncrementalLPSolver._solve_highs
        faults = []

        def crash_three_times(self, lb, ub):
            if len(faults) < 3:
                faults.append(1)
                raise RuntimeError("binding fault")
            return real(self, lb, ub)

        monkeypatch.setattr(IncrementalLPSolver, "_solve_highs", crash_three_times)
        outcome, answer = t3_outcome()
        assert answer == fault_free
        block = outcome.solve_stats.resilience["backend"]
        assert (block["fallbacks"], block["quarantines"]) == (3, 1)
        kernel_slot = block["backends"][0]
        assert kernel_slot["name"] == "incremental"
        assert kernel_slot["quarantined"] is True
