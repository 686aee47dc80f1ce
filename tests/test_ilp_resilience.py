"""Tests for the LP resilience layer: fault injection, validation,
retry/fallback chain, and the branch and bound's blind-branching
survival path.

The headline property test: on random 0-1 models, the resilient
backend with no faults injected is *result-identical* to the plain
SciPy backend — the armor must be free when nothing attacks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackendChainExhausted,
    SolverError,
    TransientSolverError,
)
from repro.ilp import branch_bound
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.resilience import resilient as resilient_module
from repro.ilp.resilience import (
    FAULT_KINDS,
    FaultInjectingBackend,
    FaultPlan,
    ResilientLPBackend,
    validate_lp_result,
)
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import LPResult, SolveStatus, ValueVector
from repro.ilp.standard_form import compile_standard_form


def knapsack_model():
    """max 5a+4b+3c s.t. 2a+3b+c <= 3  =>  optimum value 8 (a, c)."""
    model = Model("knap")
    a = model.add_binary("a")
    b = model.add_binary("b")
    c = model.add_binary("c")
    model.add(2 * a + 3 * b + c <= 3)
    model.set_objective(-5 * a - 4 * b - 3 * c)
    return model


def knapsack_form():
    return compile_standard_form(knapsack_model())


def solve_root(backend):
    """Solve the knapsack root LP relaxation through ``backend``."""
    form = knapsack_form()
    return form, backend(form, form.lb, form.ub)


class TestFaultPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan(kinds=("raise", "gremlin"))

    def test_rejects_empty_kinds(self):
        with pytest.raises(ValueError, match="at least one"):
            FaultPlan(kinds=())

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError, match="rate"):
            FaultPlan(rate=1.5)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError, match="targets"):
            FaultPlan(targets="secondary")

    def test_from_cli_parses_comma_list(self):
        plan = FaultPlan.from_cli("raise, nan ,perturb", rate=0.5, seed=3)
        assert plan.kinds == ("raise", "nan", "perturb")
        assert plan.rate == 0.5 and plan.seed == 3
        assert plan.targets == "primary"


class TestFaultInjectingBackend:
    def test_rate_zero_is_passthrough(self):
        chaos = FaultInjectingBackend(solve_lp_scipy, FaultPlan(rate=0.0))
        form, result = solve_root(chaos)
        _, plain = solve_root(solve_lp_scipy)
        assert result.objective == pytest.approx(plain.objective)
        assert chaos.injected == 0

    def test_same_seed_same_fault_sequence(self):
        plan = FaultPlan(kinds=FAULT_KINDS, rate=0.5, seed=11, slow_s=0.0)
        a = FaultInjectingBackend(solve_lp_scipy, plan)
        b = FaultInjectingBackend(solve_lp_scipy, plan)
        form = knapsack_form()
        for backend in (a, b):
            for _ in range(20):
                try:
                    backend(form, form.lb, form.ub)
                except SolverError:
                    pass
        assert [(r.call, r.kind) for r in a.log] == [
            (r.call, r.kind) for r in b.log
        ]
        assert a.injected == b.injected > 0

    def test_limit_caps_injection_count(self):
        plan = FaultPlan(kinds=("raise",), rate=1.0, limit=2)
        chaos = FaultInjectingBackend(solve_lp_scipy, plan)
        form = knapsack_form()
        for _ in range(2):
            with pytest.raises(TransientSolverError):
                chaos(form, form.lb, form.ub)
        # Faults 3..5 are suppressed by the limit: real solves.
        for _ in range(3):
            assert chaos(form, form.lb, form.ub).status is SolveStatus.OPTIMAL
        assert chaos.injected == 2

    def test_nan_fault_poisons_solution(self):
        plan = FaultPlan(kinds=("nan",), rate=1.0)
        form, result = solve_root(FaultInjectingBackend(solve_lp_scipy, plan))
        assert math.isnan(result.objective)
        assert any(math.isnan(v) for v in result.values.values())

    def test_perturb_fault_shifts_objective(self):
        plan = FaultPlan(kinds=("perturb",), rate=1.0, perturb=2.5)
        form, result = solve_root(FaultInjectingBackend(solve_lp_scipy, plan))
        _, plain = solve_root(solve_lp_scipy)
        assert result.objective == pytest.approx(plain.objective - 2.5)

    def test_telemetry_counts_by_kind(self):
        plan = FaultPlan(kinds=("infeasible",), rate=1.0)
        chaos = FaultInjectingBackend(solve_lp_scipy, plan)
        form = knapsack_form()
        chaos(form, form.lb, form.ub)
        record = chaos.telemetry()
        assert record["calls"] == 1 and record["injected"] == 1
        assert record["by_kind"] == {"infeasible": 1}


class TestValidateLPResult:
    def test_accepts_genuine_result(self):
        form, result = solve_root(solve_lp_scipy)
        assert validate_lp_result(result, form, form.lb, form.ub) is None

    def test_non_optimal_validates_trivially(self):
        form = knapsack_form()
        infeasible = LPResult(status=SolveStatus.INFEASIBLE)
        assert validate_lp_result(infeasible, form, form.lb, form.ub) is None

    def test_rejects_nan(self):
        form, result = solve_root(solve_lp_scipy)
        poisoned = LPResult(
            status=SolveStatus.OPTIMAL,
            objective=float("nan"),
            values=ValueVector(result.values.array.copy()),
        )
        reason = validate_lp_result(poisoned, form, form.lb, form.ub)
        assert reason is not None and "finite" in reason

    def test_rejects_perturbed_objective(self):
        form, result = solve_root(solve_lp_scipy)
        shifted = LPResult(
            status=SolveStatus.OPTIMAL,
            objective=result.objective - 1.0,
            values=ValueVector(result.values.array.copy()),
        )
        reason = validate_lp_result(shifted, form, form.lb, form.ub)
        assert reason is not None and "disagrees" in reason

    def test_rejects_bound_violation(self):
        form, result = solve_root(solve_lp_scipy)
        values = result.values.array.copy()
        values[0] = 2.0  # binary variable forced past its upper bound
        bad = LPResult(
            status=SolveStatus.OPTIMAL,
            objective=float(form.c @ values),
            values=ValueVector(values),
        )
        reason = validate_lp_result(bad, form, form.lb, form.ub)
        assert reason is not None and "bounds" in reason


def _failing(times):
    """A backend raising a transient fault on the first ``times`` calls."""
    state = {"calls": 0}

    def backend(form, lb, ub):
        state["calls"] += 1
        if state["calls"] <= times:
            raise TransientSolverError("flaky", backend="flaky")
        return solve_lp_scipy(form, lb, ub)

    return backend


def _dead(form, lb, ub):
    raise TransientSolverError("dead wire", backend="dead")


def _fatal(form, lb, ub):
    raise SolverError("hardware on fire")


class TestResilientLPBackend:
    def test_fault_free_matches_plain(self):
        form, plain = solve_root(solve_lp_scipy)
        _, armored = solve_root(ResilientLPBackend())
        assert armored.status is plain.status
        assert armored.objective == pytest.approx(plain.objective)

    def test_transient_fault_retried_on_same_backend(self, monkeypatch):
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 2)
        resilient = ResilientLPBackend(
            backends=[("flaky", _failing(1)), ("never", _dead)],
            sleep=lambda s: None,
        )
        form, result = solve_root(resilient)
        assert result.status is SolveStatus.OPTIMAL
        assert resilient.retries == 1 and resilient.fallbacks == 0

    def test_fatal_fault_skips_retries_and_falls_through(self):
        resilient = ResilientLPBackend(
            backends=[("fatal", _fatal), ("scipy-highs", solve_lp_scipy)],
            sleep=lambda s: None,
        )
        form, result = solve_root(resilient)
        assert result.status is SolveStatus.OPTIMAL
        assert resilient.fallbacks == 1 and resilient.retries == 0

    def test_chain_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 1)
        resilient = ResilientLPBackend(
            backends=[("dead", _dead)], sleep=lambda s: None,
        )
        form = knapsack_form()
        with pytest.raises(BackendChainExhausted):
            resilient(form, form.lb, form.ub)

    def test_quarantine_after_consecutive_failures(self, monkeypatch):
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 0)
        monkeypatch.setattr(resilient_module, "QUARANTINE_AFTER", 2)
        resilient = ResilientLPBackend(
            backends=[("dead", _dead), ("scipy-highs", solve_lp_scipy)],
            sleep=lambda s: None,
        )
        form = knapsack_form()
        for _ in range(3):
            resilient(form, form.lb, form.ub)
        record = resilient.resilience_telemetry()
        dead = next(b for b in record["backends"] if b["name"] == "dead")
        assert dead["quarantined"] is True
        assert resilient.quarantines == 1
        # Call 3 never touched the quarantined backend.
        assert dead["calls"] == 2

    def test_validation_failure_falls_through(self, monkeypatch):
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 0)
        plan = FaultPlan(kinds=("perturb",), rate=1.0)
        lying = FaultInjectingBackend(solve_lp_scipy, plan)
        resilient = ResilientLPBackend(
            backends=[("liar", lying), ("scipy-highs", solve_lp_scipy)],
            sleep=lambda s: None,
        )
        form, result = solve_root(resilient)
        _, plain = solve_root(solve_lp_scipy)
        assert result.objective == pytest.approx(plain.objective)
        assert resilient.validation_failures >= 1

    def test_spurious_infeasible_overruled_by_second_opinion(self):
        plan = FaultPlan(kinds=("infeasible",), rate=1.0)
        lying = FaultInjectingBackend(solve_lp_scipy, plan)
        resilient = ResilientLPBackend(
            backends=[("liar", lying), ("scipy-highs", solve_lp_scipy)],
            double_check_infeasible=True, sleep=lambda s: None,
        )
        form, result = solve_root(resilient)
        assert result.status is SolveStatus.OPTIMAL
        assert resilient.infeasible_overruled == 1

    def test_last_slot_infeasible_is_asked_again(self):
        plan = FaultPlan(kinds=("infeasible",), rate=1.0, limit=1)
        resilient = ResilientLPBackend(
            backends=[("liar", FaultInjectingBackend(solve_lp_scipy, plan))],
            double_check_infeasible=True, sleep=lambda s: None,
        )
        form, result = solve_root(resilient)
        assert result.status is SolveStatus.OPTIMAL
        assert resilient.infeasible_overruled == 1

    def test_unconfirmed_infeasible_falls_through(self):
        # The second opinion faults, so the spurious verdict is not
        # believed: the chain moves on and the next backend answers.
        plan = FaultPlan(kinds=("infeasible",), rate=1.0, limit=1)
        resilient = ResilientLPBackend(
            backends=[
                ("liar", FaultInjectingBackend(solve_lp_scipy, plan)),
                ("flaky", _failing(1)),
            ],
            double_check_infeasible=True, sleep=lambda s: None,
        )
        form, result = solve_root(resilient)
        assert result.status is SolveStatus.OPTIMAL
        assert resilient.fallbacks == 1

    def test_contradictory_bounds_short_circuit(self):
        resilient = ResilientLPBackend(backends=[("dead", _dead)])
        form = knapsack_form()
        lb = form.lb.copy()
        lb[0] = 1.0
        ub = form.ub.copy()
        ub[0] = 0.0
        result = resilient(form, lb, ub)
        assert result.status is SolveStatus.INFEASIBLE

    def test_telemetry_structure(self):
        resilient = ResilientLPBackend()
        solve_root(resilient)
        record = resilient.resilience_telemetry()
        assert record["calls"] == 1
        assert [b["name"] for b in record["backends"]] == ["scipy-highs"]


class TestTransientStatusMapping:
    def test_transient_is_solver_error_with_metadata(self):
        exc = TransientSolverError("m", backend="scipy-highs", raw_status=4)
        assert isinstance(exc, SolverError)
        assert exc.backend == "scipy-highs" and exc.raw_status == 4


def _fails_when_fixed(form, lb, ub):
    """An LP backend that fails on every fully fixed box."""
    if np.array_equal(lb, ub):
        raise SolverError("injected: LP failure on a fixed box")
    return solve_lp_scipy(form, lb, ub)


def _failing_leaf(lb, ub, budget):
    raise SolverError("injected: leaf sub-solve failure")


def two_box_model():
    """min -(4a+3b) s.t. 2a+2b <= 3: the b=1 branch reaches both of its
    fully fixed boxes, (1, 1) infeasible and (0, 1) integral; the b=0
    branch finds the optimum (1, 0) while ``a`` is still free."""
    model = Model("two-box")
    a = model.add_binary("a")
    b = model.add_binary("b")
    model.add(2 * a + 2 * b <= 3)
    model.set_objective(-4 * a - 3 * b)
    return model


def odd_sum_model():
    """2(y0+y1+y2) == 3: every LP with a free ``y`` is fractional, and
    no fully fixed box is feasible."""
    model = Model("odd-sum")
    ys = [model.add_binary(f"y{i}") for i in range(3)]
    model.add(2 * lin_sum(ys) == 3)
    model.set_objective(lin_sum(-1 * y for y in ys))
    return model


class TestBranchAndBoundSurvival:
    def test_primary_dead_still_optimal_via_fallback(self, monkeypatch):
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 0)
        config = BranchAndBoundConfig(
            lp_backend=ResilientLPBackend(
                backends=[("dead", _dead), ("scipy-highs", solve_lp_scipy)],
                sleep=lambda s: None,
            )
        )
        result = BranchAndBound(knapsack_model(), config=config).solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-8.0)

    def test_whole_chain_dead_errors_with_lp_failure_limit(self, monkeypatch):
        monkeypatch.setattr(branch_bound, "LP_FAILURE_LIMIT", 5)
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 0)
        config = BranchAndBoundConfig(
            lp_backend=ResilientLPBackend(
                backends=[("dead", _dead)], sleep=lambda s: None,
            ),
        )
        result = BranchAndBound(knapsack_model(), config=config).solve()
        assert result.status is SolveStatus.ERROR
        assert result.stats.stop_reason == "lp_failure_limit"
        assert result.stats.lp_failures >= 5
        assert result.stats.resilience["exactness_lost"] is True

    def test_node_accounting_includes_dropped(self, monkeypatch):
        monkeypatch.setattr(branch_bound, "LP_FAILURE_LIMIT", 5)
        monkeypatch.setattr(resilient_module, "MAX_RETRIES", 0)
        config = BranchAndBoundConfig(
            lp_backend=ResilientLPBackend(
                backends=[("dead", _dead)], sleep=lambda s: None,
            ),
        )
        stats = BranchAndBound(knapsack_model(), config=config).solve().stats
        assert stats.nodes_explored == (
            stats.nodes_branched
            + stats.nodes_pruned_bound
            + stats.nodes_pruned_infeasible
            + stats.nodes_integral
            + stats.nodes_leaf_solved
            + stats.nodes_dropped
        )

    def test_leaf_decides_a_fully_fixed_node_whose_lp_failed(self):
        # Both fully fixed boxes of the b=1 branch fail their LP; the
        # exact leaf sub-solve decides them, so the answer stays exact.
        config = BranchAndBoundConfig(lp_backend=_fails_when_fixed)
        result = BranchAndBound(two_box_model(), config=config).solve()
        stats = result.stats
        assert stats.lp_failures == 2
        assert stats.nodes_leaf_solved == 2
        assert stats.nodes_dropped == 0
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-4.0)

    def test_leaf_decides_an_infeasible_model_exactly(self):
        config = BranchAndBoundConfig(lp_backend=_fails_when_fixed)
        result = BranchAndBound(odd_sum_model(), config=config).solve()
        assert result.stats.nodes_leaf_solved > 0
        assert result.stats.nodes_dropped == 0
        assert result.status is SolveStatus.INFEASIBLE

    def test_failed_leaf_drops_the_node_and_downgrades_to_feasible(self):
        config = BranchAndBoundConfig(
            lp_backend=_fails_when_fixed, leaf_solver=_failing_leaf
        )
        result = BranchAndBound(two_box_model(), config=config).solve()
        stats = result.stats
        assert stats.nodes_dropped == 2
        assert stats.resilience["exactness_lost"] is True
        # The incumbent from the b=0 branch survives without its proof.
        assert result.status is SolveStatus.FEASIBLE
        assert result.objective == pytest.approx(-4.0)

    def test_failed_leaf_without_incumbent_is_an_error(self):
        config = BranchAndBoundConfig(
            lp_backend=_fails_when_fixed, leaf_solver=_failing_leaf
        )
        result = BranchAndBound(odd_sum_model(), config=config).solve()
        assert result.stats.nodes_dropped > 0
        # Not INFEASIBLE: the dropped leaves were never decided.
        assert result.status is SolveStatus.ERROR

    def test_fault_free_resilient_run_has_no_resilience_noise(self):
        config = BranchAndBoundConfig(lp_backend=ResilientLPBackend())
        result = BranchAndBound(knapsack_model(), config=config).solve()
        assert result.status is SolveStatus.OPTIMAL
        block = result.stats.resilience
        assert block["lp_failures"] == 0
        assert block["exactness_lost"] is False


@st.composite
def random_01_model(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    coef = st.integers(-3, 3)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-2, 5)) for _ in range(m)]
    return c, rows, rhs


def build_01(c, rows, rhs):
    model = Model("prop")
    xs = [model.add_binary(f"x{i}") for i in range(len(c))]
    for row, b in zip(rows, rhs):
        model.add(lin_sum(k * x for k, x in zip(row, xs)) <= b)
    model.set_objective(lin_sum(k * x for k, x in zip(c, xs)))
    return model


@given(random_01_model())
@settings(max_examples=40, deadline=None)
def test_property_fault_free_resilient_equals_plain(problem):
    """With no faults the armor is invisible: identical status and
    objective to the bare backend on arbitrary models."""
    c, rows, rhs = problem
    plain = BranchAndBound(build_01(c, rows, rhs)).solve()
    armored = BranchAndBound(
        build_01(c, rows, rhs),
        config=BranchAndBoundConfig(lp_backend=ResilientLPBackend()),
    ).solve()
    assert armored.status is plain.status
    if plain.status is SolveStatus.OPTIMAL:
        assert armored.objective == pytest.approx(plain.objective, abs=1e-6)
