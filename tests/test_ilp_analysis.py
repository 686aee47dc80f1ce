"""Tests for the static formulation analyzer (`repro.ilp.analysis`).

Covers the three analyzer layers on hand-built models with *seeded*
defects (the linter must flag each with the right diagnostic code),
the presolve reductions (including the equality-substitution pass that
proves the base model's eq-4 rows redundant), and the property that
presolve preserves the optimal objective — cross-checked against both
SciPy/HiGHS and the exhaustive enumerator on small random instances.
"""

from __future__ import annotations

import pytest

from tests.conftest import make_spec
from repro.core.bruteforce import brute_force_optimum
from repro.core.formulation import FormulationOptions, build_model
from repro.core.precheck import (
    find_operation_cycle,
    find_task_cycle,
    min_task_area,
    precheck_graph,
    precheck_spec,
)
from repro.graph.builders import TaskGraphBuilder
from repro.graph.generators import RandomGraphConfig, random_task_graph
from repro.graph.operations import Operation, OpType
from repro.graph.taskgraph import Task, TaskGraph
from repro.ilp.analysis import (
    AnalysisReport,
    Severity,
    analyze_model,
    lint_model,
    presolve,
    worst_severity,
)
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.branching import make_rule
from repro.ilp.expr import LinExpr
from repro.ilp.milp_backend import solve_milp_scipy
from repro.ilp.model import Model, Sense
from repro.ilp.solution import SolveStatus


def codes(diagnostics):
    return {d.code for d in diagnostics}


def by_code(diagnostics, code):
    return [d for d in diagnostics if d.code == code]


# ---------------------------------------------------------------------------
# lint: every seeded defect gets the right code and severity
# ---------------------------------------------------------------------------


class TestLintSeededDefects:
    def test_clean_model_is_clean(self):
        m = Model("clean")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y <= 1, tag="pick-one")
        m.set_objective(x + 2 * y)
        assert lint_model(m) == []

    def test_unused_continuous_variable(self):
        m = Model("unused")
        x = m.add_binary("x")
        m.add_var("slack", 0.0, 5.0)
        m.add(1 * x <= 1)
        diags = by_code(lint_model(m), "unused-variable")
        assert len(diags) == 1
        assert diags[0].severity is Severity.INFO
        assert "slack" in diags[0].message

    def test_unused_binary_is_free_binary(self):
        m = Model("freebin")
        x = m.add_binary("x")
        m.add_binary("orphan")
        m.add(1 * x <= 1)
        diags = by_code(lint_model(m), "free-binary")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING

    def test_empty_row_warning(self):
        m = Model("empty")
        m.add(LinExpr() <= 1.0, tag="noop")
        diags = by_code(lint_model(m), "empty-row")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING
        assert diags[0].constraint_tag == "noop"

    def test_constant_violated_row_error(self):
        m = Model("violated")
        m.add(LinExpr() <= -1.0)
        diags = by_code(lint_model(m), "constant-violated-row")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_activity_infeasible_row(self):
        m = Model("infeas")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y >= 3, tag="too-much")
        diags = by_code(lint_model(m), "infeasible-row")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR
        assert worst_severity(lint_model(m)) is Severity.ERROR

    def test_activity_redundant_row(self):
        m = Model("redund")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y <= 5)
        diags = by_code(lint_model(m), "redundant-row")
        assert len(diags) == 1
        assert diags[0].severity is Severity.INFO

    def test_coefficient_range_warning(self):
        m = Model("range")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(1e-6 * x + 1e6 * y <= 1)
        assert "coefficient-range" in codes(lint_model(m))

    def test_duplicate_row(self):
        m = Model("dup")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y <= 1, tag="first")
        # Scaled copy: 2x + 2y <= 2 is the same halfspace.
        m.add(2 * x + 2 * y <= 2, tag="second")
        diags = by_code(lint_model(m), "duplicate-row")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING

    def test_dominated_row(self):
        m = Model("dom")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y <= 1)
        m.add(x + y <= 2)  # implied by the row above
        assert "dominated-row" in codes(lint_model(m))

    def test_conflicting_equalities(self):
        m = Model("conflict")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y == 1)
        m.add(x + y == 2)
        diags = by_code(lint_model(m), "conflicting-equalities")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_sos1_conflict(self):
        m = Model("sos")
        a = m.add_var("a", 1.0, 1.0, integer=True)
        b = m.add_var("b", 1.0, 1.0, integer=True)
        m.add(a + b <= 2)
        m.add_sos1_group([a, b])
        diags = by_code(lint_model(m), "sos1-conflict")
        assert len(diags) == 1
        assert diags[0].severity is Severity.ERROR

    def test_sos1_fixed_overlap(self):
        m = Model("sosfix")
        a = m.add_var("a", 1.0, 1.0, integer=True)
        b = m.add_binary("b")
        m.add(a + b <= 2)
        m.add_sos1_group([a, b])
        diags = by_code(lint_model(m), "sos1-fixed-overlap")
        assert len(diags) == 1
        assert diags[0].severity is Severity.WARNING

    def test_real_formulation_lints_clean_of_errors(self, chain3_spec):
        model, _ = build_model(chain3_spec, FormulationOptions())
        diags = lint_model(model)
        worst = worst_severity(diags)
        assert worst is None or worst is not Severity.ERROR


# ---------------------------------------------------------------------------
# presolve reductions
# ---------------------------------------------------------------------------


class TestPresolveReductions:
    def test_singleton_row_becomes_bound(self):
        m = Model("singleton")
        x = m.add_var("x", 0.0, 10.0)
        y = m.add_var("y", 0.0, 10.0)
        m.add(1 * x <= 4)
        m.add(x + y <= 12)
        res = presolve(m, eliminate=False)
        assert not res.is_infeasible
        assert res.stats.rows_removed_by_reason.get("singleton") == 1
        assert res.model.variables[x.index].ub == pytest.approx(4.0)
        # The two-variable row stays: 4 + 10 can still exceed 12.
        assert res.model.num_constraints == 1

    def test_forcing_row_fixes_binaries(self):
        m = Model("forcing")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y >= 2)
        m.set_objective(x + 3 * y)
        res = presolve(m, eliminate=True)
        assert not res.is_infeasible
        assert res.stats.vars_fixed == 2
        assert res.model.num_vars == 0
        lifted = res.map.lift({})
        assert lifted == {x.index: 1.0, y.index: 1.0}
        assert res.map.lift_objective(0.0) == pytest.approx(4.0)

    def test_integer_bound_rounding(self):
        m = Model("round")
        x = m.add_var("x", 0.0, 5.0, integer=True)
        y = m.add_var("y", 0.0, 5.0)
        m.add(2 * x + y <= 7)
        res = presolve(m, eliminate=False)
        # 2x <= 7 with y >= 0 gives x <= 3.5, rounded to 3 for an integer.
        assert res.model.variables[x.index].ub == pytest.approx(3.0)
        assert res.stats.bounds_tightened >= 1

    def test_propagation_detects_infeasible_row(self):
        m = Model("noway")
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y >= 3, tag="eq11-style")
        res = presolve(m)
        assert res.is_infeasible
        assert res.model is None
        assert res.certificate.code == "row-infeasible"

    def test_bound_contradiction_certificate(self):
        m = Model("cross")
        x = m.add_var("x", 0.0, 1.0)
        m.add(1 * x >= 1)
        m.add(1 * x <= 0)
        res = presolve(m)
        assert res.is_infeasible
        assert res.certificate.code in ("bound-contradiction", "row-infeasible")

    def test_coefficient_tightening(self):
        m = Model("tighten")
        x = m.add_binary("x")
        y = m.add_var("y", 0.0, 1.0)
        m.add(10 * x + y <= 10)
        res = presolve(m, eliminate=False)
        assert res.stats.coeffs_tightened >= 1
        (row,) = res.model.constraints
        assert row.sense is Sense.LE
        assert row.expr.coeffs[x.index] == pytest.approx(1.0)
        assert row.rhs == pytest.approx(1.0)
        # The tightened row must keep exactly the same 0-1 solutions.
        for xv in (0.0, 1.0):
            for yv in (0.0, 0.5, 1.0):
                original = 10 * xv + yv <= 10 + 1e-9
                tightened = xv + yv <= 1 + 1e-9
                assert original == tightened

    def test_equality_substitution_finds_implied_rows(self):
        m = Model("implied")
        a = m.add_var("a", 0.0, 1.0)
        b = m.add_var("b", 0.0, 1.0)
        w = m.add_var("w", 0.0, 1.0)
        m.add(w - a - b == 0, tag="eq5")
        m.add(w - a >= 0, tag="eq4")  # implied by eq5 with b >= 0
        res = presolve(m, eliminate=False)
        assert res.stats.rows_removed_by_reason.get("implied") == 1
        assert res.model.num_constraints == 1
        assert res.model.constraints[0].sense is Sense.EQ

    def test_base_model_eq4_rows_proven_redundant(self, chain3_spec):
        model, _ = build_model(chain3_spec, FormulationOptions(tighten=False))
        res = presolve(model, eliminate=False)
        assert not res.is_infeasible
        assert res.stats.rows_removed_by_reason.get("implied", 0) > 0
        assert res.stats.rows_after < res.stats.rows_before
        assert res.stats.nonzeros_after <= res.stats.nonzeros_before

    def test_stats_as_dict_shape(self):
        m = Model("shape")
        x = m.add_binary("x")
        m.add(1 * x <= 4)
        res = presolve(m)
        d = res.stats.as_dict()
        for key in (
            "rounds",
            "vars_fixed",
            "bounds_tightened",
            "coeffs_tightened",
            "rows_removed",
            "rows_removed_by_reason",
            "vars_before",
            "vars_after",
            "rows_before",
            "rows_after",
            "nonzeros_before",
            "nonzeros_after",
        ):
            assert key in d


# ---------------------------------------------------------------------------
# presolve preserves the optimum (property test, cross-checked)
# ---------------------------------------------------------------------------


def _random_spec(seed: int):
    graph = random_task_graph(RandomGraphConfig(n_tasks=3, n_ops=7, seed=seed))
    return make_spec(
        graph,
        mix="1A+1M+1S",
        memory_size=3,
        n_partitions=3,
        relaxation=1,
    )


class TestPresolvePreservesOptimum:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_same_optimum_as_original_and_bruteforce(self, seed):
        spec = _random_spec(seed)
        brute = brute_force_optimum(spec)
        model, _ = build_model(spec, FormulationOptions())
        baseline = solve_milp_scipy(model)

        if brute is None:
            assert not baseline.has_solution
            res = presolve(model)
            if not res.is_infeasible:
                assert not solve_milp_scipy(res.model).has_solution
            return

        assert baseline.has_solution
        assert baseline.objective == pytest.approx(brute[0], abs=1e-6)

        for eliminate in (False, True):
            res = presolve(model, eliminate=eliminate)
            assert not res.is_infeasible
            reduced = solve_milp_scipy(res.model)
            assert reduced.has_solution
            lifted_objective = res.map.lift_objective(reduced.objective)
            assert lifted_objective == pytest.approx(brute[0], abs=1e-6)
            lifted = res.map.lift(reduced.values)
            assert model.check_feasible(lifted) == []
            assert model.objective_value(lifted) == pytest.approx(
                brute[0], abs=1e-6
            )

    @pytest.mark.parametrize("tighten", [True, False])
    def test_paper_style_models_keep_optimum(self, chain3_spec, tighten):
        model, _ = build_model(chain3_spec, FormulationOptions(tighten=tighten))
        baseline = solve_milp_scipy(model)
        assert baseline.has_solution
        res = presolve(model, eliminate=False)
        assert res.stats.rows_removed > 0
        reduced = solve_milp_scipy(res.model)
        assert reduced.objective == pytest.approx(baseline.objective, abs=1e-6)


# ---------------------------------------------------------------------------
# structural prechecks (certificates before any model exists)
# ---------------------------------------------------------------------------


def _cyclic_task_graph():
    graph = TaskGraph("cyclic")
    t1 = Task("t1")
    t1.add_operation(Operation("a", OpType.ADD, 16))
    t2 = Task("t2")
    t2.add_operation(Operation("b", OpType.ADD, 16))
    graph.add_task(t1)
    graph.add_task(t2)
    graph.add_data_edge("t1", "a", "t2", "b", 1)
    graph.add_data_edge("t2", "b", "t1", "a", 1)
    return graph


def _pair_graph():
    b = TaskGraphBuilder("pair")
    b.task("t1").op("m1", "mul")
    b.task("t2").op("a1", "add")
    b.data_edge("t1.m1", "t2.a1", width=5)
    return b.build()


class TestPrecheck:
    def test_clean_graph_has_no_certificates(self, chain3_graph):
        assert precheck_graph(chain3_graph) == []
        assert find_task_cycle(chain3_graph) is None
        assert find_operation_cycle(chain3_graph) is None

    def test_task_cycle_certificate(self):
        certs = precheck_graph(_cyclic_task_graph())
        assert len(certs) == 1
        assert certs[0].code == "precedence-cycle"
        assert certs[0].details["level"] == "task"
        cycle = certs[0].details["cycle"]
        assert cycle[0] == cycle[-1]

    def test_operation_cycle_certificate(self):
        graph = TaskGraph("opcycle")
        task = Task("t1")
        task.add_operation(Operation("o1", OpType.ADD, 16))
        task.add_operation(Operation("o2", OpType.ADD, 16))
        task.add_edge("o1", "o2")
        task.add_edge("o2", "o1")
        graph.add_task(task)
        certs = precheck_graph(graph)
        assert len(certs) == 1
        assert certs[0].code == "precedence-cycle"
        assert certs[0].details["level"] == "operation"

    def test_task_exceeds_capacity(self, chain3_graph, tight_device):
        # chain3's t1 uses add+mul: min area 194 FGs, effective 135.8 > 125.
        spec = make_spec(chain3_graph, device=tight_device)
        assert min_task_area(spec, "t1") == 194
        certs = precheck_spec(spec)
        assert any(
            c.code == "task-exceeds-capacity" and c.details["task"] == "t1"
            for c in certs
        )

    def test_edge_exceeds_memory(self, tight_device):
        # Each task fits alone, but the 5-wide edge cannot cross any cut
        # with a 1-word scratch memory, and mul+add together overflow.
        spec = make_spec(
            _pair_graph(),
            mix="1A+1M",
            device=tight_device,
            memory_size=1,
            n_partitions=2,
            relaxation=1,
        )
        certs = precheck_spec(spec)
        assert len(certs) == 1
        assert certs[0].code == "edge-exceeds-memory"
        assert certs[0].details["bandwidth"] == 5

    def test_feasible_spec_passes(self, chain3_spec):
        assert precheck_spec(chain3_spec) == []


# ---------------------------------------------------------------------------
# analyzer + solver integration
# ---------------------------------------------------------------------------


class TestAnalyzerReport:
    def test_exit_codes(self):
        clean = Model("clean")
        x = clean.add_binary("x")
        clean.add(1 * x <= 1)
        assert analyze_model(clean).exit_code == 0

        warn = Model("warn")
        warn.add_binary("orphan")
        report = analyze_model(warn, run_presolve=False)
        assert report.exit_code == 1

        bad = Model("bad")
        a = bad.add_binary("a")
        b = bad.add_binary("b")
        bad.add(a + b >= 3)
        report = analyze_model(bad)
        assert report.exit_code == 2

    def test_as_dict_roundtrips(self):
        m = Model("dict")
        x = m.add_binary("x")
        m.add(1 * x <= 1)
        payload = analyze_model(m).as_dict()
        assert payload["model"] == "dict"
        assert isinstance(payload["diagnostics"], list)
        assert "presolve" in payload

    def test_report_is_frozen(self):
        report = AnalysisReport(model_name="m", diagnostics=())
        with pytest.raises(Exception):
            report.model_name = "other"  # type: ignore[misc]


class TestSolverIntegration:
    def test_bnb_presolve_same_optimum(self, chain3_spec):
        model, _ = build_model(chain3_spec, FormulationOptions())
        plain = BranchAndBound(
            model, rule=make_rule("paper"), config=BranchAndBoundConfig()
        ).solve()
        res = presolve(model, eliminate=False)
        assert res.certificate is None
        assert res.stats.rows_removed > 0
        reduced = BranchAndBound(
            res.model, rule=make_rule("paper"), config=BranchAndBoundConfig()
        ).solve()
        assert plain.has_solution and reduced.has_solution
        assert reduced.objective == pytest.approx(plain.objective, abs=1e-6)

    def test_partitioner_precheck_short_circuit(self, tight_device):
        from repro.core.partitioner import TemporalPartitioner
        from repro.target.memory import ScratchMemory

        partitioner = TemporalPartitioner(
            device=tight_device, memory=ScratchMemory(1)
        )
        outcome = partitioner.partition(_pair_graph(), "1A+1M", n_partitions=2)
        assert not outcome.feasible
        assert outcome.certificate is not None
        assert outcome.certificate.code == "edge-exceeds-memory"
        assert outcome.solve_stats.stop_reason == "precheck_infeasible"
        assert outcome.solve_stats.lp_solves == 0
        assert not outcome.hit_limit
        record = outcome.telemetry()
        assert record["schema"] == "repro.solve_telemetry/v11"
        assert record["certificate"]["code"] == "edge-exceeds-memory"

    def test_partitioner_presolve_certificate_short_circuit(
        self, monkeypatch, chain3_graph, big_device
    ):
        import importlib

        from repro.core.partitioner import TemporalPartitioner
        from repro.ilp.analysis import InfeasibilityCertificate, PresolveStats
        from repro.ilp.analysis.presolve import PresolveResult

        certificate = InfeasibilityCertificate(
            code="row-infeasible", reason="seeded by the test"
        )
        presolve_module = importlib.import_module("repro.ilp.analysis.presolve")
        monkeypatch.setattr(
            presolve_module,
            "presolve",
            lambda model, *, eliminate=True: PresolveResult(
                stats=PresolveStats(rows_before=model.num_constraints),
                certificate=certificate,
            ),
        )

        def no_search(*args, **kwargs):
            raise AssertionError("a presolve certificate must not build a B&B")

        monkeypatch.setattr(BranchAndBound, "__init__", no_search)
        outcome = TemporalPartitioner(device=big_device).partition(
            chain3_graph, "1A+1M+1S", n_partitions=3, relaxation=2
        )
        assert outcome.status is SolveStatus.INFEASIBLE
        assert outcome.certificate is certificate
        assert outcome.solve_stats.stop_reason == "presolve_infeasible"
        assert outcome.solve_stats.presolve["rows_before"] > 0
        assert outcome.solve_stats.lp_solves == 0
        assert not outcome.hit_limit
        record = outcome.telemetry()
        assert record["certificate"]["code"] == "row-infeasible"
        assert record["solve"]["presolve"] is not None

    def test_partitioner_telemetry_presolve_block(self, chain3_graph, big_device):
        from repro.core.partitioner import TemporalPartitioner

        on_outcome = TemporalPartitioner(device=big_device).partition(
            chain3_graph, "1A+1M+1S", n_partitions=3, relaxation=2
        )
        assert on_outcome.solve_stats.presolve is not None
        assert on_outcome.telemetry()["solve"]["presolve"]["rows_removed"] >= 0

        off_outcome = TemporalPartitioner(
            device=big_device, presolve=False
        ).partition(chain3_graph, "1A+1M+1S", n_partitions=3, relaxation=2)
        assert off_outcome.solve_stats.presolve is None
        assert off_outcome.objective == on_outcome.objective

    def test_plain_search_disables_presolve(self, chain3_graph, big_device):
        from repro.core.partitioner import TemporalPartitioner

        outcome = TemporalPartitioner(
            device=big_device, plain_search=True
        ).partition(chain3_graph, "1A+1M+1S", n_partitions=3, relaxation=2)
        assert outcome.solve_stats.presolve is None
        assert outcome.certificate is None
