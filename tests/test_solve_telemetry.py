"""Tests for the solve-telemetry and deadline-robustness layer.

Covers the contract the rest of the system builds on:

* deadline expiry is an outcome, not an error — the incumbent comes
  back with status FEASIBLE, a proven bound, and a finite gap; with no
  incumbent the result is a bare TIMEOUT;
* the limit holds: no leaf sub-solve gets more time than remains, and
  ``partition_spec`` returns close to its ``time_limit_s``;
* the incumbent event log is monotone (objectives strictly improve,
  timestamps never go backwards) and ends at the returned objective;
* the per-cause node counters reconcile exactly with nodes explored;
* progress callbacks see the same events the stats record;
* the whole record propagates through the core pipeline
  (``TemporalPartitioner`` -> ``PartitionOutcome``) and serializes to
  the telemetry JSON artifact.
"""

import json
import math
import time

import pytest

from repro.core.partitioner import TemporalPartitioner
from repro.graph.generators import (
    PAPER_TYPE_WEIGHTS,
    RandomGraphConfig,
    random_task_graph,
)
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.solution import IncumbentEvent, NodeEvent, SolveStatus, relative_gap
from repro.library.catalogs import mix_from_string
from repro.reporting.experiments import reference_device, reference_memory
from repro.reporting.export import save_telemetry, telemetry_to_dict


def two_incumbent_model():
    """min -(4a+3b) s.t. 2a+2b <= 3.

    The root LP is uniquely ``a=1, b=0.5`` (a has the better ratio), so
    every rule branches on ``b``.  Depth-first with the 1-branch first
    finds ``(0, 1)`` (objective -3) before ``(1, 0)`` (objective -4):
    exactly two incumbent improvements, optimum -4.
    """
    model = Model("two-inc")
    a = model.add_binary("a")
    b = model.add_binary("b")
    model.add(2 * a + 2 * b <= 3)
    model.set_objective(-4 * a - 3 * b)
    return model


def wide_model(n=8):
    """A larger 0-1 knapsack-style model with a genuinely deep tree."""
    model = Model("wide")
    xs = [model.add_binary(f"x{i}") for i in range(n)]
    model.add(lin_sum((2 + (i % 3)) * x for i, x in enumerate(xs)) <= n)
    model.set_objective(lin_sum(-(3 + (i % 4)) * x for i, x in enumerate(xs)))
    return model


def assert_counters_reconcile(stats):
    """Every explored node must land in exactly one outcome bucket."""
    assert stats.nodes_explored == (
        stats.nodes_branched
        + stats.nodes_pruned_bound
        + stats.nodes_pruned_infeasible
        + stats.nodes_integral
        + stats.nodes_leaf_solved
        + stats.nodes_dropped
    )


def deadline_after_first_incumbent(limit_s=0.5):
    """A config whose ``on_incumbent`` callback spends the whole limit.

    The first incumbent of :func:`two_incumbent_model` arrives after a
    few LPs; sleeping ``limit_s`` there makes the deadline fire with
    that incumbent in hand and one subtree still open.
    """
    return BranchAndBoundConfig(
        time_limit_s=limit_s, on_incumbent=lambda event: time.sleep(limit_s)
    )


class TestDeadlineRobustness:
    def test_deadline_after_incumbent_returns_finite_gap(self):
        config = deadline_after_first_incumbent()
        result = BranchAndBound(two_incumbent_model(), config=config).solve()
        assert result.status is SolveStatus.FEASIBLE
        assert result.has_solution
        assert result.objective == pytest.approx(-3.0)
        # The open root-child inherits the root LP bound (-5.5).
        assert result.bound == pytest.approx(-5.5)
        assert result.gap is not None and math.isfinite(result.gap)
        assert result.gap == pytest.approx(relative_gap(-3.0, -5.5))
        assert result.stats.stop_reason == "time_limit"

    def test_deadline_after_incumbent_telemetry_populated(self):
        config = deadline_after_first_incumbent()
        result = BranchAndBound(two_incumbent_model(), config=config).solve()
        stats = result.stats
        assert stats.nodes_explored >= 1
        assert stats.lp_calls >= 1
        assert stats.lp_time_s >= 0.0
        assert len(stats.incumbent_events) == stats.incumbent_updates >= 1
        assert stats.best_bound == result.bound
        assert stats.gap == result.gap
        assert_counters_reconcile(stats)

    def test_zero_deadline_times_out_empty_handed(self):
        config = BranchAndBoundConfig(time_limit_s=0.0)
        result = BranchAndBound(two_incumbent_model(), config=config).solve()
        assert result.status is SolveStatus.TIMEOUT
        assert not result.has_solution
        assert result.gap is None
        assert result.stats.nodes_explored == 0
        assert result.stats.stop_reason == "time_limit"

    def test_optimal_run_has_zero_gap(self):
        result = BranchAndBound(two_incumbent_model()).solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-4.0)
        assert result.bound == pytest.approx(-4.0)
        assert result.gap == 0.0
        assert result.stats.stop_reason == "exhausted"

    def test_node_limit_with_incumbent_is_feasible(self):
        # Enough nodes to find the first incumbent of the deep model,
        # far too few to finish the tree.
        config = BranchAndBoundConfig(node_limit=12)
        result = BranchAndBound(wide_model(), config=config).solve()
        if result.has_solution:
            assert result.status is SolveStatus.FEASIBLE
            assert result.stats.stop_reason == "node_limit"
            assert result.gap is not None
        else:
            assert result.status is SolveStatus.NODE_LIMIT


class TestIncumbentEventLog:
    def test_two_incumbents_recorded_in_order(self):
        result = BranchAndBound(two_incumbent_model()).solve()
        events = result.stats.incumbent_events
        assert [e.objective for e in events] == [
            pytest.approx(-3.0),
            pytest.approx(-4.0),
        ]

    def test_log_is_monotone(self):
        result = BranchAndBound(wide_model()).solve()
        events = result.stats.incumbent_events
        assert events, "expected at least one incumbent"
        objectives = [e.objective for e in events]
        assert objectives == sorted(objectives, reverse=True)
        assert len(set(objectives)) == len(objectives), "strictly improving"
        times = [e.wall_time_s for e in events]
        assert times == sorted(times)
        assert events[-1].objective == pytest.approx(result.objective)

    def test_events_carry_bounds_and_gap(self):
        result = BranchAndBound(two_incumbent_model()).solve()
        for event in result.stats.incumbent_events:
            assert event.bound is None or event.bound <= event.objective + 1e-9
            payload = event.as_dict()
            assert set(payload) == {"wall_time_s", "objective", "bound", "gap"}


class TestCounterReconciliation:
    @pytest.mark.parametrize("model_fn", [two_incumbent_model, wide_model])
    def test_buckets_sum_to_nodes_explored(self, model_fn):
        result = BranchAndBound(model_fn()).solve()
        assert_counters_reconcile(result.stats)

    def test_lp_calls_match_non_probed_nodes(self):
        result = BranchAndBound(wide_model()).solve()
        stats = result.stats
        # No prober configured: every explored node got exactly one LP.
        assert stats.lp_solves == stats.nodes_explored
        assert stats.prober_hits == 0

    def test_as_dict_round_trips_through_json(self):
        result = BranchAndBound(two_incumbent_model()).solve()
        payload = json.loads(json.dumps(result.telemetry()))
        assert payload["status"] == "optimal"
        assert payload["stats"]["nodes_explored"] >= 1
        assert payload["stats"]["incumbent_events"]


class TestProgressCallbacks:
    def test_on_node_and_on_incumbent_fire(self):
        node_events, incumbent_events = [], []
        config = BranchAndBoundConfig(
            on_node=node_events.append,
            on_incumbent=incumbent_events.append,
        )
        result = BranchAndBound(two_incumbent_model(), config=config).solve()
        assert len(node_events) == result.stats.nodes_explored
        assert all(isinstance(e, NodeEvent) for e in node_events)
        counts = [e.nodes_explored for e in node_events]
        assert counts == sorted(counts)
        assert [e.objective for e in incumbent_events] == [
            e.objective for e in result.stats.incumbent_events
        ]
        assert all(isinstance(e, IncumbentEvent) for e in incumbent_events)

    def test_callback_decimation(self):
        node_events = []
        config = BranchAndBoundConfig(
            on_node=node_events.append, callback_every=2
        )
        result = BranchAndBound(wide_model(), config=config).solve()
        assert len(node_events) == result.stats.nodes_explored // 2


class TestPipelinePropagation:
    def test_timed_out_partition_still_yields_design(
        self, forced_split_graph, tight_device
    ):
        tp = TemporalPartitioner(
            device=tight_device, time_limit_s=0.0, plain_search=True
        )
        outcome = tp.partition(
            forced_split_graph, "1A+1M", n_partitions=3, relaxation=3
        )
        assert outcome.hit_limit or outcome.status is SolveStatus.OPTIMAL
        if outcome.status is SolveStatus.FEASIBLE:
            assert outcome.design is not None
            assert outcome.gap is not None and math.isfinite(outcome.gap)
            assert outcome.bound is not None
            assert outcome.summary_row()["gap"] == outcome.gap
        else:
            # No incumbent: plain search never degrades to the
            # baselines, so the bare limit status comes back.
            assert outcome.status in (
                SolveStatus.OPTIMAL,
                SolveStatus.INFEASIBLE,
                SolveStatus.TIMEOUT,
            )

    def test_partitioner_callbacks_forwarded(self, chain3_graph, big_device):
        node_events, incumbent_events = [], []
        tp = TemporalPartitioner(
            device=big_device,
            on_node=node_events.append,
            on_incumbent=incumbent_events.append,
        )
        outcome = tp.partition(chain3_graph, "1A+1M+1S", n_partitions=2,
                               relaxation=2)
        assert outcome.status is SolveStatus.OPTIMAL
        assert node_events
        assert len(incumbent_events) == outcome.solve_stats.incumbent_updates

    def test_telemetry_artifact_schema(self, chain3_graph, big_device, tmp_path):
        tp = TemporalPartitioner(device=big_device)
        outcome = tp.partition(chain3_graph, "1A+1M+1S", n_partitions=2,
                               relaxation=2)
        record = telemetry_to_dict(outcome)
        assert record["schema"] == "repro.solve_telemetry/v11"
        assert record["status"] == "optimal"
        assert record["solve"]["nodes_explored"] >= 1
        assert record["solve"]["lp_calls"] >= 1
        path = tmp_path / "telemetry.json"
        save_telemetry(outcome, path)
        saved = json.loads(path.read_text())
        # The durable-artifact layer seals a whole-file digest into the
        # saved payload; everything else round-trips exactly.
        assert saved.pop("digest")
        assert saved == json.loads(json.dumps(record))


def leaf_tree_model(n_assign=4):
    """A tree whose every group-0-fixed node needs a leaf sub-solve.

    ``2z == 1`` keeps the binary ``z`` at 0.5 in every LP, so no node is
    ever integral; the ``y`` row is integral but unfixed until the
    search has pinned all of it, which makes each of the ``2**n_assign``
    full assignments a leaf.
    """
    model = Model("leaf-tree")
    ys = [
        model.add_binary(f"y{i}", branch_group=0, branch_key=(i,))
        for i in range(n_assign)
    ]
    z = model.add_binary("z", branch_group=1, branch_key=(0,))
    model.add(2 * z == 1)
    model.set_objective(lin_sum(-1 * y for y in ys))
    return model


#: Literal draw parameters (tasks, ops, N, L, mix, graph seed) of three
#: seeded specs that do not finish inside one second.
CLOCK_BOUND_SPECS = {
    "gen03": (7, 27, 3, 2, "3A+2M+2S", 676431975),
    "gen07": (5, 20, 2, 1, "3A+2M+2S", 1194700572),
    "gen26": (7, 27, 3, 2, "2A+2M+1S", 1810144999),
}


#: Draw gen44 (same parameter layout): the slot prober prunes 12 of
#: its 73 nodes on the way to INFEASIBLE.
PROBER_SPEC = (5, 16, 2, 1, "3A+2M+2S", 2088631029)


def clock_bound_spec(tp, key):
    """The spec of one :data:`CLOCK_BOUND_SPECS` draw under ``tp``."""
    return seeded_spec(tp, CLOCK_BOUND_SPECS[key])


def seeded_spec(tp, draw):
    """The spec of one seeded draw ``(tasks, ops, N, L, mix, seed)``."""
    n_tasks, n_ops, n_parts, relax, mix, seed = draw
    graph = random_task_graph(
        RandomGraphConfig(
            n_tasks=n_tasks,
            n_ops=n_ops,
            seed=seed,
            type_weights=dict(PAPER_TYPE_WEIGHTS),
            cluster_skew=0.5,
        )
    )
    return tp.make_spec(
        graph, mix_from_string(mix), n_partitions=n_parts, relaxation=relax
    )


class TestLimitsHold:
    def test_leaf_budgets_never_exceed_the_time_left(self):
        limit = 0.1
        calls = []

        def leaf_solver(lb, ub, budget):
            calls.append((time.monotonic(), budget))
            time.sleep(0.02)
            return "infeasible", None

        config = BranchAndBoundConfig(
            time_limit_s=limit, leaf_solver=leaf_solver
        )
        solver = BranchAndBound(leaf_tree_model(), config=config)
        start = time.monotonic()
        result = solver.solve()
        assert calls
        for called_at, budget in calls:
            assert budget > 0.0
            # At most the time left when the call was made.
            assert called_at + budget <= start + limit + 0.01
        assert result.status is SolveStatus.TIMEOUT
        assert time.monotonic() - start < limit + 0.1

    @pytest.mark.parametrize("key", sorted(CLOCK_BOUND_SPECS))
    def test_partition_spec_returns_within_the_limit(self, key):
        limit = 1.0
        tp = TemporalPartitioner(
            device=reference_device(), memory=reference_memory(),
            time_limit_s=limit,
        )
        spec = clock_bound_spec(tp, key)
        start = time.monotonic()
        outcome = tp.partition_spec(spec)
        assert time.monotonic() - start < limit + 1.0
        # Empty-handed at the limit: degraded to the baselines.
        assert outcome.status is SolveStatus.TIMEOUT
        assert outcome.degraded
        assert outcome.solve_stats.stop_reason == "time_limit"

    def test_limit_covers_set_up(self, monkeypatch):
        # A presolve that takes 1.0 s leaves the search 0.5 s of the
        # 1.5 s limit; were the limit counted from the search's start,
        # the call would last 2.5 s and more.
        import importlib

        presolve_module = importlib.import_module("repro.ilp.analysis.presolve")
        real_presolve = presolve_module.presolve

        def slow_presolve(model, **kwargs):
            time.sleep(1.0)
            return real_presolve(model, **kwargs)

        monkeypatch.setattr(presolve_module, "presolve", slow_presolve)
        tp = TemporalPartitioner(
            device=reference_device(), memory=reference_memory(),
            time_limit_s=1.5,
        )
        spec = clock_bound_spec(tp, "gen03")
        start = time.monotonic()
        outcome = tp.partition_spec(spec)
        assert time.monotonic() - start < 2.0
        assert outcome.solve_stats.stop_reason == "time_limit"
        assert outcome.solve_stats.wall_time_s < 1.0


class TestProberPrunes:
    def test_prober_hits_keep_the_verdict(self):
        tp = TemporalPartitioner(
            device=reference_device(), memory=reference_memory(),
        )
        outcome = tp.partition_spec(seeded_spec(tp, PROBER_SPEC))
        stats = outcome.solve_stats
        assert stats.prober_hits > 0
        assert_counters_reconcile(stats)
        assert outcome.status is SolveStatus.INFEASIBLE
        milp = TemporalPartitioner(
            device=reference_device(), memory=reference_memory(),
            backend="milp",
        )
        assert milp.partition_spec(seeded_spec(milp, PROBER_SPEC)).status is (
            SolveStatus.INFEASIBLE
        )
