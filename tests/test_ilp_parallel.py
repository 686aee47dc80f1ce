"""Parallel branch-and-bound: replay determinism, crash recovery,
incumbent propagation.

The tier-1 classes exercise the coordinator/worker pool on a model
small enough that spawning two interpreters dominates the runtime but
the search still needs a real tree; the ``chaos``-marked classes kill
workers mid-subtree (real ``os._exit``, not simulation) and inject LP
faults inside the workers, asserting the pool's at-least-once requeue
and the inline fallback preserve the exact optimum.
"""

from __future__ import annotations

import pytest

from repro.errors import SolverError
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.parallel import ParallelBranchAndBound, coordinator
from repro.ilp.resilience import FaultPlan
from repro.ilp.solution import SolveStatus


def bigger_model():
    """A knapsack the solver needs a real tree for (opt -56)."""
    model = Model("bigger")
    weights = [3, 5, 7, 11, 13, 17, 19, 23]
    values = [5, 8, 11, 15, 17, 20, 24, 29]
    xs = [model.add_binary(f"x{i}") for i in range(8)]
    model.add(lin_sum(w * x for w, x in zip(weights, xs)) <= 40)
    model.set_objective(lin_sum(-v * x for v, x in zip(values, xs)))
    return model


def infeasible_model():
    model = Model("infeasible")
    a = model.add_binary("a")
    b = model.add_binary("b")
    model.add(a + b >= 3)
    model.set_objective(-a - b)
    return model


def _config(**overrides):
    return BranchAndBoundConfig(
        objective_is_integral=True, **overrides
    )


def _signature(result):
    return (
        result.status,
        result.objective,
        result.stats.nodes_explored,
        result.stats.lp_solves,
    )


def _shard(monkeypatch, *, chunk_node_budget=None, rampup_nodes=None):
    """Set the coordinator's chunk budget and rampup node budget."""
    if chunk_node_budget is not None:
        monkeypatch.setattr(coordinator, "CHUNK_NODE_BUDGET", chunk_node_budget)
    if rampup_nodes is not None:
        monkeypatch.setattr(coordinator, "RAMPUP_NODES", rampup_nodes)


def _solve_parallel(
    monkeypatch, model, *, chunk_node_budget=None, rampup_nodes=None,
    **kwargs,
):
    _shard(
        monkeypatch,
        chunk_node_budget=chunk_node_budget,
        rampup_nodes=rampup_nodes,
    )
    return ParallelBranchAndBound(model, config=_config(), **kwargs).solve()


class TestConfigValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(SolverError):
            ParallelBranchAndBound(bigger_model(), workers=0)


class TestReplayDeterminism:
    """Replay mode must reproduce the sequential solve signature exactly.

    One chunk in flight at a time + stack-order-preserving frontier
    returns mean the global node sequence is the sequential solver's,
    whatever the chunk budget — so status, objective, *and* node/LP
    counts all match, not just the optimum.
    """

    def test_matches_sequential_signature(self, monkeypatch):
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        assert sequential.status is SolveStatus.OPTIMAL

        replayed = _solve_parallel(
            monkeypatch, bigger_model(), workers=2, replay=True,
            chunk_node_budget=3, rampup_nodes=1,
        )
        assert _signature(replayed) == _signature(sequential)

    def test_chunk_budget_invariant(self, monkeypatch):
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        for budget in (1, 64):
            replayed = _solve_parallel(
                monkeypatch, bigger_model(), workers=2, replay=True,
                chunk_node_budget=budget, rampup_nodes=1,
            )
            assert _signature(replayed) == _signature(sequential), (
                f"replay diverged at chunk_node_budget={budget}"
            )


class TestAsyncParallel:
    def test_optimum_matches_sequential(self, monkeypatch):
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        parallel = _solve_parallel(
            monkeypatch, bigger_model(), workers=2,
            chunk_node_budget=2, rampup_nodes=2,
        )
        assert parallel.status is SolveStatus.OPTIMAL
        assert parallel.objective == sequential.objective
        block = parallel.stats.parallel
        assert block is not None
        assert block["workers"] == 2
        assert block["chunks_dispatched"] > 0
        assert len(block["workers_detail"]) == 2

    def test_node_accounting_is_exhaustive(self, monkeypatch):
        """Every explored node is attributed to rampup, a worker, or
        the inline fallback — the merge must not lose or double-count."""
        result = _solve_parallel(
            monkeypatch, bigger_model(), workers=2,
            chunk_node_budget=2, rampup_nodes=2,
        )
        block = result.stats.parallel
        attributed = (
            block["rampup_nodes"]
            + sum(w["nodes_explored"] for w in block["workers_detail"])
            + block["inline_fallback_nodes"]
        )
        assert result.stats.nodes_explored == attributed

    def test_infeasible_model(self, monkeypatch):
        result = _solve_parallel(
            monkeypatch, infeasible_model(), workers=2, rampup_nodes=0,
        )
        assert result.status is SolveStatus.INFEASIBLE


@pytest.mark.chaos
class TestWorkerCrashRecovery:
    def test_crash_mid_subtree_requeues_and_solves(self, monkeypatch):
        """A worker dying mid-chunk must not lose its subtree: the
        in-flight nodes are re-queued (at-least-once) and the optimum
        is unchanged."""
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        result = _solve_parallel(
            monkeypatch, bigger_model(), workers=2,
            chunk_node_budget=2, rampup_nodes=2,
            crash_after_nodes={0: 2},
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == sequential.objective
        block = result.stats.parallel
        assert block["worker_crashes"] >= 1
        assert block["chunks_requeued"] >= 1
        assert any(w["crashed"] for w in block["workers_detail"])

    def test_all_workers_crash_inline_fallback(self, monkeypatch):
        """With the whole fleet dead the coordinator finishes the
        frontier in-process rather than failing the solve."""
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        result = _solve_parallel(
            monkeypatch, bigger_model(), workers=2,
            chunk_node_budget=2, rampup_nodes=2,
            crash_after_nodes={0: 1, 1: 1},
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == sequential.objective
        block = result.stats.parallel
        assert block["worker_crashes"] == 2
        assert block["inline_fallback_nodes"] > 0

    def test_incumbent_propagates_under_lp_faults(self, monkeypatch):
        """Shared-incumbent broadcast keeps working while worker LP
        backends are raising injected faults (blind branching covers
        the failed relaxations, so the answer is still exact)."""
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        _shard(monkeypatch, chunk_node_budget=1, rampup_nodes=0)
        solver = ParallelBranchAndBound(
            bigger_model(),
            config=_config(),
            workers=2,
            worker_args={
                "model": bigger_model(),
                "fault_plan": FaultPlan(
                    kinds=("raise",), rate=0.3, seed=11, slow_s=0.0
                ),
            },
        )
        result = solver.solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == sequential.objective
        block = result.stats.parallel
        # Every incumbent is found inside a worker (rampup_nodes=0),
        # so the first one must have been broadcast to the other
        # still-live worker.
        assert block["incumbent_broadcasts"] >= 1


class TestWorkerContextFailure:
    def test_builder_error_kills_fleet_and_coordinator_finishes(
        self, monkeypatch
    ):
        """A context builder that raises in every worker (here: no
        model in the arguments) leaves no fleet; the coordinator marks
        it dead and finishes the frontier inline with the same optimum."""
        sequential = BranchAndBound(bigger_model(), config=_config()).solve()
        result = _solve_parallel(
            monkeypatch, bigger_model(), rampup_nodes=1,
            workers=2, worker_args={"rule": None},
        )
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == sequential.objective
        block = result.stats.parallel
        assert block["worker_crashes"] == 2
        assert block["chunks_dispatched"] == 0
        assert block["inline_fallback_nodes"] > 0


class TestPartitionerWorkers:
    """The partitioner's worker rebuild on a model presolve changed.

    On t3-g1-N3-L0 presolve fixes variables, so each worker must
    presolve its rebuilt model exactly as the coordinator did for the
    fingerprints to match; replay mode then reproduces the sequential
    signature.
    """

    def test_replay_matches_sequential_on_presolved_row(self):
        from repro.reporting.experiments import run_row, table_rows

        row = next(r for r in table_rows("t3") if r.key == "t3-g1-N3-L0")

        def signature(result):
            solve = result["telemetry"]["solve"]
            return result["status"], result["objective"], solve["nodes_explored"]

        sequential = run_row(row, time_limit_s=None)
        presolve = sequential["telemetry"]["solve"]["presolve"]
        assert presolve["vars_fixed"] > 0
        replayed = run_row(row, time_limit_s=None, workers=2, parallel_replay=True)
        assert replayed["telemetry"]["solve"]["parallel"]["workers"] == 2
        assert signature(replayed) == signature(sequential)
