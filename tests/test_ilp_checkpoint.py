"""Tests for branch-and-bound checkpoint/resume.

The contract: a checkpoint written mid-search, loaded into a *fresh*
solver over the same model, continues to the same proven optimum the
uninterrupted run finds — and a checkpoint from a different model is
refused outright (fingerprint mismatch) rather than silently resumed.
"""

import json
import os

import pytest

from repro.errors import CheckpointError, SolverError
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.resilience import (
    CHECKPOINT_SCHEMA,
    form_fingerprint,
    read_checkpoint,
    write_checkpoint_atomic,
)
from repro.ilp.solution import SolveStatus
from repro.ilp.standard_form import compile_standard_form


def bigger_model():
    """A knapsack the solver needs a real tree for (~23 nodes, opt -56)."""
    model = Model("bigger")
    weights = [3, 5, 7, 11, 13, 17, 19, 23]
    values = [5, 8, 11, 15, 17, 20, 24, 29]
    xs = [model.add_binary(f"x{i}") for i in range(8)]
    model.add(lin_sum(w * x for w, x in zip(weights, xs)) <= 40)
    model.set_objective(lin_sum(-v * x for v, x in zip(values, xs)))
    return model


def knapsack_model():
    model = Model("knap")
    a = model.add_binary("a")
    b = model.add_binary("b")
    c = model.add_binary("c")
    model.add(2 * a + 3 * b + c <= 3)
    model.set_objective(-5 * a - 4 * b - 3 * c)
    return model


class TestFingerprint:
    def test_stable_across_recompiles(self):
        a = form_fingerprint(compile_standard_form(bigger_model()))
        b = form_fingerprint(compile_standard_form(bigger_model()))
        assert a == b

    def test_differs_across_models(self):
        a = form_fingerprint(compile_standard_form(bigger_model()))
        b = form_fingerprint(compile_standard_form(knapsack_model()))
        assert a != b


class TestCheckpointFile:
    def test_atomic_write_leaves_no_temp(self, tmp_path):
        path = tmp_path / "ck.json"
        write_checkpoint_atomic(str(path), {"schema": CHECKPOINT_SCHEMA})
        assert path.exists()
        assert not (tmp_path / "ck.json.tmp").exists()
        assert read_checkpoint(str(path))["schema"] == CHECKPOINT_SCHEMA

    def test_missing_file_raises(self, tmp_path):
        path = str(tmp_path / "nope.json")
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(path)
        assert excinfo.value.cause == "unreadable"
        assert excinfo.value.path == path

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.cause == "not-json"

    def test_empty_file_raises_typed(self, tmp_path):
        """A zero-byte checkpoint (crash before first write completed,
        or a touch(1) artifact) must classify not-json, never leak a
        bare json.JSONDecodeError."""
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.cause == "not-json"
        assert str(path) in str(excinfo.value)

    def test_truncated_file_raises_typed(self, tmp_path):
        """A checkpoint cut off mid-write (e.g. disk full during a
        non-atomic copy) must raise CheckpointError with the path."""
        model = bigger_model()
        solver = BranchAndBound(
            model, config=BranchAndBoundConfig(node_limit=3)
        )
        solver.solve()
        path = tmp_path / "trunc.json"
        write_checkpoint_atomic(str(path), solver.checkpoint())
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.cause == "not-json"

    def test_non_object_payload_raises_typed(self, tmp_path):
        path = tmp_path / "array.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.cause == "not-json"

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(CheckpointError) as excinfo:
            read_checkpoint(str(path))
        assert excinfo.value.cause == "bad-schema"

    def test_checkpoint_error_is_solver_error(self):
        # Existing except-SolverError sites keep working unchanged.
        assert issubclass(CheckpointError, SolverError)


class TestCheckpointResume:
    def test_snapshot_has_expected_shape(self):
        solver = BranchAndBound(
            bigger_model(), config=BranchAndBoundConfig(node_limit=3)
        )
        solver.solve()
        payload = solver.checkpoint()
        assert payload["schema"] == CHECKPOINT_SCHEMA
        assert payload["fingerprint"] == form_fingerprint(solver.form)
        assert isinstance(payload["frontier"], list)
        assert "stats" in payload and "elapsed_s" in payload

    def test_resume_reaches_uninterrupted_optimum(self, tmp_path):
        baseline = BranchAndBound(bigger_model()).solve()
        assert baseline.status is SolveStatus.OPTIMAL

        path = str(tmp_path / "ck.json")
        interrupted = BranchAndBound(
            bigger_model(),
            config=BranchAndBoundConfig(
                node_limit=2, checkpoint_path=path, checkpoint_every=1
            ),
        ).solve()
        assert interrupted.status is not SolveStatus.OPTIMAL
        assert os.path.exists(path)

        fresh = BranchAndBound(bigger_model())
        resumed = fresh.resume(path)
        assert resumed.status is SolveStatus.OPTIMAL
        assert resumed.objective == pytest.approx(baseline.objective)
        assert resumed.stats.resilience["resumed"] is True
        # Elapsed time and node counts accumulate across the restart.
        assert resumed.stats.nodes_explored > 2

    def test_resume_from_dict(self):
        solver = BranchAndBound(
            bigger_model(), config=BranchAndBoundConfig(node_limit=2)
        )
        solver.solve()
        payload = solver.checkpoint()
        resumed = BranchAndBound(bigger_model()).resume(payload)
        baseline = BranchAndBound(bigger_model()).solve()
        assert resumed.status is SolveStatus.OPTIMAL
        assert resumed.objective == pytest.approx(baseline.objective)

    def test_foreign_model_fingerprint_refused(self, tmp_path):
        solver = BranchAndBound(
            bigger_model(), config=BranchAndBoundConfig(node_limit=2)
        )
        solver.solve()
        path = str(tmp_path / "ck.json")
        solver.save_checkpoint(path)
        with pytest.raises(CheckpointError, match="fingerprint") as excinfo:
            BranchAndBound(knapsack_model()).resume(path)
        assert excinfo.value.cause == "bad-fingerprint"

    def test_mangled_body_refused_typed(self, tmp_path):
        """Schema and fingerprint valid but the frontier is garbage:
        the decode failure must surface as CheckpointError, not a
        KeyError/TypeError from deep inside node decoding."""
        solver = BranchAndBound(
            bigger_model(), config=BranchAndBoundConfig(node_limit=2)
        )
        solver.solve()
        payload = solver.checkpoint()
        payload["frontier"] = [{"lb": {"not-an-index": "nan?"}, "ub": 7}]
        with pytest.raises(CheckpointError) as excinfo:
            BranchAndBound(bigger_model()).resume(payload)
        assert excinfo.value.cause == "malformed"

    def test_mangled_incumbent_refused_typed(self):
        solver = BranchAndBound(
            bigger_model(), config=BranchAndBoundConfig(node_limit=2)
        )
        solver.solve()
        payload = solver.checkpoint()
        payload["incumbent"] = {"objective": "best-so-far"}  # no values
        with pytest.raises(CheckpointError) as excinfo:
            BranchAndBound(bigger_model()).resume(payload)
        assert excinfo.value.cause == "malformed"

    def test_completed_run_removes_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.json")
        # Interrupted run leaves a checkpoint behind...
        BranchAndBound(
            bigger_model(),
            config=BranchAndBoundConfig(
                node_limit=2, checkpoint_path=path, checkpoint_every=1
            ),
        ).solve()
        assert os.path.exists(path)
        # ...and the run that finishes the search cleans it up.
        fresh = BranchAndBound(
            bigger_model(),
            config=BranchAndBoundConfig(checkpoint_path=path),
        )
        result = fresh.resume(path)
        assert result.status is SolveStatus.OPTIMAL
        assert not os.path.exists(path)

class TestPartitionerAutoResumeFallback:
    def test_garbage_checkpoint_falls_back_with_warning(
        self, tmp_path, forced_split_graph, tight_device
    ):
        """An unusable checkpoint must cost nothing but a warning: the
        partitioner solves fresh and still reaches the optimum."""
        from repro.core.partitioner import TemporalPartitioner
        from repro.target.memory import ScratchMemory

        path = tmp_path / "ck.json"
        path.write_text("{ this is not a checkpoint")
        tp = TemporalPartitioner(
            device=tight_device,
            memory=ScratchMemory(10),
            time_limit_s=60,
            checkpoint_path=str(path),
        )
        with pytest.warns(RuntimeWarning, match="not-json"):
            outcome = tp.partition(
                forced_split_graph, "1A+1M", n_partitions=3, relaxation=3
            )
        assert outcome.status is SolveStatus.OPTIMAL
        assert outcome.objective == 7
        assert not outcome.degraded

    def test_empty_checkpoint_falls_back_with_warning(
        self, tmp_path, forced_split_graph, tight_device
    ):
        from repro.core.partitioner import TemporalPartitioner
        from repro.target.memory import ScratchMemory

        path = tmp_path / "ck.json"
        path.write_text("")
        tp = TemporalPartitioner(
            device=tight_device,
            memory=ScratchMemory(10),
            time_limit_s=60,
            checkpoint_path=str(path),
        )
        with pytest.warns(RuntimeWarning, match="solving from scratch"):
            outcome = tp.partition(
                forced_split_graph, "1A+1M", n_partitions=3, relaxation=3
            )
        assert outcome.feasible


class TestIncumbentPersistence:
    def test_incumbent_survives_the_restart(self, tmp_path):
        path = str(tmp_path / "ck.json")
        interrupted = BranchAndBound(
            bigger_model(),
            config=BranchAndBoundConfig(
                node_limit=6, checkpoint_path=path, checkpoint_every=1
            ),
        ).solve()
        payload = read_checkpoint(path)
        if interrupted.has_solution:
            assert payload["incumbent"] is not None
            assert payload["incumbent"]["objective"] == pytest.approx(
                interrupted.objective
            )


class TestElapsedBeforeSolve:
    def test_checkpoint_before_solve_reports_zero_elapsed(self):
        """checkpoint() on a never-started solver must not record the
        host's monotonic-clock epoch (hours/days) as elapsed time."""
        solver = BranchAndBound(bigger_model())
        payload = solver.checkpoint()
        assert payload["elapsed_s"] == 0.0

    def test_pre_solve_checkpoint_is_resumable(self, tmp_path):
        """The pre-solve snapshot is a valid empty-progress checkpoint:
        resuming it runs the full search with zero inherited elapsed."""
        path = str(tmp_path / "pre.json")
        solver = BranchAndBound(bigger_model())
        write_checkpoint_atomic(path, solver.checkpoint())
        resumed = BranchAndBound(bigger_model()).resume(path)
        # Frontier is empty pre-solve (stack not yet initialized), so
        # the resumed search exhausts immediately — but without the
        # guard its wall_time_s telemetry would be astronomically wrong.
        assert resumed.stats.wall_time_s < 60.0

    def test_checkpoint_during_solve_reports_real_elapsed(self, tmp_path):
        path = str(tmp_path / "mid.json")
        BranchAndBound(
            bigger_model(),
            config=BranchAndBoundConfig(
                node_limit=3, checkpoint_path=path, checkpoint_every=1
            ),
        ).solve()
        elapsed = read_checkpoint(path)["elapsed_s"]
        assert 0.0 <= elapsed < 3600.0


class TestOlderCheckpointsResume:
    """Checkpoints written by older solvers still resume."""

    def _config(self, **overrides):
        return BranchAndBoundConfig(objective_is_integral=True, **overrides)

    def test_v1_checkpoint_still_resumes(self, tmp_path):
        path = str(tmp_path / "ck.json")
        BranchAndBound(
            bigger_model(),
            config=self._config(
                node_limit=3, checkpoint_path=path, checkpoint_every=1
            ),
        ).solve()
        payload = read_checkpoint(path)
        payload["schema"] = "repro.bnb_checkpoint/v1"
        write_checkpoint_atomic(path, payload)
        resumed = BranchAndBound(
            bigger_model(), config=self._config()
        ).resume(path)
        baseline = BranchAndBound(
            bigger_model(), config=self._config()
        ).solve()
        assert resumed.status is SolveStatus.OPTIMAL
        assert resumed.objective == pytest.approx(baseline.objective)

    def test_reduced_cost_state_of_older_writers_is_ignored(self, tmp_path):
        """A v2 checkpoint that still carries the root-LP snapshot and
        reduced-cost box of the removed fixing resumes without them."""
        path = str(tmp_path / "ck.json")
        BranchAndBound(
            bigger_model(),
            config=self._config(
                node_limit=3, checkpoint_path=path, checkpoint_every=1
            ),
        ).solve()
        payload = read_checkpoint(path)
        n = compile_standard_form(bigger_model()).num_vars
        payload["root_lp"] = {
            "objective": -60.0,
            "reduced_costs": [0.0] * n,
            "lb": {},
            "ub": {},
            "x": [0.5] * n,
        }
        # A box that would cut off the optimum (x0 = 1) if it applied.
        payload["rc_box"] = {"lb": {}, "ub": {"0": 0.0}}
        write_checkpoint_atomic(path, payload)
        resumed = BranchAndBound(
            bigger_model(), config=self._config()
        ).resume(path)
        baseline = BranchAndBound(
            bigger_model(), config=self._config()
        ).solve()
        assert resumed.status is SolveStatus.OPTIMAL
        assert resumed.objective == pytest.approx(baseline.objective)
        assert resumed.stats.nodes_explored == baseline.stats.nodes_explored
