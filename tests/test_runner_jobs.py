"""Unit tests for the batch-runner job layer (no subprocesses).

Covers the typed job/result model, outcome classification helpers,
retry policy arithmetic, the per-class circuit breaker, manifest
parsing, and the manifest digest that guards ``--resume``.
"""

import json
import signal

import pytest

from repro.errors import ManifestError
from repro.runner import (
    EXIT_INVALID_SPEC,
    EXIT_OOM,
    CircuitBreaker,
    JobOutcome,
    JobResult,
    JobSpec,
    ResourceLimits,
    RetryPolicy,
    classify_exit,
    drill_manifest,
    load_manifest,
    manifest_digest,
)


class TestJobOutcome:
    def test_only_process_deaths_are_retryable(self):
        retryable = {o for o in JobOutcome if o.is_retryable}
        assert retryable == {JobOutcome.CRASH, JobOutcome.TIMEOUT}

    def test_failure_classes_for_breaker(self):
        failures = {o for o in JobOutcome if o.counts_as_failure}
        assert failures == {
            JobOutcome.TIMEOUT, JobOutcome.OOM,
            JobOutcome.CRASH, JobOutcome.INVALID_SPEC,
        }
        assert not JobOutcome.SKIPPED.counts_as_failure
        assert not JobOutcome.DEGRADED.counts_as_failure


class TestJobSpec:
    def test_round_trip(self):
        job = JobSpec(
            index=3,
            source={"kind": "paper", "number": 1},
            mix="1A+1M",
            n_partitions=4,
            relaxation=2,
            memory=25,
            time_limit_s=12.5,
            node_limit=500,
            options={"base_model": True},
            branching="pseudo-random",
            limits=ResourceLimits(memory_limit_mb=256, wall_limit_s=30.0),
        )
        clone = JobSpec.from_dict(json.loads(json.dumps(job.as_dict())))
        assert clone == job

    def test_default_spec_class_per_source(self):
        assert JobSpec(0, {"kind": "file", "path": "a/b/g1.json"}).spec_class == "g1"
        assert JobSpec(0, {"kind": "paper", "number": 3}).spec_class == "graph3"
        assert JobSpec(
            0, {"kind": "random", "config": {"n_tasks": 4, "n_ops": 9}}
        ).spec_class == "random-t4-o9"
        assert JobSpec(0, {"kind": "drill", "mode": "ok"}).spec_class == "drill-ok"

    def test_inline_source_spec_class_comes_from_the_spec_name(self):
        data = {"version": 1, "name": "hal", "tasks": [], "data_edges": []}
        assert JobSpec(0, {"kind": "inline", "data": data}).spec_class == "hal"
        anonymous = {"version": 1, "name": "", "tasks": [], "data_edges": []}
        assert (
            JobSpec(0, {"kind": "inline", "data": anonymous}).spec_class
            == "inline"
        )

    def test_inline_source_round_trips(self):
        data = {
            "version": 1, "name": "tiny",
            "tasks": [{"name": "t0", "operations": [
                {"name": "o0", "optype": "add", "width": 8}], "edges": []}],
            "data_edges": [],
        }
        job = JobSpec(0, {"kind": "inline", "data": data})
        clone = JobSpec.from_dict(json.loads(json.dumps(job.as_dict())))
        assert clone == job
        from repro.runner.jobs import build_graph
        graph = build_graph(clone.source)
        assert graph.name == "tiny"
        assert graph.num_operations == 1

    def test_inline_source_without_dict_data_is_invalid_spec(self):
        from repro.errors import SpecificationError
        from repro.runner.jobs import build_graph
        with pytest.raises(SpecificationError, match="inline source"):
            build_graph({"kind": "inline", "data": "not-a-dict"})

    def test_job_id_is_stable(self):
        job = JobSpec(7, {"kind": "drill", "mode": "ok"}, spec_class="sentinel")
        assert job.job_id == "j0007-sentinel"

    def test_unknown_source_kind_rejected(self):
        with pytest.raises(ManifestError, match="unknown source kind"):
            JobSpec(0, {"kind": "carrier-pigeon"})

    def test_unknown_drill_mode_rejected(self):
        with pytest.raises(ManifestError, match="unknown drill mode"):
            JobSpec(0, {"kind": "drill", "mode": "explode"})

    def test_shrunk_budget_scales_and_floors(self):
        job = JobSpec(
            0, {"kind": "drill", "mode": "ok"}, time_limit_s=10.0, node_limit=100
        )
        half = job.with_shrunk_budget(0.5)
        assert half.time_limit_s == 5.0
        assert half.node_limit == 50
        tiny = job.with_shrunk_budget(0.001)
        assert tiny.time_limit_s == 1.0  # floor, never zero
        assert tiny.node_limit == 1
        unlimited = JobSpec(0, {"kind": "drill", "mode": "ok"}, time_limit_s=None)
        assert unlimited.with_shrunk_budget(0.5).time_limit_s is None

    def test_malformed_dict_raises_manifest_error(self):
        with pytest.raises(ManifestError, match="malformed job"):
            JobSpec.from_dict({"index": 0, "source": {"kind": "paper"},
                               "time_limit_s": "soon"})


class TestJobResult:
    def test_summary_row_excludes_timing(self):
        result = JobResult(
            index=0, job_id="j0000-x", spec_class="x",
            outcome=JobOutcome.OK,
            solve={"status": "optimal", "feasible": True, "objective": 2.0,
                   "gap": 0.0, "degraded": False, "fallback": None,
                   "degradation_cause": None},
            timing={"pid": 1234, "duration_s": 0.5},
        )
        row = result.summary_row()
        assert "timing" not in row
        assert row["outcome"] == "OK"
        assert row["objective"] == 2.0

    def test_round_trip(self):
        result = JobResult(
            index=2, job_id="j0002-y", spec_class="y",
            outcome=JobOutcome.TIMEOUT, attempts=3,
            error="deadline", limit_notes=["note"],
            artifacts={"telemetry": "j0002/telemetry.json"},
            timing={"pid": 9, "duration_s": 1.0},
        )
        clone = JobResult.from_dict(json.loads(json.dumps(result.as_dict())))
        assert clone == result


class TestResourceLimits:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ResourceLimits(memory_limit_mb=0)
        with pytest.raises(ValueError):
            ResourceLimits(wall_limit_s=-1.0)
        with pytest.raises(ValueError):
            ResourceLimits(cpu_limit_s=0.0)

    def test_round_trip(self):
        limits = ResourceLimits(memory_limit_mb=64, cpu_limit_s=2.0)
        assert ResourceLimits.from_dict(limits.as_dict()) == limits


class TestClassifyExit:
    NO_LIMITS = ResourceLimits()
    MEM_CAP = ResourceLimits(memory_limit_mb=64)

    def test_watchdog_takes_precedence(self):
        outcome, detail = classify_exit(0, True, self.MEM_CAP)
        assert outcome == "TIMEOUT"
        assert "watchdog" in detail

    def test_reserved_exit_codes(self):
        assert classify_exit(EXIT_OOM, False, self.NO_LIMITS)[0] == "OOM"
        assert classify_exit(
            EXIT_INVALID_SPEC, False, self.NO_LIMITS
        )[0] == "INVALID_SPEC"

    def test_sigxcpu_is_timeout(self):
        assert classify_exit(
            -int(signal.SIGXCPU), False, self.NO_LIMITS
        )[0] == "TIMEOUT"

    def test_sigkill_under_memory_cap_is_oom(self):
        assert classify_exit(-int(signal.SIGKILL), False, self.MEM_CAP)[0] == "OOM"

    def test_sigkill_without_cap_is_crash(self):
        assert classify_exit(-int(signal.SIGKILL), False, self.NO_LIMITS)[0] == "CRASH"

    def test_sigsegv_is_crash(self):
        outcome, detail = classify_exit(-int(signal.SIGSEGV), False, self.NO_LIMITS)
        assert outcome == "CRASH"
        assert "SIGSEGV" in detail

    def test_plain_nonzero_exit_is_crash(self):
        assert classify_exit(1, False, self.NO_LIMITS)[0] == "CRASH"


class TestRetryPolicy:
    def test_off_by_default(self):
        policy = RetryPolicy()
        assert not policy.wants_retry(JobOutcome.CRASH, 1)

    def test_retries_only_retryable_outcomes(self):
        policy = RetryPolicy(max_retries=2)
        assert policy.wants_retry(JobOutcome.CRASH, 1)
        assert policy.wants_retry(JobOutcome.TIMEOUT, 2)
        assert not policy.wants_retry(JobOutcome.TIMEOUT, 3)  # budget spent
        assert not policy.wants_retry(JobOutcome.OOM, 1)
        assert not policy.wants_retry(JobOutcome.INVALID_SPEC, 1)
        assert not policy.wants_retry(JobOutcome.DEGRADED, 1)

    def test_backoff_doubles(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.5)
        assert policy.delay_for(1) == 0.5
        assert policy.delay_for(2) == 1.0
        assert policy.delay_for(3) == 2.0

    def test_validation(self):
        with pytest.raises(ManifestError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ManifestError):
            RetryPolicy(budget_shrink=0.0)
        with pytest.raises(ManifestError):
            RetryPolicy(budget_shrink=1.5)


def _result(index, spec_class, outcome):
    return JobResult(
        index=index, job_id=f"j{index:04d}-{spec_class}",
        spec_class=spec_class, outcome=outcome,
    )


class TestCircuitBreaker:
    def test_opens_after_threshold_consecutive_failures(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record(_result(0, "bad", JobOutcome.CRASH))
        assert not breaker.is_open("bad")
        breaker.record(_result(1, "bad", JobOutcome.TIMEOUT))
        assert breaker.is_open("bad")
        assert not breaker.is_open("good")

    def test_success_closes(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record(_result(0, "c", JobOutcome.OOM))
        assert breaker.is_open("c")
        breaker.record(_result(1, "c", JobOutcome.OK))
        assert not breaker.is_open("c")

    def test_skips_are_not_evidence(self):
        breaker = CircuitBreaker(threshold=1)
        breaker.record(_result(0, "c", JobOutcome.CRASH))
        breaker.record(_result(1, "c", JobOutcome.SKIPPED))
        # A SKIPPED consequence must not *close* (or further open) it.
        assert breaker.is_open("c")

    def test_disabled_never_opens(self):
        breaker = CircuitBreaker(threshold=None)
        for index in range(10):
            breaker.record(_result(index, "c", JobOutcome.CRASH))
        assert not breaker.is_open("c")

    def test_threshold_validated(self):
        with pytest.raises(ManifestError):
            CircuitBreaker(threshold=0)


class TestLoadManifest:
    def test_bare_list_accepted(self):
        jobs = load_manifest([{"drill": "ok"}, {"paper_graph": 1}])
        assert [j.index for j in jobs] == [0, 1]
        assert jobs[0].source == {"kind": "drill", "mode": "ok"}
        assert jobs[1].source == {"kind": "paper", "number": 1}

    def test_defaults_merge_and_entry_wins(self):
        jobs = load_manifest({
            "schema": "repro.batch_manifest/v1",
            "defaults": {"mix": "1A+1M", "time_limit_s": 5.0,
                         "memory_limit_mb": 128},
            "jobs": [
                {"drill": "ok"},
                {"drill": "ok", "mix": "2A+2M+1S", "memory_limit_mb": 64},
            ],
        })
        assert jobs[0].mix == "1A+1M"
        assert jobs[0].limits.memory_limit_mb == 128
        assert jobs[1].mix == "2A+2M+1S"
        assert jobs[1].limits.memory_limit_mb == 64
        assert jobs[1].time_limit_s == 5.0  # default still applies

    def test_exactly_one_source_required(self):
        with pytest.raises(ManifestError, match="exactly one"):
            load_manifest([{"drill": "ok", "paper_graph": 1}])
        with pytest.raises(ManifestError, match="exactly one"):
            load_manifest([{"mix": "1A+1M"}])

    def test_unknown_keys_rejected(self):
        with pytest.raises(ManifestError, match="unknown manifest keys"):
            load_manifest([{"drill": "ok", "frobnicate": True}])

    def test_wrong_schema_rejected(self):
        with pytest.raises(ManifestError, match="unsupported manifest schema"):
            load_manifest({"schema": "repro.batch_manifest/v99", "jobs": [{}]})

    def test_empty_jobs_rejected(self):
        with pytest.raises(ManifestError, match="non-empty"):
            load_manifest({"jobs": []})

    def test_unreadable_path_rejected(self, tmp_path):
        with pytest.raises(ManifestError, match="cannot read manifest"):
            load_manifest(tmp_path / "nope.json")

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        with pytest.raises(ManifestError, match="not valid JSON"):
            load_manifest(path)

    def test_formulation_options_extracted(self):
        (job,) = load_manifest(
            [{"paper_graph": 2, "base_model": True, "plain_search": True,
              "branching": "paper"}]
        )
        assert job.options == {"base_model": True, "plain_search": True}
        assert job.branching == "paper"


class TestManifestDigest:
    def test_stable_and_sensitive(self):
        jobs_a = load_manifest([{"drill": "ok"}, {"paper_graph": 1}])
        jobs_b = load_manifest([{"drill": "ok"}, {"paper_graph": 1}])
        jobs_c = load_manifest([{"drill": "ok"}, {"paper_graph": 2}])
        assert manifest_digest(jobs_a) == manifest_digest(jobs_b)
        assert manifest_digest(jobs_a) != manifest_digest(jobs_c)


class TestDrillManifest:
    def test_shape(self):
        jobs = drill_manifest()
        modes = [j.source["mode"] for j in jobs]
        assert modes == ["ok", "hog_memory", "busy_loop", "segfault", "ok"]
        assert jobs[0].spec_class == "sentinel"
        assert jobs[-1].spec_class == "sentinel"
        hog = jobs[1]
        assert hog.limits.memory_limit_mb is not None
        assert hog.source["megabytes"] > hog.limits.memory_limit_mb
        busy = jobs[2]
        assert busy.limits.wall_limit_s is not None
        assert busy.source["seconds"] > busy.limits.wall_limit_s
