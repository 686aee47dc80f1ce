"""Integration tests for the process-isolated batch runner.

These tests spawn real worker subprocesses and exercise the isolation
acceptance criteria end to end:

* a memory-hog worker dies OOM while its siblings complete OK;
* a busy-loop worker is SIGKILLed by the watchdog at its wall deadline
  and classifies TIMEOUT;
* SIGKILLing the *orchestrator* mid-batch loses nothing — ``--resume``
  finishes the batch using journaled results (no re-solve) and the
  final summary is byte-identical to an uninterrupted run;
* ``--jobs 1`` and ``--jobs 4`` journals are identical modulo the
  per-result ``timing`` field and the header ``runtime`` block.

Drill jobs (tiny self-contained failure modes, no solver) keep the
suite fast; one test runs a real paper-graph solve through a worker.
"""

import copy
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.errors import RunnerError
from repro.runner import (
    BatchConfig,
    BatchRunner,
    JobOutcome,
    RetryPolicy,
    batch_summary,
    load_manifest,
    read_journal,
    replay,
)

SRC_DIR = Path(__file__).resolve().parents[1] / "src"


def _run(tmp_path, manifest, name="batch.jsonl", resume=False, **config):
    jobs = load_manifest(manifest)
    runner = BatchRunner(
        jobs,
        journal_path=tmp_path / name,
        config=BatchConfig(**config),
    )
    return runner.run(resume=resume)


def _strip_nondeterminism(journal_path):
    """Journal records with ``timing`` / header ``runtime`` removed.

    The ``crc`` seal covers those varying fields, so it is stripped
    along with them.
    """
    records, truncated = read_journal(journal_path)
    assert not truncated
    stripped = []
    for record in copy.deepcopy(records):
        record.pop("runtime", None)
        record.pop("crc", None)
        if isinstance(record.get("result"), dict):
            record["result"].pop("timing", None)
        stripped.append(record)
    return stripped


class TestDrillContainment:
    """Acceptance (a) and (b): OOM and watchdog-TIMEOUT containment."""

    @pytest.fixture(scope="class")
    def drill_results(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("drill")
        manifest = [
            {"drill": "ok", "spec_class": "sentinel"},
            {"drill": "hog_memory", "megabytes": 512, "memory_limit_mb": 128},
            {"drill": "busy_loop", "seconds": 60, "wall_limit_s": 1.0},
            {"drill": "segfault"},
            {"drill": "ok", "spec_class": "sentinel"},
        ]
        started = time.monotonic()
        results = _run(tmp_path, manifest, concurrency=2)
        return tmp_path, results, time.monotonic() - started

    def test_every_failure_mode_contained(self, drill_results):
        _, results, _ = drill_results
        assert [r.outcome for r in results] == [
            JobOutcome.OK, JobOutcome.OOM, JobOutcome.TIMEOUT,
            JobOutcome.CRASH, JobOutcome.OK,
        ]

    def test_oom_job_does_not_harm_siblings(self, drill_results):
        _, results, _ = drill_results
        assert results[1].outcome is JobOutcome.OOM
        assert results[1].error is not None
        assert "memory" in results[1].error.lower()
        # The sentinels on both sides of the hog completed normally.
        assert results[0].solve == {"status": "drill-ok", "feasible": True}
        assert results[4].solve == {"status": "drill-ok", "feasible": True}

    def test_busy_loop_killed_at_wall_deadline(self, drill_results):
        _, results, elapsed = drill_results
        timeout = results[2]
        assert timeout.outcome is JobOutcome.TIMEOUT
        assert "watchdog" in (timeout.error or "")
        # The 60 s loop must have died at the ~1 s deadline, not run out.
        assert elapsed < 30.0
        assert timeout.timing["duration_s"] < 10.0

    def test_segfault_classified_crash(self, drill_results):
        _, results, _ = drill_results
        assert results[3].outcome is JobOutcome.CRASH
        assert "SIGSEGV" in (results[3].error or "")

    def test_journal_replays_to_same_results(self, drill_results):
        tmp_path, results, _ = drill_results
        replayed = replay(tmp_path / "batch.jsonl")
        assert sorted(replayed) == [0, 1, 2, 3, 4]
        for result in results:
            assert replayed[result.index].as_dict() == result.as_dict()


class TestConcurrencyDeterminism:
    """Acceptance (d): --jobs 1 vs --jobs 4 journal identity."""

    MANIFEST = [
        {"drill": "ok", "spec_class": "a"},
        {"drill": "segfault"},
        {"drill": "ok", "spec_class": "b"},
        {"drill": "ok", "spec_class": "a"},
        {"drill": "ok", "spec_class": "c"},
    ]

    def test_journals_identical_modulo_timing(self, tmp_path):
        _run(tmp_path, self.MANIFEST, name="serial.jsonl", concurrency=1)
        _run(tmp_path, self.MANIFEST, name="wide.jsonl", concurrency=4)
        serial = _strip_nondeterminism(tmp_path / "serial.jsonl")
        wide = _strip_nondeterminism(tmp_path / "wide.jsonl")
        assert serial == wide

    def test_summaries_byte_identical(self, tmp_path):
        serial = _run(tmp_path, self.MANIFEST, name="serial.jsonl", concurrency=1)
        wide = _run(tmp_path, self.MANIFEST, name="wide.jsonl", concurrency=4)
        assert (
            json.dumps(batch_summary(serial), sort_keys=True)
            == json.dumps(batch_summary(wide), sort_keys=True)
        )


class TestOrchestratorKillAndResume:
    """Acceptance (c): SIGKILL the orchestrator mid-batch, then resume."""

    MANIFEST = [
        {"drill": "sleep", "seconds": 0.2, "spec_class": f"s{i}"}
        for i in range(6)
    ]

    def _manifest_file(self, tmp_path):
        # time_limit_s is pinned in the manifest's own defaults so the
        # CLI run (which merges its --time-limit default) and the
        # in-process resume (plain load_manifest) agree on the digest.
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(
            {"defaults": {"time_limit_s": 60.0}, "jobs": self.MANIFEST}
        ))
        return path

    def _launch_orchestrator(self, manifest_path, journal_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
        )
        return subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "batch",
             "--manifest", str(manifest_path),
             "--journal", str(journal_path), "--quiet"],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )

    def _finished_count(self, journal_path):
        if not journal_path.exists():
            return 0
        try:
            records, _ = read_journal(journal_path)
        except RunnerError:
            return 0
        return sum(1 for r in records if r.get("event") == "finished")

    def test_sigkill_then_resume_completes_without_resolving(self, tmp_path):
        manifest_path = self._manifest_file(tmp_path)
        journal = tmp_path / "killed.jsonl"
        proc = self._launch_orchestrator(manifest_path, journal)
        try:
            deadline = time.monotonic() + 60.0
            while self._finished_count(journal) < 2:
                if proc.poll() is not None:
                    pytest.fail(
                        "orchestrator finished before it could be killed; "
                        "slow down the drill jobs"
                    )
                if time.monotonic() > deadline:
                    pytest.fail("no journal progress within 60 s")
                time.sleep(0.01)
            proc.send_signal(signal.SIGKILL)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()

        # State as the crash left it: a durable prefix of finished
        # records (and possibly one torn final line).
        survivors = replay(journal)
        assert survivors, "expected at least one durable finished record"
        pre_kill_records = {
            index: result.as_dict() for index, result in survivors.items()
        }
        orchestrator_pid = proc.pid

        # Resume in-process and finish the batch.
        jobs = load_manifest(manifest_path)
        resumed = BatchRunner(jobs, journal_path=journal).run(resume=True)
        assert [r.outcome for r in resumed] == [JobOutcome.OK] * len(jobs)

        # No re-solve: every pre-kill result is returned verbatim from
        # the journal — including its run-1 worker pid and duration.
        for index, expected in pre_kill_records.items():
            assert resumed[index].as_dict() == expected

        # The journal still replays cleanly and the durable records
        # were never rewritten.
        final = replay(journal)
        assert sorted(final) == list(range(len(jobs)))
        for index, expected in pre_kill_records.items():
            assert final[index].as_dict() == expected
        new_pids = {
            final[i].timing.get("pid")
            for i in final if i not in pre_kill_records
        }
        assert orchestrator_pid not in new_pids

        # Byte-identical summary vs a never-interrupted run.
        clean = _run(tmp_path, self.MANIFEST, name="clean.jsonl")
        assert (
            json.dumps(batch_summary(resumed), sort_keys=True)
            == json.dumps(batch_summary(clean), sort_keys=True)
        )

    def test_resume_after_torn_tail_keeps_journal_replayable(self, tmp_path):
        manifest = self.MANIFEST[:3]
        results = _run(tmp_path, manifest, name="torn.jsonl")
        assert all(r.outcome is JobOutcome.OK for r in results)
        journal = tmp_path / "torn.jsonl"
        # Tear the final record in half, as a SIGKILL mid-append would.
        lines = journal.read_text().splitlines(keepends=True)
        journal.write_text("".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2])
        _, truncated = read_journal(journal)
        assert truncated

        jobs = load_manifest(manifest)
        resumed = BatchRunner(jobs, journal_path=journal).run(resume=True)
        assert [r.outcome for r in resumed] == [JobOutcome.OK] * 3
        # The repaired-and-completed journal must replay with no
        # corruption mid-file (the torn line was dropped, not welded).
        records, truncated = read_journal(journal)
        assert not truncated
        assert sorted(replay(journal)) == [0, 1, 2]


class TestPoolPolicies:
    def test_retry_reruns_crash_and_counts_attempts(self, tmp_path):
        results = _run(
            tmp_path, [{"drill": "segfault"}],
            retry=RetryPolicy(max_retries=1, backoff_s=0.0),
        )
        assert results[0].outcome is JobOutcome.CRASH
        assert results[0].attempts == 2

    def test_breaker_skips_after_threshold(self, tmp_path):
        manifest = [
            {"drill": "segfault"},
            {"drill": "segfault"},
            {"drill": "segfault"},
            {"drill": "ok", "spec_class": "healthy"},
        ]
        results = _run(tmp_path, manifest, breaker_threshold=2)
        assert [r.outcome for r in results] == [
            JobOutcome.CRASH, JobOutcome.CRASH,
            JobOutcome.SKIPPED, JobOutcome.OK,
        ]
        assert "circuit breaker open" in (results[2].error or "")

    def test_fresh_run_refuses_existing_journal(self, tmp_path):
        manifest = [{"drill": "ok"}]
        _run(tmp_path, manifest)
        with pytest.raises(RunnerError, match="already exists"):
            _run(tmp_path, manifest)

    def test_overwrite_restarts(self, tmp_path):
        manifest = [{"drill": "ok"}]
        _run(tmp_path, manifest)
        jobs = load_manifest(manifest)
        results = BatchRunner(jobs, journal_path=tmp_path / "batch.jsonl").run(
            overwrite=True
        )
        assert results[0].outcome is JobOutcome.OK

    def test_resume_refuses_foreign_journal(self, tmp_path):
        _run(tmp_path, [{"drill": "ok"}])
        other = load_manifest([{"drill": "segfault"}])
        with pytest.raises(RunnerError, match="different batch"):
            BatchRunner(other, journal_path=tmp_path / "batch.jsonl").run(
                resume=True
            )

    def test_resume_of_complete_journal_relaunches_nothing(self, tmp_path):
        manifest = [{"drill": "ok"}, {"drill": "ok"}]
        first = _run(tmp_path, manifest)
        launches = []
        jobs = load_manifest(manifest)
        runner = BatchRunner(
            jobs, journal_path=tmp_path / "batch.jsonl",
            on_event=lambda kind, payload: launches.append(kind),
        )
        again = runner.run(resume=True)
        assert launches == []
        assert [r.as_dict() for r in again] == [r.as_dict() for r in first]


class TestRealSolveThroughWorker:
    def test_paper_graph_solves_in_worker(self, tmp_path):
        manifest = [{
            "paper_graph": 1, "mix": "2A+2M+1S", "n_partitions": 3,
            "relaxation": 1, "device": "265:0.7", "memory": 25,
            "time_limit_s": 60.0,
        }]
        results = _run(tmp_path, manifest)
        result = results[0]
        assert result.outcome is JobOutcome.OK, result.error
        assert result.solve["status"] == "optimal"
        assert result.solve["feasible"] is True
        # Telemetry artifact is journaled scratch-relative.
        assert "telemetry" in result.artifacts
        telemetry_path = (
            tmp_path / "batch.jsonl.scratch" / result.artifacts["telemetry"]
        )
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["schema"] == "repro.solve_telemetry/v12"

    def test_invalid_spec_contained(self, tmp_path):
        # Graph 1 needs a 'sub' FU; a 1A+1M allocation cannot host it.
        manifest = [
            {"paper_graph": 1, "mix": "1A+1M", "device": "265:0.7"},
            {"drill": "ok", "spec_class": "sentinel"},
        ]
        results = _run(tmp_path, manifest)
        assert results[0].outcome is JobOutcome.INVALID_SPEC
        assert results[1].outcome is JobOutcome.OK


class TestJournalFailureContainment:
    """Satellite of the durability story: a failing journal disk must
    cost the affected record its durability, not the batch its life."""

    def test_disk_failure_annotates_results_and_batch_survives(
        self, tmp_path, monkeypatch,
    ):
        from repro.errors import JournalWriteError
        from repro.runner.journal import JournalWriter

        def refuse(self, result):
            raise JournalWriteError(
                f"journal append to {self.path} failed: ENOSPC",
                path=str(self.path), cause="No space left on device",
            )

        monkeypatch.setattr(JournalWriter, "finished", refuse)
        events = []
        jobs = load_manifest([
            {"drill": "ok", "spec_class": "sentinel"},
            {"drill": "ok", "spec_class": "sentinel"},
        ])
        runner = BatchRunner(
            jobs, journal_path=tmp_path / "batch.jsonl",
            on_event=lambda kind, payload: events.append((kind, payload)),
        )
        results = runner.run()

        # The batch completed; every result survives in memory, each
        # honestly annotated with the durability it lost.
        assert [r.outcome for r in results] == [JobOutcome.OK, JobOutcome.OK]
        for result in results:
            assert any(
                "journal write failed" in note for note in result.limit_notes
            )
        errors = [payload for kind, payload in events
                  if kind == "journal_error"]
        assert [e["job"] for e in errors] == [0, 1]
        assert errors[0]["path"] == str(tmp_path / "batch.jsonl")
        # The journal holds only the header, so a --resume would
        # honestly re-run both jobs instead of trusting lost records.
        records, _ = read_journal(tmp_path / "batch.jsonl")
        assert [r["event"] for r in records] == ["batch"]
