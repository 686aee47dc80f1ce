"""Crash-only journal tests: append/replay/compact and the recovery
contract (a torn tail after the final newline tolerated, any corrupt
complete line fatal, foreign-batch journals refused)."""

import errno
import json
import os

import pytest

from repro.artifacts import IOFaultPlan, inject_io_faults, scan_log
from repro.errors import JournalWriteError, RunnerError
from repro.runner import (
    JobOutcome,
    JobResult,
    JournalWriter,
    compact,
    read_journal,
    replay,
)


def _result(index, outcome=JobOutcome.OK, **extra):
    return JobResult(
        index=index, job_id=f"j{index:04d}-c", spec_class="c",
        outcome=outcome, **extra,
    )


def _write(path, results, digest="d" * 64, n_jobs=None):
    with JournalWriter(path) as writer:
        writer.header(
            n_jobs if n_jobs is not None else len(results),
            digest,
            runtime={"pid": 1},
        )
        for result in results:
            writer.finished(result)


class TestDurabilityFailure:
    """A full disk fails the *record*, never the writer or its owner."""

    def test_fsync_failure_is_a_typed_error_with_context(
        self, tmp_path, monkeypatch,
    ):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as writer:
            writer.header(n_jobs=1, manifest_digest="a" * 64)

            real_fsync = os.fsync

            def no_space(fd):
                raise OSError(errno.ENOSPC, "No space left on device")

            monkeypatch.setattr("repro.artifacts.fsio.os.fsync", no_space)
            with pytest.raises(JournalWriteError) as info:
                writer.finished(_result(0))
            assert info.value.path == str(path)
            assert "No space left" in info.value.cause

            # The handle stays open: once space frees up, the *next*
            # append must succeed without reopening anything.
            monkeypatch.setattr("repro.artifacts.fsio.os.fsync", real_fsync)
            writer.finished(_result(0))
        assert set(replay(path)) == {0}

    @pytest.mark.parametrize("failing", ["write", "flush"])
    def test_write_and_flush_failures_are_typed_too(
        self, tmp_path, failing,
    ):
        class _FailingHandle:
            """Forwards to the real handle except one failing method."""

            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, name):
                if name == failing:
                    def boom(*args, **kwargs):
                        raise OSError(errno.EIO, "I/O error")
                    return boom
                return getattr(self._inner, name)

        writer = JournalWriter(tmp_path / "j.jsonl").open()
        try:
            writer._handle = _FailingHandle(writer._handle)
            with pytest.raises(JournalWriteError, match="I/O error"):
                writer.header(n_jobs=0, manifest_digest="a" * 64)
        finally:
            writer.close()


    @pytest.mark.parametrize("seed", range(6))
    def test_append_after_a_short_write_does_not_weld(self, tmp_path, seed):
        """A failed append leaves partial bytes behind; the next append
        must start a fresh line instead of welding onto them."""
        path = tmp_path / "j.jsonl"
        plan = IOFaultPlan(kinds=("short-write",), rate=1.0, seed=seed, limit=1)
        with JournalWriter(path) as writer:
            writer.header(n_jobs=3, manifest_digest="a" * 64)
            writer.finished(_result(0))
            with inject_io_faults(plan) as faulty:
                with pytest.raises(JournalWriteError):
                    writer.finished(_result(1))
                writer.finished(_result(2))
            assert faulty.injected == 1
        scan = scan_log(path)
        assert not scan.torn_tail
        assert [line.lineno for line in scan.bad] == [3]
        finished = [
            record for _, record in scan.records
            if record.get("event") == "finished"
        ]
        assert [record["job"] for record in finished] == [0, 2]


class TestWriterAndReplay:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0), _result(1, JobOutcome.CRASH, error="boom")])
        results = replay(path)
        assert sorted(results) == [0, 1]
        assert results[0].outcome is JobOutcome.OK
        assert results[1].outcome is JobOutcome.CRASH
        assert results[1].error == "boom"

    def test_records_are_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)])
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            assert isinstance(json.loads(line), dict)

    def test_writer_must_be_open(self, tmp_path):
        writer = JournalWriter(tmp_path / "j.jsonl")
        with pytest.raises(RunnerError, match="not open"):
            writer.finished(_result(0))

    def test_notes_are_preserved_but_not_results(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with JournalWriter(path) as writer:
            writer.header(1, "d" * 64)
            writer.note("breaker_open", {"spec_class": "c"})
            writer.finished(_result(0))
        records, truncated = read_journal(path)
        assert not truncated
        assert [r["event"] for r in records] == ["batch", "note", "finished"]
        assert replay(path).keys() == {0}

    def test_last_finished_record_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0, JobOutcome.CRASH), _result(0, JobOutcome.OK)])
        assert replay(path)[0].outcome is JobOutcome.OK


class TestCrashRecovery:
    def test_truncated_final_line_is_dropped_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0), _result(1)])
        whole = path.read_text()
        # Simulate SIGKILL mid-append: chop the last record in half.
        path.write_text(whole[: len(whole) - len(whole.splitlines()[-1]) // 2 - 1])
        records, truncated = read_journal(path)
        assert truncated
        assert [r["event"] for r in records] == ["batch", "finished"]
        results = replay(path)
        assert sorted(results) == [0]

    def test_corruption_before_final_line_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)])
        lines = path.read_text().splitlines()
        lines.insert(1, "{garbage")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunnerError, match="corrupt"):
            read_journal(path)

    def test_complete_but_unparseable_final_line_is_corrupt(self, tmp_path):
        """Only the bytes after the final newline are a torn tail; a
        final line that ends in a newline is complete, so failing to
        parse makes it corruption, not a crash artifact."""
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)])
        with open(path, "a") as handle:
            handle.write('{"event": "fini\n')
        with pytest.raises(RunnerError, match="line 3: is corrupt"):
            read_journal(path)

    def test_non_object_line_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)])
        with open(path, "a") as handle:
            handle.write("[1,2,3]\n{}\n")
        with pytest.raises(RunnerError, match="expected an object"):
            read_journal(path)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(RunnerError, match="cannot read journal"):
            read_journal(tmp_path / "absent.jsonl")

    def test_empty_journal_replays_empty(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        assert replay(path) == {}


class TestReplayGuards:
    def test_missing_header_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({"event": "finished", "job": 0}) + "\n")
        with pytest.raises(RunnerError, match="batch header"):
            replay(path)

    def test_foreign_digest_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)], digest="a" * 64)
        with pytest.raises(RunnerError, match="different batch"):
            replay(path, expected_digest="b" * 64)

    def test_matching_digest_accepted(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)], digest="a" * 64)
        assert replay(path, expected_digest="a" * 64).keys() == {0}

    def test_unreadable_finished_record_is_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)])
        with open(path, "a") as handle:
            handle.write(json.dumps({"event": "finished", "job": 1,
                                     "result": {"index": 1}}) + "\n")
            handle.write("{}\n")  # keep the bad record off the final line
        with pytest.raises(RunnerError, match="unreadable finished record"):
            replay(path)


class TestCompaction:
    def test_keeps_latest_record_per_job_and_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(
            path,
            [_result(1, JobOutcome.CRASH), _result(0),
             _result(1, JobOutcome.OK, attempts=2)],
            n_jobs=2,
        )
        dropped = compact(path)
        assert dropped == 1
        records, truncated = read_journal(path)
        assert not truncated
        assert records[0]["event"] == "batch"
        assert [r["job"] for r in records[1:]] == [0, 1]
        assert replay(path)[1].attempts == 2

    def test_compaction_drops_truncated_tail(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, [_result(0)])
        with open(path, "a") as handle:
            handle.write('{"event": "fini')  # torn write
        assert compact(path) == 1
        records, truncated = read_journal(path)
        assert not truncated
        assert len(records) == 2

    def test_replay_equivalent_after_compaction(self, tmp_path):
        path = tmp_path / "j.jsonl"
        results = [_result(0), _result(1, JobOutcome.TIMEOUT),
                   _result(1, JobOutcome.OK, attempts=2)]
        _write(path, results, n_jobs=2)
        before = {k: v.as_dict() for k, v in replay(path).items()}
        compact(path)
        after = {k: v.as_dict() for k, v in replay(path).items()}
        assert before == after

    def test_empty_journal_is_noop(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text("")
        assert compact(path) == 0
