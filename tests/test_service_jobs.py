"""Durable service jobs: journal vocabulary, recovery, deadline budgets."""

import json

import pytest

from repro.artifacts.framing import seal_record
from repro.errors import RunnerError
from repro.runner.jobs import JobOutcome, JobResult
from repro.runner.journal import JournalWriter
from repro.service.jobs import (
    ServiceJob,
    ServiceJournal,
    budget_limits,
    job_id_for,
    recover_journal,
)
from repro.service.protocol import parse_solve_request, request_fingerprint


def _job(index, paper_graph=1, tenant="default", priority=0, deadline=30.0):
    request = parse_solve_request({
        "paper_graph": paper_graph, "tenant": tenant, "priority": priority,
    })
    return ServiceJob(
        index=index,
        request=request,
        fingerprint=request_fingerprint(request),
        deadline_s=deadline,
        accepted_monotonic=0.0,
    )


def _result(index, outcome=JobOutcome.OK):
    return JobResult(
        index=index, job_id=job_id_for(index), spec_class="graph1",
        outcome=outcome, solve={"status": "optimal", "objective": 0},
    )


class TestBudgetLimits:
    def test_three_nested_layers(self):
        time_limit, limits = budget_limits(
            10.0, solver_fraction=0.9, startup_grace_s=5.0,
        )
        assert time_limit == pytest.approx(9.0)
        assert limits.wall_limit_s == pytest.approx(15.0)
        assert limits.cpu_limit_s == pytest.approx(15.0)
        # Strictly ordered: solver stops gracefully before the
        # watchdog, which fires before the kernel ever has to.
        assert time_limit < limits.wall_limit_s

    def test_time_limit_has_a_floor(self):
        time_limit, _ = budget_limits(0.01)
        assert time_limit == pytest.approx(0.1)

    def test_memory_limit_passes_through(self):
        _, limits = budget_limits(10.0, memory_limit_mb=256)
        assert limits.memory_limit_mb == 256


class TestServiceJob:
    def test_job_id_is_stable(self):
        assert _job(7).job_id == "s000007"

    def test_remaining_budget_subtracts_queue_wait(self):
        job = _job(0, deadline=30.0)
        assert job.remaining_budget(now=12.0) == pytest.approx(18.0)

    def test_to_job_spec_carries_the_formulation(self):
        from repro.runner.limits import ResourceLimits

        spec = _job(3).to_job_spec(
            time_limit_s=9.0, limits=ResourceLimits(wall_limit_s=15.0),
        )
        assert spec.index == 3
        assert spec.source == {"kind": "paper", "number": 1}
        assert spec.time_limit_s == 9.0
        assert spec.limits.wall_limit_s == 15.0
        assert spec.spec_class == "graph1"

    def test_jobs_hash_by_identity(self):
        a, b = _job(0), _job(0)
        assert a != b
        assert len({a, b}) == 2


class TestRecovery:
    def test_missing_journal_is_a_fresh_start(self, tmp_path):
        state = recover_journal(tmp_path / "none.jsonl")
        assert state.fresh is True
        assert state.next_index == 0
        assert state.pending == []
        assert state.finished == {}

    def test_accepted_minus_finished_minus_shed(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        journal = ServiceJournal(path).open(fresh=True)
        jobs = [_job(i, tenant=f"t{i}", priority=i) for i in range(3)]
        for job in jobs:
            journal.accepted(job)
        journal.finished(_result(0))
        journal.shed(2, "evicted by higher priority")
        journal.close()

        state = recover_journal(path)
        assert state.fresh is False
        assert state.next_index == 3
        assert set(state.finished) == {0}
        assert [job.index for job in state.pending] == [1]
        recovered = state.pending[0]
        assert recovered.recovered is True
        assert recovered.request.tenant == "t1"
        assert recovered.request.priority == 1
        assert recovered.fingerprint == jobs[1].fingerprint
        assert recovered.deadline_s == 30.0

    def test_recovered_job_reruns_the_exact_formulation(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        request = parse_solve_request({
            "paper_graph": 3, "mix": "1A+1M", "n_partitions": 2,
            "relaxation": 1, "options": {"fortet": True}, "node_limit": 50,
        })
        job = ServiceJob(index=0, request=request,
                         fingerprint=request_fingerprint(request),
                         deadline_s=10.0, accepted_monotonic=0.0)
        journal = ServiceJournal(path).open(fresh=True)
        journal.accepted(job)
        journal.close()

        recovered = recover_journal(path).pending[0]
        # The fingerprint is over exactly the formulation fields, so
        # equality proves the recovered job re-runs what was promised.
        assert recovered.fingerprint == job.fingerprint
        assert recovered.request.solve_fields() == request.solve_fields()

    @pytest.mark.parametrize("cut", ["half-line", "newline-only"])
    def test_torn_tail_is_trimmed_not_fatal(self, tmp_path, cut):
        path = tmp_path / "svc.jsonl"
        journal = ServiceJournal(path).open(fresh=True)
        journal.accepted(_job(0))
        journal.accepted(_job(1))
        journal.finished(_result(0))
        journal.close()
        # Crash mid-append of the finished record: half of it written,
        # or all of it but its newline.  Either way it was never
        # acknowledged, so job 0 is still owed.
        raw = path.read_bytes()
        last = raw[: -1].rfind(b"\n") + 1
        path.write_bytes(
            raw[: last + (len(raw) - last) // 2] if cut == "half-line"
            else raw[:-1]
        )

        state = recover_journal(path)
        assert [job.index for job in state.pending] == [0, 1]
        assert state.finished == {}
        # And the file itself was trimmed so future appends are clean.
        for line in path.read_text().splitlines():
            json.loads(line)

        journal = ServiceJournal(path).open(fresh=state.fresh)
        journal.accepted(_job(2))
        journal.close()
        again = recover_journal(path)
        assert [job.index for job in again.pending] == [0, 1, 2]
        assert again.quarantined == 0

    def test_batch_journal_is_refused(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        with JournalWriter(path) as writer:
            writer.header(n_jobs=2, manifest_digest="a" * 64)
        with pytest.raises(RunnerError, match="not a service journal"):
            recover_journal(path)

    def test_semantically_bad_but_sealed_record_is_fatal(self, tmp_path):
        """An intact record (CRC verifies) that cannot be parsed back
        is a *writer bug*, not disk damage — recovery must refuse, not
        quarantine it away."""
        path = tmp_path / "svc.jsonl"
        journal = ServiceJournal(path).open(fresh=True)
        journal.accepted(_job(0))
        journal.close()
        lines = []
        for line in path.read_text().splitlines():
            record = json.loads(line)
            if record.get("kind") == "accepted":
                record["request"]["paper_graph"] = 99
                record.pop("crc", None)
                record = seal_record(record)
            lines.append(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
            )
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(RunnerError, match="unreadable accepted record"):
            recover_journal(path)

    def test_bit_rot_in_accepted_record_is_quarantined(self, tmp_path):
        """A flipped byte (CRC seal mismatch) is disk damage: the bad
        record moves to quarantine, every other job replays exactly
        once, and the loss is counted."""
        path = tmp_path / "svc.jsonl"
        journal = ServiceJournal(path).open(fresh=True)
        journal.accepted(_job(0))
        journal.accepted(_job(1))
        journal.close()
        # Flip content inside job 0's accepted record without keeping
        # the CRC consistent: that is what resting bit rot looks like.
        text = path.read_text().replace('"paper_graph":1', '"paper_graph":9')
        path.write_text(text)

        state = recover_journal(path)
        assert state.quarantined == 2
        assert state.pending == []
        qdir = path.with_name(path.name + ".quarantine")
        assert (qdir / "index.jsonl").exists()

    def test_bit_rot_spares_the_other_jobs(self, tmp_path):
        path = tmp_path / "svc.jsonl"
        journal = ServiceJournal(path).open(fresh=True)
        journal.accepted(_job(0))
        journal.accepted(_job(1, paper_graph=2))
        journal.close()
        raw = path.read_bytes().splitlines(keepends=True)
        # Flip one byte in the middle of job 0's accepted record.
        target = bytearray(raw[1])
        target[len(target) // 2] ^= 0x40
        path.write_bytes(b"".join([raw[0], bytes(target), *raw[2:]]))

        state = recover_journal(path)
        assert state.quarantined == 1
        assert [job.index for job in state.pending] == [1]
        assert state.next_index == 2

    def test_exactly_once_after_double_restart(self, tmp_path):
        """A journal recovered, appended to, and recovered again must
        still yield each acknowledged job exactly once."""
        path = tmp_path / "svc.jsonl"
        journal = ServiceJournal(path).open(fresh=True)
        journal.accepted(_job(0))
        journal.accepted(_job(1))
        journal.close()

        first = recover_journal(path)
        assert [job.index for job in first.pending] == [0, 1]
        journal = ServiceJournal(path).open(fresh=first.fresh)
        journal.finished(_result(0))
        journal.close()

        second = recover_journal(path)
        assert [job.index for job in second.pending] == [1]
        assert set(second.finished) == {0}
        assert second.next_index == 2
