"""Solve-service integration: real HTTP, real worker subprocesses.

Each test runs a :class:`SolveService` inside its own event loop and
talks to it over an actual TCP connection, so the full path — HTTP
framing, admission, journal, spawn-isolated worker, classification,
response — is exercised exactly as production traffic would.  Paper
graph 1 (~1s end to end) is the fast vehicle; graph 3/4 (a second or
more each) hold a worker busy when a test needs to build a backlog.
"""

import asyncio
import json

import pytest

from repro.graph.generators import (
    PAPER_TYPE_WEIGHTS,
    RandomGraphConfig,
    random_task_graph,
)
from repro.graph.io import task_graph_to_dict
from repro.service.jobs import recover_journal
from repro.service.server import ServiceConfig, SolveService

GRAPH1 = {"paper_graph": 1, "mix": "2A+2M+1S", "n_partitions": 3,
          "relaxation": 1}
SLOW_A = {"paper_graph": 3, "mix": "2A+2M+1S", "n_partitions": 3,
          "relaxation": 1}
SLOW_B = {"paper_graph": 4, "mix": "2A+2M+1S", "n_partitions": 3,
          "relaxation": 1}
SLOW_C = {"paper_graph": 3, "mix": "2A+2M+1S", "n_partitions": 3,
          "relaxation": 2}
# Slow by construction rather than by kernel speed: Table 1's raw
# search on the untightened model (plain search takes SciPy's stateless
# LP path, never the incremental kernel) is still open after 120 s on
# graph 1 at N=3, L=1 on the reference device.  Its nodes take
# milliseconds each, so the solver's clock stops it promptly.
UNPROVABLE_IN_1S = {"paper_graph": 1, "mix": "2A+2M+1S", "n_partitions": 3,
                    "relaxation": 1, "device": "265:0.7",
                    "options": {"plain_search": True, "base_model": True}}


async def _request(port, method, path, body=None):
    """One Content-Length-framed JSON request over a raw socket."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    payload = b"" if body is None else json.dumps(body).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
        f"Content-Length: {len(payload)}\r\n\r\n"
    )
    writer.write(head.encode() + payload)
    await writer.drain()
    raw = await reader.read(-1)
    writer.close()
    await writer.wait_closed()
    head_bytes, _, body_bytes = raw.partition(b"\r\n\r\n")
    status = int(head_bytes.split(b" ", 2)[1])
    headers = {}
    for line in head_bytes.split(b"\r\n")[1:]:
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    doc = json.loads(body_bytes) if body_bytes else None
    return status, doc, headers


async def _wait_until(predicate, timeout=30.0, interval=0.05):
    deadline = asyncio.get_running_loop().time() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if asyncio.get_running_loop().time() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(interval)


class _Service:
    """Async context manager: a started service, drained on exit."""

    def __init__(self, state_dir, **config):
        self.service = SolveService(ServiceConfig(**config), state_dir)

    async def __aenter__(self):
        await self.service.start()
        return self.service

    async def __aexit__(self, *exc_info):
        self.service.lifecycle.begin_drain()
        await self.service._drain()


def test_health_ready_metrics_lifecycle(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            status, doc, _ = await _request(svc.port, "GET", "/healthz")
            assert (status, doc["ok"]) == (200, True)
            status, doc, _ = await _request(svc.port, "GET", "/readyz")
            assert (status, doc["ready"]) == (200, True)
            status, doc, _ = await _request(svc.port, "GET", "/metrics")
            assert status == 200
            assert doc["schema"] == "repro.service_metrics/v1"
            assert doc["state"] == "ready"

            svc.lifecycle.begin_drain()
            status, doc, _ = await _request(svc.port, "GET", "/readyz")
            assert (status, doc["ready"]) == (503, False)
            # Liveness stays green while draining.
            status, _, _ = await _request(svc.port, "GET", "/healthz")
            assert status == 200
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve", GRAPH1,
            )
            assert status == 503
            assert doc["error"]["code"] == "draining"

    asyncio.run(scenario())


def test_solve_end_to_end_with_durable_journal(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve", GRAPH1,
            )
            assert status == 200
            assert doc["outcome"] == "OK"
            assert doc["cached"] is False
            assert doc["solve"]["status"] == "optimal"
            job_id = doc["job_id"]

            status, job_doc, _ = await _request(
                svc.port, "GET", f"/v1/jobs/{job_id}",
            )
            assert status == 200
            assert job_doc["state"] == "done"

            status, _, _ = await _request(svc.port, "GET", "/v1/jobs/nope")
            assert status == 404
            return svc.journal_path
    journal_path = asyncio.run(scenario())

    events = [
        (r.get("event"), r.get("kind"))
        for r in map(json.loads, journal_path.read_text().splitlines())
    ]
    assert ("note", "accepted") in events
    assert ("finished", None) in events
    # And the journal replays to "nothing owed".
    state = recover_journal(journal_path)
    assert state.pending == []
    assert set(state.finished) == {0}


def test_repeat_request_is_a_cache_hit(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            status, first, _ = await _request(
                svc.port, "POST", "/v1/solve", GRAPH1,
            )
            assert (status, first["cached"]) == (200, False)
            status, second, _ = await _request(
                svc.port, "POST", "/v1/solve", GRAPH1,
            )
            assert (status, second["cached"]) == (200, True)
            assert second["solve"] == first["solve"]
            _, metrics, _ = await _request(svc.port, "GET", "/metrics")
            assert metrics["cache"]["hits"] == 1
            # The hit consumed no solve capacity.
            assert metrics["admission"]["admitted"] == 1

    asyncio.run(scenario())


def test_identical_concurrent_requests_share_one_solve(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=2) as svc:
            results = await asyncio.gather(*(
                _request(svc.port, "POST", "/v1/solve", GRAPH1)
                for _ in range(3)
            ))
            assert [status for status, _, _ in results] == [200] * 3
            solves = [doc["solve"] for _, doc, _ in results]
            assert solves[0] == solves[1] == solves[2]
            assert len({doc["job_id"] for _, doc, _ in results}) == 1
            _, metrics, _ = await _request(svc.port, "GET", "/metrics")
            # One admission; the other two attached to the in-flight
            # solve (or, raceless, hit the cache — either way no
            # duplicate work was admitted).
            assert metrics["admission"]["admitted"] == 1
            joins = metrics["counters"]["singleflight_joins"]
            hits = metrics["cache"]["hits"]
            assert joins + hits == 2

    asyncio.run(scenario())


def test_overload_sheds_explicitly_and_never_crashes(tmp_path):
    async def scenario():
        async with _Service(
            tmp_path, workers=1, queue_capacity=1, drain_grace_s=0.0,
        ) as svc:
            status, running_doc, _ = await _request(
                svc.port, "POST", "/v1/solve", {**SLOW_A, "wait": False},
            )
            assert status == 202
            await _wait_until(lambda: len(svc.running) == 1)

            status, queued_doc, _ = await _request(
                svc.port, "POST", "/v1/solve", {**SLOW_B, "wait": False},
            )
            assert status == 202

            # 2x capacity: worker busy + queue full => explicit shed.
            status, doc, headers = await _request(
                svc.port, "POST", "/v1/solve", {**SLOW_C, "wait": False},
            )
            assert status == 429
            assert doc["error"]["code"] == "shed-queue-full"
            assert int(headers["retry-after"]) >= 1

            _, metrics, _ = await _request(svc.port, "GET", "/metrics")
            assert metrics["admission"]["shed_queue_full"] == 1
            assert metrics["counters"]["internal_errors"] == 0
            # The shed job was never journaled as accepted.
            accepted = [
                r for r in map(
                    json.loads,
                    svc.journal_path.read_text().splitlines(),
                )
                if r.get("kind") == "accepted"
            ]
            assert len(accepted) == 2

    asyncio.run(scenario())


def test_priority_evicts_and_resolves_the_loser_with_429(tmp_path):
    async def scenario():
        async with _Service(
            tmp_path, workers=1, queue_capacity=1, drain_grace_s=0.0,
        ) as svc:
            await _request(
                svc.port, "POST", "/v1/solve", {**SLOW_A, "wait": False},
            )
            await _wait_until(lambda: len(svc.running) == 1)
            victim_task = asyncio.create_task(
                _request(svc.port, "POST", "/v1/solve", SLOW_B),
            )
            await _wait_until(lambda: svc.admission.queue.depth == 1)

            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve",
                {**SLOW_C, "wait": False, "priority": 9},
            )
            assert status == 202

            status, doc, _ = await asyncio.wait_for(victim_task, timeout=10)
            assert status == 429
            assert doc["error"]["code"] == "shed-evicted"
            # The eviction is journaled so recovery will not re-run it.
            records = [
                r for r in map(
                    json.loads,
                    svc.journal_path.read_text().splitlines(),
                )
                if r.get("kind") == "shed"
            ]
            assert len(records) == 1

    asyncio.run(scenario())


def test_deadline_budget_degrades_instead_of_hanging(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            # A 1.2s budget cannot prove this spec optimal.  The request
            # must still answer quickly with an honest non-proven
            # outcome, not hang or crash.
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve",
                {**UNPROVABLE_IN_1S, "deadline_s": 1.2},
            )
            assert status == 200
            assert doc["outcome"] in ("OK", "TIMEOUT")
            if doc["outcome"] == "OK":
                assert doc["solve"]["status"] in ("feasible", "timeout")
            _, metrics, _ = await _request(svc.port, "GET", "/metrics")
            # An unproven answer must never enter the cache.
            assert metrics["cache"]["entries"] == 0

    asyncio.run(scenario())


def test_clock_bound_job_degrades_instead_of_being_killed(tmp_path):
    # A seeded 7-task spec whose default-config search is still
    # empty-handed after several seconds.  Its 2 s budget gives the
    # solver a 1.8 s limit and the watchdog/rlimit backstop 7 s: the
    # solver's own limit must end the job, which the worker classifies
    # DEGRADED (baseline design), never a watchdog/rlimit TIMEOUT.
    graph = random_task_graph(
        RandomGraphConfig(
            n_tasks=7, n_ops=27, seed=676431975,
            type_weights=dict(PAPER_TYPE_WEIGHTS), cluster_skew=0.5,
        )
    )
    request = {
        "spec": task_graph_to_dict(graph), "mix": "3A+2M+2S",
        "n_partitions": 3, "relaxation": 2, "device": "265:0.7",
        "memory": 25, "deadline_s": 2,
    }

    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve", request,
            )
            assert status == 200
            assert doc["outcome"] == "DEGRADED"
            assert doc["solve"]["status"] == "timeout"
            assert doc["solve"]["degraded"]

    asyncio.run(scenario())


def test_drain_leaves_unfinished_jobs_owed_in_the_journal(tmp_path):
    async def scenario():
        svc_ctx = _Service(
            tmp_path, workers=1, queue_capacity=4, drain_grace_s=0.0,
        )
        async with svc_ctx as svc:
            await _request(
                svc.port, "POST", "/v1/solve", {**SLOW_A, "wait": False},
            )
            await _wait_until(lambda: len(svc.running) == 1)
            waiter = asyncio.create_task(
                _request(svc.port, "POST", "/v1/solve", SLOW_B),
            )
            await _wait_until(lambda: svc.admission.queue.depth == 1)

            svc.lifecycle.begin_drain()
            await svc._drain()
            # The connected waiter is told the truth: drained, retry.
            status, doc, _ = await asyncio.wait_for(waiter, timeout=10)
            assert status == 503
            assert doc["error"]["code"] == "draining"
        # Neither job got a finished record: both are owed, and a
        # restarted server re-owns exactly these two.
        state = recover_journal(tmp_path / "service.journal.jsonl")
        assert [job.index for job in state.pending] == [0, 1]

    asyncio.run(scenario())


def test_malformed_requests_do_not_reach_a_worker(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            cases = [
                ("POST", "/v1/solve", {"spec": {"version": 99}}, 400),
                ("POST", "/v1/solve", {"nonsense": 1}, 400),
                ("GET", "/v1/solve", None, 405),
                ("POST", "/no/such", {}, 404),
            ]
            for method, path, body, expected in cases:
                status, _, _ = await _request(svc.port, method, path, body)
                assert status == expected, (method, path)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", svc.port,
            )
            writer.write(b"NOT HTTP AT ALL\r\n\r\n")
            await writer.drain()
            raw = await reader.read(-1)
            assert b"400" in raw.split(b"\r\n")[0]
            writer.close()
            _, metrics, _ = await _request(svc.port, "GET", "/metrics")
            assert metrics["admission"]["admitted"] == 0

    asyncio.run(scenario())


def test_oversized_spec_is_413_at_the_boundary(tmp_path):
    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            big = {
                "version": 1, "name": "big",
                "tasks": [
                    {"name": f"t{i}", "operations": [], "edges": []}
                    for i in range(2001)
                ],
            }
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve", {"spec": big},
            )
            assert status == 413
            assert doc["error"]["code"] == "spec-too-large"

    asyncio.run(scenario())


def test_inline_spec_solves_end_to_end(tmp_path, chain3_graph):
    from repro.graph.io import task_graph_to_dict

    async def scenario():
        async with _Service(tmp_path, workers=1) as svc:
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve",
                {"spec": task_graph_to_dict(chain3_graph),
                 "mix": "1A+1M+1S", "n_partitions": 2, "relaxation": 1},
            )
            assert status == 200
            assert doc["outcome"] == "OK"
            assert doc["solve"]["status"] in ("optimal", "infeasible")

    asyncio.run(scenario())


@pytest.mark.parametrize("threshold", [2])
def test_circuit_breaker_opens_on_repeated_failures(tmp_path, threshold):
    async def scenario():
        async with _Service(
            tmp_path, workers=1, breaker_threshold=threshold,
            drain_grace_s=0.0,
        ) as svc:
            # An inline spec that parses but cannot build a model is
            # hard to make fail repeatedly; instead feed the breaker
            # directly (its integration with admission is what this
            # test covers — the breaker's own semantics are covered in
            # test_runner_jobs).
            from repro.runner.jobs import JobOutcome, JobResult

            for _ in range(threshold):
                svc.admission.record_outcome(JobResult(
                    index=0, job_id="x", spec_class="graph1",
                    outcome=JobOutcome.CRASH,
                ))
            status, doc, _ = await _request(
                svc.port, "POST", "/v1/solve", GRAPH1,
            )
            assert status == 503
            assert doc["error"]["code"] == "breaker-open"
            _, metrics, _ = await _request(svc.port, "GET", "/metrics")
            assert metrics["admission"]["rejected_breaker"] == 1

    asyncio.run(scenario())
