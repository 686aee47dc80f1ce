#!/usr/bin/env python
"""Solve-service load benchmark: latency, shedding, caching, recovery.

Drives a real ``repro serve`` process the way production traffic would
and records what the overload story actually delivers:

* **Load phase** — a concurrent burst of mixed requests (hot repeats
  that must hit the result cache, identical concurrent submissions
  that must collapse into one solve, and more distinct slow jobs than
  the queue can hold, which must be shed with ``429`` + ``Retry-After``
  rather than crash anything).  Reports p50/p99 latency for waited
  requests, the cache hit rate, and the shed rate.
* **Drain check** — the loaded server is stopped with SIGTERM and must
  exit 0 with a journal in which every accepted job was finished or
  shed (nothing silently dropped).
* **Recovery drill** — a fresh server takes two jobs, is SIGKILLed
  mid-branch-and-bound (after the worker has written a checkpoint),
  and then — before restart — the drill flips one byte in the final
  journal line (the second job's accepted record), simulating bit rot
  landing together with the crash.  The restarted server must
  quarantine exactly that record (``quarantined_records == 1`` on the
  ready line and in ``/metrics``), still recover and finish the first
  job with a proven optimum exactly once, and answer 404 for the job
  whose acceptance rotted away.  Recovery latencies (restart-to-ready
  and restart-to-done) are recorded in the report.

Hard gates (non-zero exit): zero internal server errors, at least one
cache hit, at least one shed with a ``Retry-After`` header, a clean
SIGTERM drain with a consistent journal, and a passing recovery drill.
Latencies are *recorded, not gated* — wall-clock on shared runners is
noise, but the correctness invariants above never are.  The server
runs deliberately small (2 workers, queue capacity 2) so every
overload mechanism fires at least once.  A reference run on a 2-core
container measured p50 ≈ 10 ms (cache-dominated), p99 ≈ 1.9 s (a real
solve behind the burst), shed rate ≈ 0.42 at about twice capacity and
cache hit rate ≈ 0.31.  The committed ``BENCH_service.json`` is the
record; rerun and commit the diff after an intentional service change.

Usage::

    python scripts/bench_service.py --quick           # CI smoke (~20 reqs)
    python scripts/bench_service.py                   # fuller burst
    python scripts/bench_service.py --json out.json   # write elsewhere
    python scripts/bench_service.py --skip-recovery   # load phase only
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import os
import select
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.artifacts import write_snapshot  # noqa: E402

BENCH_SCHEMA = "repro.bench_service/v1"
DEFAULT_OUTPUT = REPO_ROOT / "BENCH_service.json"

FAST_SPEC = {"paper_graph": 1, "mix": "2A+2M+1S", "n_partitions": 3,
             "relaxation": 1}
WARM_SPEC = {"paper_graph": 2, "mix": "2A+2M+1S", "n_partitions": 3,
             "relaxation": 1}
SLOW_SPEC = {"paper_graph": 3, "mix": "2A+2M+1S", "n_partitions": 3,
             "relaxation": 1}


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return env


def _read_ready_line(proc: subprocess.Popen, timeout_s: float = 60.0) -> dict:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            raise SystemExit(
                f"server died before becoming ready (rc={proc.returncode}):\n"
                f"{proc.stderr.read()}"
            )
        readable, _, _ = select.select([proc.stdout], [], [], 0.2)
        if readable:
            return json.loads(proc.stdout.readline())
    raise SystemExit("server never produced its ready line")


def start_server(
    state_dir: Path, *extra_args: str,
) -> "tuple[subprocess.Popen, int, dict]":
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--state-dir", str(state_dir), *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env(),
    )
    ready = _read_ready_line(proc)
    return proc, int(ready["port"]), ready


def request(port: int, method: str, path: str, body=None, timeout=120):
    req = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", method=method,
        data=None if body is None else json.dumps(body).encode(),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(response.headers)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read()), dict(exc.headers)


def timed_request(port, body):
    start = time.perf_counter()
    status, doc, headers = request(port, "POST", "/v1/solve", body)
    return {
        "status": status,
        "latency_s": round(time.perf_counter() - start, 4),
        "cached": bool(doc.get("cached")),
        "code": (doc.get("error") or {}).get("code"),
        "retry_after": headers.get("Retry-After"),
        "job_id": doc.get("job_id"),
    }


def percentile(values, fraction):
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return round(ordered[index], 4)


def journal_records(state_dir: Path):
    path = state_dir / "service.journal.jsonl"
    return [json.loads(line) for line in path.read_text().splitlines()]


def journal_consistent(state_dir: Path) -> "tuple[bool, str]":
    """Every accepted job must be finished or shed — nothing dropped."""
    records = journal_records(state_dir)
    accepted = {r["job"] for r in records if r.get("kind") == "accepted"}
    finished = [r["job"] for r in records if r.get("event") == "finished"]
    shed = {r["job"] for r in records if r.get("kind") == "shed"}
    if len(finished) != len(set(finished)):
        return False, "duplicate finished records"
    leftover = accepted - set(finished) - shed
    if leftover:
        return False, f"accepted but neither finished nor shed: {sorted(leftover)}"
    return True, f"{len(accepted)} accepted = {len(finished)} finished + {len(shed)} shed"


def run_load_phase(state_dir: Path, scale: int) -> dict:
    """Mixed concurrent burst against a small server, then SIGTERM."""
    proc, port, _ = start_server(
        state_dir, "--workers", "2", "--queue-capacity", "2",
        "--rate", "1000", "--burst", "1000", "--drain-grace", "10",
    )
    try:
        # Warm the cache with one proven answer.
        warm = timed_request(port, dict(WARM_SPEC))
        if warm["status"] != 200:
            raise SystemExit(f"warm-up solve failed: {warm}")

        tasks = []
        # Hot repeats: must be served from the cache.
        tasks += [dict(WARM_SPEC) for _ in range(6 * scale)]
        # Identical concurrent solves: must collapse via single-flight.
        tasks += [dict(FAST_SPEC) for _ in range(4 * scale)]
        # Distinct slow jobs, more than workers+queue can hold: with 2
        # workers and capacity 2 the burst runs the queue over and the
        # overflow must shed.  node_limit both bounds their runtime and
        # makes every fingerprint distinct.
        tasks += [
            {**SLOW_SPEC, "node_limit": 40 + i, "wait": False}
            for i in range(9 * scale)
        ]
        with concurrent.futures.ThreadPoolExecutor(len(tasks)) as pool:
            outcomes = list(pool.map(lambda body: timed_request(port, body),
                                     tasks))

        # Let the accepted asynchronous jobs finish before draining.
        deadline = time.monotonic() + 300
        while time.monotonic() < deadline:
            _, metrics, _ = request(port, "GET", "/metrics")
            if metrics["jobs"]["queued"] == 0 and metrics["jobs"]["running"] == 0:
                break
            time.sleep(0.2)
        _, metrics, _ = request(port, "GET", "/metrics")

        proc.send_signal(signal.SIGTERM)
        drain_rc = proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()

    consistent, detail = journal_consistent(state_dir)
    waited = [o["latency_s"] for o in outcomes if o["status"] == 200]
    shed = [o for o in outcomes if o["status"] == 429]
    return {
        "requests": len(outcomes) + 1,
        "ok": sum(1 for o in outcomes if o["status"] in (200, 202)),
        "shed": len(shed),
        "shed_rate": round(len(shed) / len(outcomes), 4),
        "shed_have_retry_after": all(o["retry_after"] for o in shed),
        "cache_hits": sum(1 for o in outcomes if o["cached"]),
        "cache_hit_rate": (metrics.get("cache") or {}).get("hit_rate"),
        "singleflight_joins": (metrics.get("counters") or {}).get(
            "singleflight_joins"),
        "internal_errors": (metrics.get("counters") or {}).get(
            "internal_errors"),
        "latency_p50_s": percentile(waited, 0.50),
        "latency_p99_s": percentile(waited, 0.99),
        "drain_exit_code": drain_rc,
        "journal_consistent": consistent,
        "journal_detail": detail,
    }


def corrupt_final_journal_line(state_dir: Path) -> None:
    """Flip one byte mid-way through the journal's last record —
    bit rot arriving together with the crash."""
    path = state_dir / "service.journal.jsonl"
    lines = path.read_bytes().splitlines(keepends=True)
    last = bytearray(lines[-1])
    last[len(last) // 2] ^= 0x01
    lines[-1] = bytes(last)
    path.write_bytes(b"".join(lines))


def run_recovery_drill(state_dir: Path) -> dict:
    """SIGKILL mid-solve + bit rot in the journal, restart, demand
    quarantine of the rotten record and exactly-once completion of
    the survivor."""
    proc, port, _ = start_server(
        state_dir, "--workers", "1", "--checkpoint-every", "1",
    )
    try:
        status, doc, _ = request(
            port, "POST", "/v1/solve", {**SLOW_SPEC, "wait": False})
        if status != 202:
            return {"verdict": "fail", "reason": f"submit got {status}"}
        job_id = doc["job_id"]
        # A second distinct job, queued behind the first; its accepted
        # record is the journal's final line — the one we will rot.
        status, doc, _ = request(
            port, "POST", "/v1/solve",
            {**SLOW_SPEC, "node_limit": 50, "wait": False})
        if status != 202:
            return {"verdict": "fail", "reason": f"second submit got {status}"}
        doomed_id = doc["job_id"]
        checkpoint = state_dir / "scratch" / job_id / "checkpoint.json"
        deadline = time.monotonic() + 60
        while not checkpoint.exists():
            if time.monotonic() > deadline:
                return {"verdict": "fail", "reason": "no checkpoint appeared"}
            time.sleep(0.05)
        proc.kill()  # SIGKILL mid-branch-and-bound
        proc.wait(timeout=10)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()

    corrupt_final_journal_line(state_dir)

    restart_at = time.monotonic()
    proc, port, ready = start_server(state_dir, "--workers", "1")
    ready_s = round(time.monotonic() - restart_at, 4)
    try:
        recovered = int(ready.get("recovered_jobs", 0))
        quarantined = int(ready.get("quarantined_records", 0))
        deadline = time.monotonic() + 120
        final = None
        while time.monotonic() < deadline:
            status, doc, _ = request(port, "GET", f"/v1/jobs/{job_id}")
            if status == 200 and doc.get("state") == "done":
                final = doc
                break
            time.sleep(0.2)
        done_s = round(time.monotonic() - restart_at, 4)
        doomed_status, _, _ = request(port, "GET", f"/v1/jobs/{doomed_id}")
        _, metrics, _ = request(port, "GET", "/metrics")
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()

    if recovered < 1:
        return {"verdict": "fail", "reason": "restart recovered no jobs"}
    if quarantined != 1:
        return {"verdict": "fail",
                "reason": f"expected 1 quarantined record, got {quarantined}"}
    if (metrics.get("counters") or {}).get("quarantined_records") != 1:
        return {"verdict": "fail",
                "reason": "/metrics does not report the quarantined record"}
    if doomed_status != 404:
        return {"verdict": "fail",
                "reason": f"rotted job should be unknown (404), "
                          f"got {doomed_status}"}
    if final is None:
        return {"verdict": "fail", "reason": "recovered job never finished"}
    if final.get("outcome") != "OK" or final["solve"]["status"] != "optimal":
        return {"verdict": "fail", "reason": f"bad final result: {final}"}
    records = journal_records(state_dir)
    accepted = [r["job"] for r in records if r.get("kind") == "accepted"]
    finished = [r["job"] for r in records if r.get("event") == "finished"]
    if sorted(accepted) != sorted(set(accepted)) or sorted(finished) != sorted(
            set(finished)) or set(accepted) != set(finished):
        return {"verdict": "fail",
                "reason": f"journal not exactly-once: {accepted} vs {finished}"}
    quarantine_index = (
        state_dir / "service.journal.jsonl.quarantine" / "index.jsonl"
    )
    if not quarantine_index.exists():
        return {"verdict": "fail", "reason": "no quarantine ledger written"}
    return {
        "verdict": "pass",
        "recovered_jobs": recovered,
        "quarantined_records": quarantined,
        "restart_ready_s": ready_s,
        "restart_done_s": done_s,
        "objective": final["solve"]["objective"],
        "status": final["solve"]["status"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small burst (~20 requests) for CI smoke")
    parser.add_argument("--skip-recovery", action="store_true",
                        help="load phase only")
    parser.add_argument("--json", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output path (default {DEFAULT_OUTPUT.name})")
    parser.add_argument("--state-root", type=Path, default=None,
                        help="where to put server state (default: temp dir)")
    args = parser.parse_args(argv)

    import tempfile
    scale = 1 if args.quick else 3
    with tempfile.TemporaryDirectory() as tmp:
        root = args.state_root or Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        print(f"load phase (scale={scale}) ...", flush=True)
        load = run_load_phase(root / "load", scale)
        print(json.dumps(load, indent=2), flush=True)
        recovery = {"verdict": "skipped"}
        if not args.skip_recovery:
            print("recovery drill (kill -9 mid-solve + journal bit rot) ...",
                  flush=True)
            recovery = run_recovery_drill(root / "recovery")
            print(json.dumps(recovery, indent=2), flush=True)

    report = {
        "schema": BENCH_SCHEMA,
        "quick": args.quick,
        "load": load,
        "recovery": recovery,
    }
    write_snapshot(args.json, report, indent=2)
    print(f"wrote {args.json}")

    failures = []
    if load["internal_errors"]:
        failures.append(f"internal_errors={load['internal_errors']}")
    if not load["cache_hits"]:
        failures.append("no cache hits")
    if not load["shed"]:
        failures.append("nothing was shed under overload")
    if not load["shed_have_retry_after"]:
        failures.append("shed response missing Retry-After")
    if load["drain_exit_code"] != 0:
        failures.append(f"drain exit code {load['drain_exit_code']}")
    if not load["journal_consistent"]:
        failures.append(f"journal inconsistent: {load['journal_detail']}")
    if not args.skip_recovery and recovery["verdict"] != "pass":
        failures.append(f"recovery drill: {recovery}")
    if failures:
        print("FAIL: " + "; ".join(failures), file=sys.stderr)
        return 1
    print("all service gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
