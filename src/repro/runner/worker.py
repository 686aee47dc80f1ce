"""Worker subprocess entry point: one job in, one classified result out.

Executed as ``python -m repro.runner.worker JOB_FILE RESULT_FILE`` — a
**fresh interpreter per job** (spawn semantics; the orchestrator never
forks itself), so no solver state, RNG, module cache, or lock ever
leaks between jobs, and anything the job does to its process — OOM,
wedge, segfault — is contained by construction.

Protocol (crash-only, no pipes to deadlock on):

1. read the job description JSON written by the pool;
2. install hard OS limits (:func:`repro.runner.limits.apply_limits`)
   *before* importing the heavy solver stack, so a runaway allocation
   anywhere — including inside SciPy — surfaces as ``MemoryError``;
3. execute the job (a real solve, or a drill), classifying every
   failure into a :class:`~repro.runner.jobs.JobOutcome`;
4. write the result JSON atomically (temp + ``os.replace``) and exit 0.

The parent trusts the result file when it exists and parses; when the
worker died too hard to write one, reserved exit codes
(:data:`~repro.runner.limits.EXIT_OOM`, ...) and the kill signal carry
the classification instead (:func:`~repro.runner.limits.classify_exit`).

Solve jobs pass ``--checkpoint`` under the job's scratch directory to
the partitioner, composing with the resilience layer (DESIGN.md §9): a
retried TIMEOUT resumes the killed attempt's branch-and-bound frontier
instead of starting over.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.runner.limits import (
    EXIT_CRASH,
    EXIT_OOM,
    ResourceLimits,
    apply_limits,
)

#: Keys of a partitioner summary row that are deterministic across
#: machines and runs; wall-clock time is reported via ``timing``.
_DETERMINISTIC_ROW_KEYS = (
    "graph", "tasks", "opers", "N", "L", "vars", "consts", "status",
    "feasible", "objective", "gap", "degraded", "fallback",
    "degradation_cause",
)


def _run_drill(source: "Dict[str, object]") -> "Dict[str, object]":
    """Built-in isolation drills; see :data:`repro.runner.jobs.DRILL_MODES`."""
    mode = source.get("mode")
    if mode == "ok":
        return {"outcome": "OK", "solve": {"status": "drill-ok", "feasible": True}}
    if mode == "sleep":
        time.sleep(float(source.get("seconds", 1.0)))
        return {"outcome": "OK", "solve": {"status": "drill-ok", "feasible": True}}
    if mode == "busy_loop":
        deadline = time.monotonic() + float(source.get("seconds", 60.0))
        while time.monotonic() < deadline:
            pass  # deliberately uninterruptible-by-politeness
        return {"outcome": "OK", "solve": {"status": "drill-ok", "feasible": True}}
    if mode == "hog_memory":
        target_mb = int(source.get("megabytes", 1024))
        hoard: "List[bytearray]" = []
        chunk = 8 * 1024 * 1024
        for _ in range(max(1, (target_mb * 1024 * 1024) // chunk)):
            block = bytearray(chunk)
            # Touch every page so the allocation is real, not lazy.
            block[::4096] = b"x" * len(block[::4096])
            hoard.append(block)
        return {
            "outcome": "OK",
            "solve": {"status": "drill-ok", "feasible": True},
            "hoarded_mb": len(hoard) * chunk // (1024 * 1024),
        }
    if mode == "segfault":
        import signal as _signal

        os.kill(os.getpid(), _signal.SIGSEGV)
        time.sleep(5.0)  # pragma: no cover - the signal is fatal
    from repro.errors import SpecificationError

    raise SpecificationError(f"unknown drill mode: {mode!r}")


def _run_solve(job: "Dict[str, object]") -> "Dict[str, object]":
    """One real partitioning solve, classified."""
    # Heavy imports happen here, *after* limits are installed.
    from repro.errors import (
        InfeasibleSpecError,
        LibraryError,
        ManifestError,
        SpecificationError,
        TargetError,
    )
    from repro.runner.jobs import JobSpec

    try:
        partitioner, spec = JobSpec.from_dict(job).solve_inputs(
            checkpoint_path=job.get("checkpoint_path") or None,
            checkpoint_every=int(job.get("checkpoint_every", 64)),  # type: ignore[arg-type]
        )
        outcome = partitioner.partition_spec(spec)
    except (SpecificationError, InfeasibleSpecError, LibraryError,
            TargetError, ManifestError) as exc:
        # A spec that is malformed, names nothing, or is proven
        # infeasible up front is the job's fault, not the worker's.
        return {"outcome": "INVALID_SPEC", "error": str(exc)}

    artifacts: "Dict[str, str]" = {}
    telemetry_path = job.get("telemetry_path")
    if telemetry_path:
        from repro.reporting.export import save_telemetry

        try:
            save_telemetry(outcome, str(telemetry_path))
            artifacts["telemetry"] = str(telemetry_path)
        except OSError:
            pass  # the artifact is best-effort; the result is not
    row = outcome.summary_row()
    solve = {key: row.get(key) for key in _DETERMINISTIC_ROW_KEYS}
    solve["degradation_cause"] = outcome.degradation_cause
    solve["nodes"] = outcome.solve_stats.nodes_explored
    solve["lp_calls"] = outcome.solve_stats.lp_calls
    classification = "DEGRADED" if outcome.degraded else "OK"
    return {
        "outcome": classification,
        "solve": solve,
        "runtime_s": row.get("runtime_s"),
        "artifacts": artifacts,
    }


def _write_result(path: str, payload: "Dict[str, object]") -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True)
    os.replace(tmp, path)


def main(argv: "Optional[List[str]]" = None) -> int:
    args = list(argv) if argv is not None else sys.argv[1:]
    if len(args) != 2:
        print("usage: python -m repro.runner.worker JOB_FILE RESULT_FILE",
              file=sys.stderr)
        return 2
    job_file, result_file = args
    started = time.monotonic()
    try:
        with open(job_file, "r", encoding="utf-8") as handle:
            job = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"worker: cannot read job file {job_file}: {exc}", file=sys.stderr)
        return EXIT_CRASH

    limits = ResourceLimits.from_dict(dict(job.get("limits", {})))
    limit_notes = apply_limits(limits)

    try:
        source = dict(job.get("source", {}))
        if source.get("kind") == "drill":
            payload = _run_drill(source)
        else:
            payload = _run_solve(job)
    except MemoryError:
        # Free the hoard (whatever triggered this) before attempting
        # the small result write; the failed allocation itself was
        # never committed, so this normally succeeds.
        gc.collect()
        payload = {
            "outcome": "OOM",
            "error": (
                f"MemoryError under memory cap "
                f"{limits.memory_limit_mb} MB"
                if limits.memory_limit_mb is not None
                else "MemoryError"
            ),
        }
        try:
            payload["limit_notes"] = limit_notes
            payload["timing"] = {
                "pid": os.getpid(),
                "duration_s": round(time.monotonic() - started, 6),
            }
            _write_result(result_file, payload)
            return 0
        except (OSError, MemoryError):
            return EXIT_OOM
    except BaseException as exc:  # noqa: BLE001 - the last line of defense
        if isinstance(exc, (KeyboardInterrupt, SystemExit)):
            raise
        import traceback

        traceback.print_exc(file=sys.stderr)
        payload = {
            "outcome": "CRASH",
            "error": f"{type(exc).__name__}: {exc}",
        }

    payload.setdefault("limit_notes", [])
    payload["limit_notes"] = list(payload["limit_notes"]) + limit_notes
    payload["timing"] = {
        "pid": os.getpid(),
        "duration_s": round(time.monotonic() - started, 6),
    }
    try:
        _write_result(result_file, payload)
    except OSError as exc:
        print(f"worker: cannot write result {result_file}: {exc}", file=sys.stderr)
        return EXIT_CRASH
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
