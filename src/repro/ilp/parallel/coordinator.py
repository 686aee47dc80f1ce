"""The parallel branch-and-bound coordinator.

:class:`ParallelBranchAndBound` subclasses the sequential solver and
replaces only the middle of :meth:`solve`: after the shared
``_prepare_run`` it widens the frontier with the sequential search
loop (``_search``), dispatches frontier chunks to a fleet of
spawn-isolated workers, and on completion funnels into the shared
``_finish_run`` — so the stop rule, status semantics, checkpoint
persistence, and telemetry assembly are literally the sequential
code paths, not reimplementations.

Fleet mechanics (see the package docstring for the architecture):

* one chunk = the current top frontier node plus a node budget; the
  worker returns whatever frontier remains, which re-enters the shared
  pool — that re-absorption is the work-stealing mechanism;
* incumbent improvements are adopted through the sequential
  ``_new_incumbent`` (so incumbent telemetry and polishing fire exactly
  as always) and broadcast to every other live worker;
* every chunk carries the coordinator's remaining time: a worker stops
  its chunk there and caps each leaf budget by it, and the ready and
  shutdown waits end at that time plus a short reaping grace;
* a worker that dies — crash, chaos ``os._exit``, or watchdog SIGKILL
  past :data:`CHUNK_TIMEOUT_S` — has its in-flight chunk re-queued;
  the survivors absorb the work, and with no survivors the coordinator
  finishes the frontier inline with the same search loop;
* in replay mode at most one chunk is in flight, assigned round-robin,
  making the global node sequence identical to ``workers=1``.
"""

from __future__ import annotations

import queue
import subprocess
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.errors import SolverError
from repro.ilp.branch_bound import (
    BranchAndBound,
    BranchAndBoundConfig,
    _Node,
)
from repro.ilp.branching import BranchingRule
from repro.ilp.model import Model
from repro.ilp.parallel.protocol import (
    encode_init_payload,
    merge_stats,
    parse_message,
    send_message,
)
from repro.ilp.resilience.checkpoint import (
    encode_node,
    form_fingerprint,
    values_from_json,
)
from repro.ilp.solution import MilpResult, SolveStatus
from repro.runner.substrate import Watchdog, spawn_worker, worker_env

#: Config fields shipped verbatim to workers (everything else in the
#: worker's config is either rebuilt by the context builder or owned
#: by the coordinator — clock, checkpoints).
_SHIPPED_CONFIG_FIELDS = (
    "objective_is_integral",
    "propagate_sos1",
    # Heuristics run independently in each worker.
    "heuristics",
)

#: Nodes a worker explores per chunk before returning the rest of its
#: frontier to the pool: small budgets steal work often, large ones
#: amortize the messaging.
CHUNK_NODE_BUDGET = 64

#: Nodes the coordinator explores inline before sharding; rampup also
#: ends once the frontier holds two open nodes per worker.
RAMPUP_NODES = 64

#: Wall-clock budget of one chunk; the watchdog SIGKILLs a worker past
#: it and the chunk is re-queued.
CHUNK_TIMEOUT_S = 300.0

#: Granularity of the coordinator's event-loop wait.
POLL_INTERVAL_S = 0.02

#: How long to wait for a worker's ready handshake before declaring it
#: stillborn (interpreter start + imports + model rebuild).
_READY_TIMEOUT_S = 120.0

#: How long to wait for a stopped worker to exit before killing it.
_SHUTDOWN_TIMEOUT_S = 5.0

#: Time a wait may run past the solve's time limit, to reap processes.
_REAP_GRACE_S = 0.5


class _WorkerHandle:
    """Coordinator-side state of one worker process."""

    def __init__(self, rank: int, proc: "subprocess.Popen", log_handle) -> None:
        self.rank = rank
        self.proc = proc
        self.log_handle = log_handle
        self.alive = True
        self.ready = False
        self.flags: "Dict[str, bool]" = {"watchdog_killed": False}
        self.in_flight: "Optional[Dict[str, object]]" = None  # wire chunk
        self.in_flight_nodes: "List[_Node]" = []
        self.nodes_explored = 0
        self.crashed = False

    def send(self, message: "Dict[str, object]") -> bool:
        try:
            send_message(self.proc.stdin, message)
            return True
        except (BrokenPipeError, OSError, ValueError):
            return False


def plain_context(args: "Dict[str, object]") -> "Dict[str, object]":
    """Default worker context builder: pickled model + incremental kernel.

    ``args`` keys: ``model`` (Model, required), ``rule`` (optional),
    ``fault_plan`` (optional
    :class:`~repro.ilp.resilience.FaultPlan` wrapping the backend with
    seeded fault injection — the chaos tests' hook).
    """
    from repro.ilp.incremental import IncrementalLPSolver

    backend = IncrementalLPSolver()
    fault_plan = args.get("fault_plan")
    if fault_plan is not None:
        from repro.ilp.resilience import FaultInjectingBackend

        backend = FaultInjectingBackend(backend, fault_plan)
    return {
        "model": args["model"],
        "rule": args.get("rule"),
        "lp_backend": backend,
    }


class ParallelBranchAndBound(BranchAndBound):
    """Frontier-sharding multi-process solver; sequential drop-in.

    Parameters
    ----------
    model, rule, config:
        As for :class:`~repro.ilp.branch_bound.BranchAndBound`.
    workers:
        Number of spawn-isolated worker interpreters (``>= 1``; one is
        legal and exercises the protocol and checkpoints).
    replay:
        Deterministic-replay mode: one chunk in flight at a time,
        dispatched round-robin, so the global node sequence — and the
        solve signature (status, objective, nodes, LP solves) — is the
        sequential solver's.  A testing mode with no speedup.
    crash_after_nodes:
        Chaos knob: ``{rank: n}`` makes worker ``rank`` hard-exit
        (``os._exit``) at the end of the chunk in which it reached
        ``n`` explored nodes, before reporting it.
    context_builder:
        Module-level ``f(worker_args) -> dict`` each worker calls to
        rebuild the problem (probers, leaf solvers and backend chains
        are closures and do not pickle; the builder pickles by
        reference).  The dict holds ``"model"`` (required),
        ``"rule"``, ``"lp_backend"``, ``"node_prober"``,
        ``"leaf_solver"`` and ``"incumbent_auditor"``; the default,
        :func:`plain_context`, pickles the model and rule.
    worker_args:
        The builder's picklable argument; by default the model and
        rule.

    The result contract is the sequential solver's, plus a
    ``stats.parallel`` telemetry block.
    """

    def __init__(
        self,
        model: Model,
        rule: "Optional[BranchingRule]" = None,
        config: "Optional[BranchAndBoundConfig]" = None,
        *,
        workers: int,
        replay: bool = False,
        crash_after_nodes: "Optional[Dict[int, int]]" = None,
        context_builder=None,
        worker_args: "Optional[Dict[str, object]]" = None,
    ) -> None:
        super().__init__(model, rule, config)
        if workers < 1:
            raise SolverError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.replay = replay
        self._crash_after_nodes = crash_after_nodes or {}
        self._context_builder = (
            context_builder if context_builder is not None else plain_context
        )
        self._worker_args = (
            worker_args if worker_args is not None
            else {"model": model, "rule": self.rule}
        )
        self._fleet: "List[_WorkerHandle]" = []
        self._events: "queue.Queue" = queue.Queue()
        self._watchdog: "Optional[Watchdog]" = None
        self._tmp_log_dir: "Optional[tempfile.TemporaryDirectory]" = None
        self._ptelemetry: "Dict[str, object]" = {}

    # ------------------------------------------------------------------
    # lifecycle

    def solve(self) -> MilpResult:
        self._prepare_run()

        self._ptelemetry = {
            "workers": self.workers,
            "replay": self.replay,
            "rampup_nodes": 0,
            "chunks_dispatched": 0,
            "chunks_requeued": 0,
            "chunks_timed_out": 0,
            "worker_crashes": 0,
            "incumbent_broadcasts": 0,
            "inline_fallback_nodes": 0,
        }

        limit_status = self._rampup()
        if limit_status is None and self._stack:
            try:
                limit_status = self._parallel_phase()
            finally:
                self._shutdown_fleet()
        self._ptelemetry["workers_detail"] = [
            {
                "rank": w.rank,
                "nodes_explored": w.nodes_explored,
                "crashed": w.crashed,
            }
            for w in self._fleet
        ]
        self._stats.parallel = self._ptelemetry
        return self._finish_run(limit_status)

    def _rampup(self) -> "Optional[SolveStatus]":
        """Widen the frontier inline before sharding.

        Runs the sequential loop until the frontier holds at least two
        nodes per worker (or :data:`RAMPUP_NODES` are spent, or the
        tree is done).  This is also where the root LP is solved; its
        objective ships to workers as the polish gate's bound.
        Returns a limit status if a limit fired during rampup.
        """
        target = 2 * self.workers
        budget = max(RAMPUP_NODES, 1)
        limit_status = self._search(
            lambda: len(self._stack) >= target
            or self._stats.nodes_explored >= budget
        )
        self._ptelemetry["rampup_nodes"] = self._stats.nodes_explored
        return limit_status

    # ------------------------------------------------------------------
    # fleet management

    def _spawn_fleet(self) -> None:
        self._tmp_log_dir = tempfile.TemporaryDirectory(
            prefix="repro-parallel-"
        )
        log_dir = Path(self._tmp_log_dir.name)
        init_base = {
            "builder": self._context_builder,
            "args": self._worker_args,
            "fingerprint": form_fingerprint(self.form),
            "config_spec": {
                name: getattr(self.config, name)
                for name in _SHIPPED_CONFIG_FIELDS
            },
            "root_bound": self._root_bound,
        }
        for rank in range(self.workers):
            log_handle = open(log_dir / f"worker-{rank}.log", "w")  # noqa: SIM115 - worker-lifetime
            proc = spawn_worker(
                ["-m", "repro.ilp.parallel.worker"],
                stdout=subprocess.PIPE,
                stderr=log_handle,
                stdin=subprocess.PIPE,
                env=worker_env(),
                text=True,
            )
            handle = _WorkerHandle(rank, proc, log_handle)
            self._fleet.append(handle)
            payload = dict(
                init_base,
                rank=rank,
                crash_after_nodes=self._crash_after_nodes.get(rank),
            )
            handle.send({
                "cmd": "init",
                "payload": encode_init_payload(payload),
            })
            threading.Thread(
                target=self._read_worker, args=(handle,), daemon=True
            ).start()
        self._watchdog = Watchdog()
        self._watchdog.start()

    def _read_worker(self, handle: _WorkerHandle) -> None:
        for raw in handle.proc.stdout:
            if isinstance(raw, bytes):
                raw = raw.decode("utf-8", "replace")
            message = parse_message(raw)
            if message is not None:
                self._events.put((handle.rank, message))
        self._events.put((handle.rank, None))  # EOF

    def _wait_deadline(self, cap_s: float) -> float:
        """When a wait of at most ``cap_s`` must end: never later than
        the time limit plus :data:`_REAP_GRACE_S`."""
        left = max(self._time_remaining(), 0.0) + _REAP_GRACE_S
        return time.monotonic() + min(cap_s, left)

    def _await_ready(self) -> None:
        """Consume ready/error handshakes until the fleet is settled."""
        deadline = self._wait_deadline(_READY_TIMEOUT_S)
        while any(w.alive and not w.ready for w in self._fleet):
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                for w in self._fleet:
                    if w.alive and not w.ready:
                        self._mark_dead(w)
                break
            try:
                rank, message = self._events.get(timeout=timeout)
            except queue.Empty:
                continue
            handle = self._fleet[rank]
            if message is None or message.get("event") == "error":
                if message is not None:
                    self._log_worker_error(handle, message)
                self._mark_dead(handle)
            elif message.get("event") == "ready":
                handle.ready = True

    def _mark_dead(self, handle: _WorkerHandle) -> None:
        if not handle.alive:
            return
        handle.alive = False
        handle.crashed = True
        self._ptelemetry["worker_crashes"] += 1
        if self._watchdog is not None:
            # Unwatch first: it waits out an in-flight kill's flag.
            self._watchdog.unwatch(handle.rank)
        if handle.flags.get("watchdog_killed"):
            self._ptelemetry["chunks_timed_out"] += 1
        if handle.in_flight_nodes:
            # At-least-once: the chunk goes back to the pool untouched.
            self._stack.extend(handle.in_flight_nodes)
            handle.in_flight = None
            handle.in_flight_nodes = []
            self._ptelemetry["chunks_requeued"] += 1
        try:
            handle.proc.kill()
        except OSError:
            pass

    def _shutdown_fleet(self) -> None:
        if self._watchdog is not None:
            self._watchdog.stop()
        for handle in self._fleet:
            if handle.alive:
                handle.send({"cmd": "stop"})
        deadline = self._wait_deadline(_SHUTDOWN_TIMEOUT_S)
        for handle in self._fleet:
            try:
                handle.proc.stdin.close()
            except (OSError, ValueError, AttributeError):
                pass
            try:
                handle.proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
            except subprocess.TimeoutExpired:
                handle.proc.kill()
                handle.proc.wait(timeout=_SHUTDOWN_TIMEOUT_S)
            try:
                handle.proc.stdout.close()
            except (OSError, ValueError, AttributeError):
                pass
            handle.log_handle.close()
        if self._tmp_log_dir is not None:
            self._tmp_log_dir.cleanup()
            self._tmp_log_dir = None

    def _log_worker_error(self, handle, message) -> None:
        try:
            handle.log_handle.write(
                f"\n[coordinator] worker error event:\n"
                f"{message.get('message')}\n"
            )
            handle.log_handle.flush()
        except (OSError, ValueError):
            pass

    # ------------------------------------------------------------------
    # the dispatch loop

    def _parallel_phase(self) -> "Optional[SolveStatus]":
        self._spawn_fleet()
        self._await_ready()
        chunk_seq = 0
        replay_next_rank = 0

        while True:
            limit_status = self._limit_status()
            if limit_status is not None:
                self._requeue_all_in_flight()
                return limit_status

            alive = [w for w in self._fleet if w.alive and w.ready]
            in_flight = [w for w in alive if w.in_flight is not None]
            if not alive:
                return self._inline_fallback()

            # Dispatch to every idle worker (one, round-robin, in replay).
            if self.replay:
                if self._stack and not in_flight:
                    handle = self._next_replay_worker(alive, replay_next_rank)
                    replay_next_rank = handle.rank + 1
                    chunk_seq = self._dispatch_chunk(handle, chunk_seq)
            else:
                for handle in alive:
                    if not self._stack:
                        break
                    if handle.in_flight is None:
                        chunk_seq = self._dispatch_chunk(handle, chunk_seq)

            in_flight = [
                w for w in self._fleet
                if w.alive and w.in_flight is not None
            ]
            if not self._stack and not in_flight:
                return None  # tree exhausted: the optimality path

            # Wait for something to happen.
            try:
                rank, message = self._events.get(timeout=POLL_INTERVAL_S)
            except queue.Empty:
                continue
            handle = self._fleet[rank]
            if message is None or message.get("event") == "error":
                if message is not None:
                    self._log_worker_error(handle, message)
                self._mark_dead(handle)
                continue
            if message.get("event") == "done":
                self._absorb_done(handle, message)
                self._maybe_checkpoint()

    def _next_replay_worker(self, alive, next_rank) -> _WorkerHandle:
        """Round-robin over live ranks, deterministically."""
        for handle in alive:
            if handle.rank >= next_rank:
                return handle
        return alive[0]

    def _dispatch_chunk(self, handle: _WorkerHandle, chunk_seq: int) -> int:
        node = self._stack.pop()
        chunk = {
            "cmd": "chunk",
            "chunk_id": chunk_seq,
            "nodes": [
                encode_node(
                    node.lb, node.ub, node.depth, node.bound,
                    self.form.lb, self.form.ub,
                    pid=node.pid,
                )
            ],
            "node_budget": CHUNK_NODE_BUDGET,
            "time_left_s": (
                None
                if self.config.time_limit_s is None
                else self._time_remaining()
            ),
            "incumbent_obj": (
                self._incumbent_obj
                if self._incumbent_values is not None
                else None
            ),
        }
        if self._proof is not None:
            # Worker-side node ids live under this chunk's namespace
            # (epoch-qualified after a resume), disjoint from every
            # other chunk's and from the coordinator's own ids.
            epoch_ns = self._pid_prefix[:-1]  # "m" -> "", "e1m" -> "e1"
            chunk["pid_prefix"] = f"{epoch_ns}c{chunk_seq}n"
        if not handle.send(chunk):
            self._stack.append(node)
            self._mark_dead(handle)
            return chunk_seq
        handle.in_flight = chunk
        handle.in_flight_nodes = [node]
        self._ptelemetry["chunks_dispatched"] += 1
        if self._watchdog is not None:
            handle.flags["watchdog_killed"] = False
            self._watchdog.watch(
                handle.rank,
                handle.proc,
                time.monotonic() + CHUNK_TIMEOUT_S,
                handle.flags,
            )
        return chunk_seq + 1

    def _absorb_done(
        self, handle: _WorkerHandle, message: "Dict[str, object]"
    ) -> None:
        if self._watchdog is not None:
            self._watchdog.unwatch(handle.rank)
        handle.in_flight = None
        handle.in_flight_nodes = []

        # Append the chunk's proof records before anything downstream
        # can act on its results: a crashed chunk ships nothing, so the
        # log never claims a subtree that was not actually closed.
        proof_records = message.get("proof")
        if self._proof is not None and proof_records:
            self._proof.append_batch(proof_records)

        delta = message.get("stats", {})
        merge_stats(self._stats, delta)
        handle.nodes_explored += int(delta.get("nodes_explored", 0))

        if message.get("exactness_lost"):
            self._exactness_lost = True
        if message.get("abort"):
            self._lp_failure_abort = True

        incumbent = message.get("incumbent")
        if incumbent is not None:
            objective = float(incumbent["objective"])
            if objective < self._incumbent_obj:
                self._new_incumbent(
                    objective, values_from_json(incumbent["values"])
                )
                for other in self._fleet:
                    if other.alive and other.ready and other is not handle:
                        if other.send({
                            "cmd": "incumbent",
                            "objective": objective,
                        }):
                            self._ptelemetry["incumbent_broadcasts"] += 1

        # Returned frontier re-enters the shared pool (stack order is
        # preserved end-to-end, so DFS discipline survives sharding).
        self._stack.extend(self._decode_frontier(message.get("frontier", [])))

    def _requeue_all_in_flight(self) -> None:
        """Pull every in-flight chunk back into the frontier.

        Used at limit stops so the open-node set (and hence the proven
        bound and any final checkpoint) accounts for work that was out
        at sea when the whistle blew.
        """
        for handle in self._fleet:
            if handle.in_flight_nodes:
                self._stack.extend(handle.in_flight_nodes)
                handle.in_flight = None
                handle.in_flight_nodes = []
                self._ptelemetry["chunks_requeued"] += 1

    def _inline_fallback(self) -> "Optional[SolveStatus]":
        """Every worker is dead: finish the frontier in-process, so the
        answer never depends on fleet health."""
        self._requeue_all_in_flight()
        start_nodes = self._stats.nodes_explored
        limit_status = self._search()
        self._ptelemetry["inline_fallback_nodes"] = (
            self._stats.nodes_explored - start_nodes
        )
        return limit_status

    # ------------------------------------------------------------------
    # checkpointing the sharded frontier

    def checkpoint(self) -> "Dict[str, object]":
        """Snapshot including in-flight chunks (at-least-once resume).

        In-flight nodes are appended above the pool, so a resumed
        search revisits them first — they may be explored twice across
        a kill+resume, never zero times.
        """
        saved = self._stack
        try:
            in_flight = [
                node
                for handle in self._fleet
                for node in handle.in_flight_nodes
            ]
            self._stack = saved + in_flight
            return super().checkpoint()
        finally:
            self._stack = saved
