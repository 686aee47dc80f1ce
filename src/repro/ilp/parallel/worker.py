"""Parallel branch-and-bound worker process entry point.

Run as ``python -m repro.ilp.parallel.worker``.  The worker rebuilds
the coordinator's problem context from the pickled init payload (see
:mod:`repro.ilp.parallel.context`), verifies the model fingerprint,
then serves ``chunk`` commands until told to stop: each chunk is a
slice of the shared frontier, explored depth-first through the *same*
:meth:`~repro.ilp.branch_bound.BranchAndBound._process_node` the
sequential solver uses, so every pruning rule, SOS1 propagation, leaf
sub-solve and blind-branch behaves identically in and out of the pool.

Incumbent handling: the coordinator's broadcast objective is adopted
before (and, via the stdin reader thread, during) each chunk, which
tightens bound pruning — a worker prunes exactly as hard as a
sequential search that had found the same incumbents.

Deadlines: each chunk carries the coordinator's remaining time.  The
worker runs the chunk under that time limit, so it stops at the same
moment the coordinator does and no leaf sub-solve outlives it.

The chaos knob ``crash_after_nodes`` hard-exits the process
(``os._exit``) after the configured node count, bypassing all cleanup
— the coordinator's crash-recovery path is exercised by a real dead
process, not a simulated one.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import time
import traceback
from typing import Dict, Optional

from repro.ilp.branch_bound import (
    INT_TOL,
    BranchAndBound,
    BranchAndBoundConfig,
    _Node,
)
from repro.ilp.parallel.context import resolve_builder
from repro.ilp.parallel.protocol import (
    decode_init_payload,
    parse_message,
    send_message,
    stats_delta,
)
from repro.ilp.resilience.checkpoint import (
    decode_node,
    form_fingerprint,
    frontier_to_json,
    values_to_json,
)

#: Exit code of the deliberate chaos crash (distinct from signals and
#: from clean protocol exits, so tests can assert the cause).
CHAOS_EXIT_CODE = 13


#: Sentinel queued when the coordinator's pipe closes; distinct from
#: "queue momentarily empty" so mid-chunk polling can tell them apart.
_EOF = object()


class _Control:
    """stdin reader thread: commands arrive even mid-chunk."""

    def __init__(self, stream) -> None:
        self.queue: "queue.Queue" = queue.Queue()
        self._thread = threading.Thread(
            target=self._read, args=(stream,), daemon=True
        )
        self._thread.start()

    def _read(self, stream) -> None:
        for line in stream:
            message = parse_message(line)
            if message is not None:
                self.queue.put(message)
        self.queue.put(_EOF)  # coordinator went away

    def get(self):
        """Next command (blocking); ``_EOF`` when the pipe closed."""
        return self.queue.get()

    def poll(self):
        """Next command without blocking; None when nothing is queued."""
        try:
            return self.queue.get_nowait()
        except queue.Empty:
            return None


class Worker:
    def __init__(self, out=None) -> None:
        self._out = out if out is not None else sys.stdout
        self._solver: "Optional[BranchAndBound]" = None
        self._rank = 0
        self._crash_after: "Optional[int]" = None
        self._nodes_total = 0

    # ------------------------------------------------------------------

    def _init(self, message: "Dict[str, object]") -> None:
        payload = decode_init_payload(message["payload"])
        builder = resolve_builder(*payload["builder"])
        context = builder(payload["args"])
        spec = dict(payload.get("config_spec", {}))
        config = BranchAndBoundConfig(
            lp_backend=context["lp_backend"],
            node_prober=context.get("node_prober"),
            leaf_solver=context.get("leaf_solver"),
            incumbent_auditor=context.get("incumbent_auditor"),
            # The coordinator owns the clock and checkpoints; a worker
            # only ever explores bounded chunks, each under the time
            # the coordinator has left (see _run_chunk).
            time_limit_s=None,
            checkpoint_path=None,
            **spec,
        )
        solver = BranchAndBound(
            context["model"], rule=context.get("rule"), config=config
        )
        actual = form_fingerprint(solver.form)
        expected = payload["fingerprint"]
        if actual != expected:
            raise RuntimeError(
                f"rebuilt model fingerprint {actual[:12]}... does not match "
                f"coordinator's {str(expected)[:12]}...; refusing to solve"
            )
        solver._prepare_run()
        solver._stack = []
        solver._root_bound = payload.get("root_bound")
        if payload.get("proof"):
            # Proof mode: records accumulate in an in-memory buffer and
            # ship to the coordinator with each done message (a crashed
            # chunk's buffer is deliberately lost — its nodes get
            # requeued, so the log never claims them closed).
            from repro.ilp.certify.proof import ProofBuffer

            solver._proof = ProofBuffer(
                solver.form,
                objective_is_integral=config.objective_is_integral,
                int_tol=INT_TOL,
            )
            solver._owns_proof = False
        self._solver = solver
        self._rank = int(payload.get("rank", 0))
        self._crash_after = payload.get("crash_after_nodes")

    def _adopt_incumbent(self, objective: float) -> None:
        """Apply a broadcast incumbent: tighter pruning.

        The coordinator keeps the value vector; the worker only needs
        the objective (pruning is threshold-driven), so the local
        values are dropped as stale.
        """
        solver = self._solver
        if objective < solver._incumbent_obj:
            solver._incumbent_obj = float(objective)
            solver._incumbent_values = None

    def _run_chunk(
        self, message: "Dict[str, object]", control: "_Control"
    ) -> bool:
        """Explore one chunk; returns False when told to stop mid-chunk."""
        solver = self._solver
        form = solver.form
        stack = []
        for entry in message["nodes"]:
            lb, ub, depth, bound = decode_node(entry, form.lb, form.ub)
            stack.append(
                _Node(lb, ub, depth, bound=bound, pid=entry.get("pid"))
            )
        solver._stack = stack
        if solver._proof is not None:
            # Fresh per-chunk id namespace from the coordinator.
            solver._pid_prefix = message.get(
                "pid_prefix", f"c{message['chunk_id']}n"
            )
            solver._node_seq = 0
        incumbent_obj = message.get("incumbent_obj")
        if incumbent_obj is not None:
            self._adopt_incumbent(float(incumbent_obj))
        start_obj = solver._incumbent_obj
        before = solver._stats.as_dict()

        solver.config.time_limit_s = message.get("time_left_s")
        solver._start = time.monotonic()
        budget = int(message["node_budget"])
        explored = 0
        while (
            solver._stack
            and explored < budget
            and solver._limit_status() is None
        ):
            while True:
                command = control.poll()
                if command is None:
                    break
                if command is _EOF or command.get("cmd") == "stop":
                    return False
                if command.get("cmd") == "incumbent":
                    self._adopt_incumbent(float(command["objective"]))
            solver._process_node(solver._stack.pop())
            explored += 1
            self._nodes_total += 1
            if (
                self._crash_after is not None
                and self._nodes_total >= self._crash_after
            ):
                os._exit(CHAOS_EXIT_CODE)

        incumbent = None
        if (
            solver._incumbent_values is not None
            and solver._incumbent_obj < start_obj
        ):
            incumbent = {
                "objective": solver._incumbent_obj,
                "values": values_to_json(solver._incumbent_values),
            }
        send_message(self._out, {
            "event": "done",
            "chunk_id": message["chunk_id"],
            "frontier": frontier_to_json(solver._stack, form.lb, form.ub),
            "incumbent": incumbent,
            "stats": stats_delta(solver._stats, before),
            "exactness_lost": solver._exactness_lost,
            "abort": solver._lp_failure_abort,
            "proof": (
                solver._proof.drain()
                if solver._proof is not None
                else None
            ),
        })
        solver._stack = []
        return True

    # ------------------------------------------------------------------

    def serve(self, in_stream=None) -> int:
        control = _Control(
            in_stream if in_stream is not None else sys.stdin
        )
        try:
            message = control.get()
            if message is _EOF or message.get("cmd") != "init":
                send_message(self._out, {
                    "event": "error",
                    "message": f"expected init, got {message!r}",
                })
                return 1
            self._init(message)
            send_message(self._out, {"event": "ready", "rank": self._rank})
            while True:
                message = control.get()
                if message is _EOF or message.get("cmd") == "stop":
                    return 0
                cmd = message.get("cmd")
                if cmd == "chunk":
                    if not self._run_chunk(message, control):
                        return 0
                elif cmd == "incumbent":
                    self._adopt_incumbent(float(message["objective"]))
                # Unknown commands are ignored: a newer coordinator may
                # speak a superset of this protocol.
        except Exception:
            send_message(self._out, {
                "event": "error",
                "message": traceback.format_exc(limit=20),
            })
            return 1


def main() -> int:
    return Worker().serve()


if __name__ == "__main__":
    sys.exit(main())
