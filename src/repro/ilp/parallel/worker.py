"""Parallel branch-and-bound worker process entry point.

Run as ``python -m repro.ilp.parallel.worker``.  The worker rebuilds
the coordinator's problem context by calling the context builder that
arrives in the pickled init payload (see
:class:`~repro.ilp.parallel.coordinator.ParallelBranchAndBound`),
verifies the model fingerprint, then serves ``chunk`` commands until
told to stop: each chunk is a slice of the shared frontier, explored
by :meth:`~repro.ilp.branch_bound.BranchAndBound.explore_chunk` — the
sequential solver's own search loop — so every pruning rule, SOS1
propagation, leaf sub-solve and blind-branch behaves identically in
and out of the pool.

Incumbent handling: each chunk carries the coordinator's incumbent
objective, and broadcasts that arrive mid-chunk (via the stdin reader
thread) are adopted between nodes, which tightens bound pruning — a
worker prunes exactly as hard as a sequential search that had found
the same incumbents.  A broadcast that arrives between chunks needs no
handling: the next chunk carries an objective at least as good.

Deadlines: each chunk carries the coordinator's remaining time.  The
worker runs the chunk under that time limit, so it stops at the same
moment the coordinator does and no leaf sub-solve outlives it.

The chaos knob ``crash_after_nodes`` hard-exits the process
(``os._exit``) once the configured node count is reached, before the
chunk is reported and bypassing all cleanup — the coordinator's
crash-recovery path is exercised by a real dead process, not a
simulated one.
"""

from __future__ import annotations

import os
import queue
import sys
import threading
import traceback
from typing import Dict, Optional

from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.parallel.protocol import (
    decode_init_payload,
    parse_message,
    send_message,
)
from repro.ilp.resilience.checkpoint import form_fingerprint

#: Exit code of the deliberate chaos crash (distinct from signals and
#: from clean protocol exits, so tests can assert the cause).
CHAOS_EXIT_CODE = 13


#: Sentinel queued when the coordinator's pipe closes; distinct from
#: "queue momentarily empty" so mid-chunk polling can tell them apart.
_EOF = object()


class _Stop(Exception):
    """The coordinator said stop (or went away) in the middle of a chunk."""


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

    def interrupt(self) -> "Optional[float]":
        """Drain the commands that arrived mid-chunk.

        Returns the best broadcast incumbent objective among them (or
        ``None``); raises :class:`_Stop` on ``stop`` or a closed pipe.
        """
        best = None
        while True:
            try:
                command = self.queue.get_nowait()
            except queue.Empty:
                return best
            if command is _EOF or command.get("cmd") == "stop":
                raise _Stop
            if command.get("cmd") == "incumbent":
                objective = float(command["objective"])
                best = objective if best is None else min(best, objective)


class Worker:
    def __init__(self, out=None) -> None:
        self._out = out if out is not None else sys.stdout
        self._solver: "Optional[BranchAndBound]" = None
        self._root_bound: "Optional[float]" = None
        self._rank = 0
        self._crash_after: "Optional[int]" = None
        self._nodes_total = 0

    # ------------------------------------------------------------------

    def _init(self, message: "Dict[str, object]") -> None:
        payload = decode_init_payload(message["payload"])
        context = payload["builder"](payload["args"])
        config = BranchAndBoundConfig(
            lp_backend=context["lp_backend"],
            node_prober=context.get("node_prober"),
            leaf_solver=context.get("leaf_solver"),
            incumbent_auditor=context.get("incumbent_auditor"),
            # The coordinator owns the clock and checkpoints; each chunk
            # runs under the time the coordinator has left.
            **payload["config_spec"],
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
        self._solver = solver
        self._root_bound = payload["root_bound"]
        self._rank = int(payload.get("rank", 0))
        self._crash_after = payload.get("crash_after_nodes")

    def _run_chunk(
        self, message: "Dict[str, object]", control: "_Control"
    ) -> None:
        """Explore one chunk and report it (raises :class:`_Stop` when
        told to stop mid-chunk)."""
        result = self._solver.explore_chunk(
            message["nodes"],
            node_budget=int(message["node_budget"]),
            time_left_s=message.get("time_left_s"),
            incumbent_obj=message.get("incumbent_obj"),
            pid_prefix=message.get("pid_prefix"),
            root_bound=self._root_bound,
            interrupt=control.interrupt,
        )
        self._nodes_total += int(result["stats"]["nodes_explored"])
        crash_after = self._crash_after
        if crash_after is not None and self._nodes_total >= crash_after:
            os._exit(CHAOS_EXIT_CODE)
        send_message(
            self._out,
            {"event": "done", "chunk_id": message["chunk_id"], **result},
        )

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
                if message.get("cmd") == "chunk":
                    self._run_chunk(message, control)
                # Other commands are ignored: an idle worker's incumbent
                # broadcast is superseded by the next chunk's, and a
                # newer coordinator may speak a superset of this protocol.
        except _Stop:
            return 0
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
