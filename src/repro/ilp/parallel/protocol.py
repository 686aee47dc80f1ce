"""Coordinator <-> worker wire protocol.

One JSON object per line, in both directions, over the worker's
stdin/stdout pipes.  Commands (coordinator -> worker):

* ``{"cmd": "init", "payload": <base64 pickle>}`` — problem context:
  the context builder (a module-level function, pickled by reference)
  and its arguments, model fingerprint, config spec, root LP
  objective, rank, chaos knob.  Sent once, first.
* ``{"cmd": "chunk", "chunk_id": n, "nodes": [...], "node_budget": b,
  "time_left_s": t | null, "incumbent_obj": x | null, "pid_prefix": p}``
  — explore a frontier slice within the coordinator's remaining time
  ``t`` (``null``: no time limit).  Nodes use the checkpoint
  frontier-delta encoding; ``pid_prefix`` is present in proof mode
  only and names the chunk's proof-id namespace.
* ``{"cmd": "incumbent", "objective": x}`` — broadcast of a better
  incumbent found elsewhere; tightens pruning mid-chunk.
* ``{"cmd": "stop"}`` — exit cleanly.

Events (worker -> coordinator):

* ``{"event": "ready"}`` — init accepted, model fingerprint verified.
* ``{"event": "done", "chunk_id": n, "frontier": [...], "incumbent":
  {...} | null, "stats": {...}, "exactness_lost": b, "abort": b,
  "proof": [...] | null}`` — chunk finished; ``frontier`` is the
  unexplored remainder (stack order preserved), ``stats`` the
  per-chunk counter deltas, ``proof`` the chunk's proof records.
* ``{"event": "error", "message": m}`` — unrecoverable worker failure
  (bad fingerprint, builder crash); the worker exits after sending.

The init payload is pickled (then base64-armored into the JSON line)
because it carries the builder and a :class:`~repro.ilp.model.Model`
or :class:`~repro.core.spec.ProblemSpec`; everything after init is
plain JSON, so a protocol trace is human-readable.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Dict, IO, Optional

from repro.ilp.solution import SolveStats

#: Counters a chunk's stats delta adds into the coordinator aggregate.
#: ``incumbent_updates`` is absent on purpose: the coordinator re-counts
#: incumbents as it adopts them (one improvement can reach it through
#: several workers), so summing would double-count.
MERGE_COUNTERS = (
    "nodes_explored",
    "nodes_branched",
    "nodes_pruned_bound",
    "nodes_pruned_infeasible",
    "nodes_integral",
    "nodes_leaf_solved",
    "nodes_dropped",
    "lp_solves",
    "lp_failures",
    "blind_branches",
    "prober_hits",
    "sos1_propagations",
    "leaf_subsolve_calls",
)


def send_message(stream: "IO[str]", message: "Dict[str, object]") -> None:
    """Write one protocol message; flush so the peer sees it now."""
    stream.write(json.dumps(message, separators=(",", ":")) + "\n")
    stream.flush()


def parse_message(line: str) -> "Optional[Dict[str, object]]":
    """Decode one protocol line; None for blank/undecodable lines.

    Workers share stdout with anything the solver stack might print;
    non-protocol lines are ignored rather than fatal.
    """
    line = line.strip()
    if not line or not line.startswith("{"):
        return None
    try:
        message = json.loads(line)
    except json.JSONDecodeError:
        return None
    return message if isinstance(message, dict) else None


def encode_init_payload(payload: "Dict[str, object]") -> str:
    """Pickle + base64 the init payload for its JSON envelope."""
    return base64.b64encode(
        pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    ).decode("ascii")


def decode_init_payload(encoded: str) -> "Dict[str, object]":
    return pickle.loads(base64.b64decode(encoded.encode("ascii")))


def stats_delta(after: SolveStats, before: "Dict[str, object]") -> "Dict[str, object]":
    """Per-chunk counter deltas of ``after`` vs a prior as_dict snapshot."""
    after_d = after.as_dict()
    delta: "Dict[str, object]" = {}
    for name in MERGE_COUNTERS:
        key = "lp_calls" if name == "lp_solves" else name
        delta[key] = int(after_d[key]) - int(before.get(key, 0))
    delta["lp_time_s"] = float(after_d["lp_time_s"]) - float(
        before.get("lp_time_s", 0.0)
    )
    delta["max_depth"] = int(after_d["max_depth"])
    delta["incumbent_updates"] = int(after_d["incumbent_updates"]) - int(
        before.get("incumbent_updates", 0)
    )
    return delta


def merge_stats(target: SolveStats, delta: "Dict[str, object]") -> None:
    """Fold one chunk's counter deltas into the coordinator aggregate."""
    for name in MERGE_COUNTERS:
        key = "lp_calls" if name == "lp_solves" else name
        setattr(target, name, getattr(target, name) + int(delta.get(key, 0)))
    target.lp_time_s += float(delta.get("lp_time_s", 0.0))
    target.max_depth = max(target.max_depth, int(delta.get("max_depth", 0)))
