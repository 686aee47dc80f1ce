"""Checkpoint/resume for branch-and-bound search state.

A killed process should restart where it died, not from scratch: the
paper's ">7200 s" rows are precisely runs whose work evaporated.  This
module serializes the whole resumable state of a
:class:`~repro.ilp.branch_bound.BranchAndBound` run to a versioned JSON
artifact:

* the **open-node frontier**, each node as *bound-override deltas*
  against the root bounds (the search only ever tightens per-variable
  bounds, so a node is fully determined by the handful of indices it
  changed — the artifact stays small even with thousands of open
  nodes);
* the **incumbent** (objective + value vector), if any;
* the :class:`~repro.ilp.solution.SolveStats` counters and elapsed
  wall time, so telemetry accumulates across restarts;
* a **model fingerprint** (SHA-256 over every matrix of the compiled
  :class:`~repro.ilp.standard_form.StandardForm`), so resuming against
  a different model is rejected instead of silently corrupting the
  search.

The search is RNG-free by construction (every branching rule is a
deterministic function of the model and the LP values), so frontier +
incumbent + counters *is* the whole state: a resumed run explores
exactly the tree the killed run would have.

Writes go through the durable-artifact layer
(:func:`repro.artifacts.write_snapshot`): serialize to ``<path>.tmp``,
fsync, atomic rename, directory fsync, with a whole-file SHA-256
``digest`` sealed into the payload — so a crash mid-write leaves the
previous checkpoint intact and bit rot in a resting checkpoint is
detected (``cause="bad-digest"``) instead of silently corrupting a
resumed search.  Stale temps from crashed writes are swept (and
counted) into quarantine by :func:`sweep_checkpoint_temps` on resume.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.errors import CheckpointError
from repro.ilp.standard_form import StandardForm

#: Artifact schema identifier written by this code; bump on any layout
#: change.  v2 artifacts from older writers also carry a root-LP
#: snapshot and a bound box, the state of the since-removed root
#: reduced-cost fixing.  Readers ignore both keys, which is sound: the
#: box only ever removed points that could not beat the incumbent.
CHECKPOINT_SCHEMA = "repro.bnb_checkpoint/v2"

#: Schemas this code can read; v1 and v2 bodies differ only in the
#: ignored keys above.
CHECKPOINT_SCHEMAS_READ = ("repro.bnb_checkpoint/v1", CHECKPOINT_SCHEMA)


def form_fingerprint(form: StandardForm) -> str:
    """SHA-256 fingerprint of a compiled standard form.

    Covers the objective, both constraint systems (structure and
    coefficients), bounds, and integrality — everything that defines
    the search space.
    """
    digest = hashlib.sha256()
    for arr in (
        form.c, form.b_ub, form.b_eq, form.lb, form.ub, form.integrality,
    ):
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    for matrix in (form.a_ub, form.a_eq):
        digest.update(np.ascontiguousarray(matrix.data, dtype=float).tobytes())
        digest.update(np.ascontiguousarray(matrix.indices).tobytes())
        digest.update(np.ascontiguousarray(matrix.indptr).tobytes())
    return digest.hexdigest()


def _finite_or_none(value: float) -> "Optional[float]":
    """JSON has no infinities; the root bound starts at -inf."""
    return float(value) if math.isfinite(value) else None


def encode_node(
    lb: "np.ndarray",
    ub: "np.ndarray",
    depth: int,
    bound: float,
    base_lb: "np.ndarray",
    base_ub: "np.ndarray",
    pid: "Optional[str]" = None,
) -> "Dict[str, object]":
    """One frontier node as deltas against the root bounds.

    ``pid`` is the node's proof-log id (proof mode only): it must
    survive the coordinator-worker round trip so the worker closes the
    node under the id the log opened it with.  Readers use
    ``entry.get("pid")`` — absent in artifacts written before proof
    logging existed, and ignored on checkpoint resume (the resume
    record re-ids the frontier).
    """
    lb_delta = {
        str(int(i)): float(lb[i]) for i in np.flatnonzero(lb != base_lb)
    }
    ub_delta = {
        str(int(i)): float(ub[i]) for i in np.flatnonzero(ub != base_ub)
    }
    entry: "Dict[str, object]" = {
        "depth": int(depth),
        "bound": _finite_or_none(bound),
        "lb": lb_delta,
        "ub": ub_delta,
    }
    if pid is not None:
        entry["pid"] = pid
    return entry


def decode_node(
    entry: "Dict[str, object]",
    base_lb: "np.ndarray",
    base_ub: "np.ndarray",
):
    """Invert :func:`encode_node`; returns ``(lb, ub, depth, bound)``."""
    lb = base_lb.copy()
    ub = base_ub.copy()
    for key, value in entry.get("lb", {}).items():
        lb[int(key)] = float(value)
    for key, value in entry.get("ub", {}).items():
        ub[int(key)] = float(value)
    bound = entry.get("bound")
    return (
        lb,
        ub,
        int(entry.get("depth", 0)),
        -math.inf if bound is None else float(bound),
    )


def write_checkpoint_atomic(path: "str | Path", payload: "Dict[str, object]") -> None:
    """Write ``payload`` durably via :func:`repro.artifacts.write_snapshot`.

    Temp-write, fsync, atomic ``os.replace``, directory fsync — plus a
    whole-file SHA-256 ``digest`` sealed into the payload so bit rot
    is detectable at resume time, not just torn writes.  A failed
    write raises :class:`~repro.errors.CheckpointError` (a
    :class:`~repro.errors.SolverError`, so the partitioner's
    degradation path rescues a solve whose checkpoint disk filled up
    instead of dying on an unhandled ``OSError``).
    """
    from repro.artifacts import write_snapshot
    from repro.errors import ArtifactError

    try:
        write_snapshot(Path(path), payload, digest=True, indent=1)
    except ArtifactError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path!s}: {exc}",
            path=str(path), cause=exc.cause,
        ) from exc


def sweep_checkpoint_temps(path: "str | Path") -> int:
    """Quarantine stale ``<path>*.tmp`` leftovers; returns the count.

    A crash between temp-write and rename strands a ``.tmp`` beside
    the checkpoint forever (nothing else ever looks at it) — resume
    sweeps them into ``<path>.quarantine/`` (cause ``stale-temp``,
    counted in the quarantine index) so run directories cannot
    accumulate unbounded debris.
    """
    from repro.artifacts import sweep_stale_temps

    return len(sweep_stale_temps(Path(path)))


def read_checkpoint(path: "str | Path") -> "Dict[str, object]":
    """Load and schema-check a checkpoint artifact.

    Raises :class:`~repro.errors.CheckpointError` (a
    :class:`~repro.errors.SolverError`) carrying the offending path and
    a machine-readable ``cause`` on a missing/unreadable file
    (``"unreadable"``), malformed or truncated JSON (``"not-json"`` —
    an empty file is this case too), a foreign/old schema
    (``"bad-schema"``), or a failed whole-file digest
    (``"bad-digest"`` — the JSON parses but its bytes rotted in place)
    — resuming from garbage must be loud and typed, never an unhandled
    ``json.JSONDecodeError``.
    """
    from repro.artifacts import read_snapshot
    from repro.errors import ArtifactError

    try:
        payload = read_snapshot(Path(path))
    except ArtifactError as exc:
        if exc.cause == "io":
            raise CheckpointError(
                f"cannot read checkpoint {path!s}: {exc.detail or exc}",
                path=str(path), cause="unreadable",
            ) from exc
        if exc.cause == "bad-digest":
            raise CheckpointError(
                f"checkpoint {path!s} failed its SHA-256 digest check "
                f"(bit rot or in-place tampering)",
                path=str(path), cause="bad-digest",
            ) from exc
        raise CheckpointError(
            f"checkpoint {path!s} is not valid JSON "
            f"(truncated or corrupt): {exc}",
            path=str(path), cause="not-json",
        ) from exc
    schema = payload.get("schema")
    if schema not in CHECKPOINT_SCHEMAS_READ:
        raise CheckpointError(
            f"checkpoint {path!s} has schema {schema!r}, "
            f"expected one of {CHECKPOINT_SCHEMAS_READ!r}",
            path=str(path), cause="bad-schema",
        )
    return payload


def values_to_json(values) -> "Optional[Dict[str, float]]":
    """Variable-index-keyed mapping -> JSON-safe string keys.

    Accepts any values mapping an :class:`~repro.ilp.solution.LPResult`
    may carry (plain dict or array-backed
    :class:`~repro.ilp.solution.ValueVector`) by normalizing through
    :func:`~repro.ilp.solution.plain_values`, keeping the serialized
    layout exactly the ``repro.bnb_checkpoint/v1`` one.
    """
    from repro.ilp.solution import plain_values

    plain = plain_values(values)
    if plain is None:
        return None
    return {str(k): v for k, v in plain.items()}


def values_from_json(values: "Optional[Dict[str, float]]") -> "Optional[Dict[int, float]]":
    """Inverse of :func:`values_to_json`."""
    if values is None:
        return None
    return {int(k): float(v) for k, v in values.items()}


def frontier_to_json(nodes, base_lb, base_ub) -> "List[Dict[str, object]]":
    """Serialize the open-node stack, preserving LIFO order.

    ``nodes`` is the solver's stack bottom-to-top; decoding in the same
    order reconstructs an identical stack, so the resumed search pops
    the exact node the killed search would have popped next.
    """
    return [
        encode_node(
            n.lb, n.ub, n.depth, n.bound, base_lb, base_ub,
            pid=getattr(n, "pid", None),
        )
        for n in nodes
    ]
