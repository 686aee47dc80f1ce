"""Machine-readable export of experiment rows, designs, and telemetry.

The ASCII tables (:mod:`repro.reporting.tables`) are for humans; this
module writes the same row dictionaries as CSV or JSON for downstream
analysis, plus a full JSON dump of a partitioned design (assignment,
per-partition local schedules, cut traffic) for consumption by other
tools — e.g. a downstream bitstream-scheduling flow.

It also persists the per-run **solve telemetry artifact**
(``repro.solve_telemetry/v12``): the structured record of one solve —
status, objective, proven bound and gap, the node/LP counter set, the
incumbent improvement event log, the presolve reduction summary, and
the infeasibility certificate when a precheck or the presolve proved
the instance infeasible before any LP ran.  The CLI's ``--telemetry`` flag
and the experiment rows both carry exactly this document, so solver
trajectories are comparable across runs and machines.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Dict, Mapping, Optional, Sequence

from repro.core.partitioner import PartitionOutcome
from repro.core.result import PartitionedDesign


def rows_to_csv(
    rows: "Sequence[Mapping[str, object]]",
    path: "str | Path",
    columns: "Optional[Sequence[str]]" = None,
) -> None:
    """Write experiment rows to a CSV file.

    ``columns`` selects/orders fields; by default the union of all keys
    in first-appearance order is used, so heterogeneous rows are safe.
    """
    if columns is None:
        seen: "Dict[str, None]" = {}
        for row in rows:
            for key in row:
                seen.setdefault(key, None)
        columns = list(seen)
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns), extrasaction="ignore")
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k) for k in columns})


def rows_to_json(
    rows: "Sequence[Mapping[str, object]]", path: "str | Path"
) -> None:
    """Write experiment rows to a JSON file (list of objects)."""
    Path(path).write_text(json.dumps([dict(r) for r in rows], indent=2))


def design_to_dict(design: PartitionedDesign) -> "Dict[str, object]":
    """Serialize a partitioned design to a JSON-compatible dict.

    Contains everything a downstream flow needs to realize the design:
    the assignment, each partition's FU set and locally renumbered
    schedule, the cut traffic, and the summary metrics.
    """
    spec = design.spec
    partitions = []
    local = design.local_schedules()
    for p in design.partitions_used():
        partitions.append(
            {
                "index": p,
                "tasks": list(design.tasks_in(p)),
                "fus": list(design.fus_used_in(p)),
                "area_effective": design.area_of(p),
                "steps": len(design.steps_of(p)),
                "schedule": {
                    op_id: {"step": step, "fu": fu}
                    for op_id, (step, fu) in sorted(local[p].items())
                },
            }
        )
    cuts = {
        str(cut): design.cut_traffic(cut)
        for cut in range(2, spec.n_partitions + 1)
        if design.cut_traffic(cut)
    }
    return {
        "graph": spec.graph.name,
        "n_partitions_bound": spec.n_partitions,
        "relaxation": spec.relaxation,
        "device": spec.device.name,
        "assignment": dict(design.assignment),
        "partitions": partitions,
        "cut_traffic": cuts,
        "communication_cost": design.communication_cost(),
        "partitions_used": design.num_partitions_used,
    }


def save_design(design: PartitionedDesign, path: "str | Path") -> None:
    """Write a design's JSON dump to ``path``."""
    Path(path).write_text(json.dumps(design_to_dict(design), indent=2))


def telemetry_to_dict(outcome: PartitionOutcome) -> "Dict[str, object]":
    """The ``repro.solve_telemetry/v12`` record for one run.

    Top-level keys: ``schema``, instance identity (``graph``,
    ``n_partitions``, ``relaxation``, ``device``), the outcome
    (``status``, ``feasible``, ``hit_limit``, ``objective``, ``bound``,
    ``gap``, ``wall_time_s``), the degradation provenance
    (``degraded``, ``fallback``, ``degradation_cause`` — v3), the
    ``model`` size report (with
    ``nonzeros``/``density``/``integer_vars_by_family``), ``solve`` —
    the full :meth:`~repro.ilp.solution.SolveStats.as_dict` counter
    set including ``incumbent_events``, the ``presolve`` reduction
    summary (null when presolve was off), and the ``resilience``
    fault/recovery block (null when no resilience machinery fired —
    v3) — and ``certificate``, the infeasibility proof attached when a
    structural precheck or the presolve rejected the instance (null
    otherwise).
    """
    return outcome.telemetry()


def save_telemetry(outcome: PartitionOutcome, path: "str | Path") -> None:
    """Write one run's solve-telemetry artifact as JSON to ``path``.

    Goes through the durable-artifact snapshot dance (temp + fsync +
    atomic rename + directory fsync, whole-file SHA-256 ``digest``
    sealed into the payload) so a crash cannot leave a half-written
    telemetry file and resting bit rot is detectable by ``repro
    doctor``.
    """
    from repro.artifacts import write_snapshot

    write_snapshot(Path(path), telemetry_to_dict(outcome), indent=2)


def journal_summary_rows(path: "str | Path") -> "list":
    """Summary rows from a batch-runner journal file.

    Replays a ``repro.batch_journal/v1`` journal (see
    :mod:`repro.runner.journal`) and returns one deterministic
    summary-row dict per finished job, in job order — the same rows
    ``repro batch`` prints, including the degradation provenance
    (``degraded``/``fallback``/``degradation_cause``), ready for
    :func:`rows_to_csv` / :func:`rows_to_json`.
    """
    from repro.runner.journal import replay

    results = replay(path)
    return [results[index].summary_row() for index in sorted(results)]


def save_journal_summary(
    journal_path: "str | Path", out_path: "str | Path"
) -> None:
    """Write a journal's deterministic batch summary as JSON.

    Written through the durable snapshot path with an embedded digest,
    so ``repro doctor`` can both verify it and rebuild it from the
    journal after a repair.
    """
    from repro.artifacts import write_snapshot
    from repro.runner.journal import replay
    from repro.runner.pool import batch_summary

    results = replay(journal_path)
    summary = batch_summary([results[index] for index in sorted(results)])
    write_snapshot(Path(out_path), summary, indent=2)
