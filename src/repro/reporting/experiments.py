"""Reference experiment definitions: the paper's tables as data.

The paper's experiment platform (component characterization, FPGA
capacity, scratch memory) is fixed but unpublished; this module pins
our reproduction's equivalents in one place so every test, script
and bench workload runs the *same* platform:

* **device** — capacity 265 effective FGs at ``alpha = 0.7``.  Chosen
  deliberately: one segment can hold two multipliers plus one small FU
  (2M+1A = 259.0 effective) but not the full exploration mixes
  (2A+2M+1S = 284.2), so temporal partitioning is genuinely necessary
  for multiplier-parallel phases — the regime the paper's experiments
  operate in.
* **memory** — 25 data units of scratch, comfortably above typical cut
  traffic but finite (the eq-3 constraints are real).

Every row of Tables 1-4 is encoded as an :class:`ExperimentRow` with
the values the paper reports, so ``scripts/run_experiments.py`` can
print paper-vs-measured side by side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.graph.generators import paper_graph
from repro.library.catalogs import mix_from_string
from repro.target.fpga import FPGADevice
from repro.target.memory import ScratchMemory
from repro.core.formulation import FormulationOptions
from repro.core.partitioner import TemporalPartitioner


def reference_device() -> FPGADevice:
    """The pinned experiment device (see module docstring)."""
    return FPGADevice("exp-fpga", capacity=265, alpha=0.7)


def reference_memory() -> ScratchMemory:
    """The pinned experiment scratch memory."""
    return ScratchMemory(25)


@dataclass(frozen=True)
class ExperimentRow:
    """One table row: workload parameters plus the paper's numbers.

    ``paper_runtime_s`` is the paper's reported run time (175 MHz
    UltraSparc, lp_solve); ``None`` for their ">7200"-style timeouts.
    ``paper_feasible`` records their Feasible column (``None`` where
    the table has no such column, e.g. timeouts in Table 1).
    """

    table: str
    graph: int
    n_partitions: int
    mix: str
    relaxation: int
    paper_vars: Optional[int] = None
    paper_consts: Optional[int] = None
    paper_runtime_s: Optional[float] = None
    paper_feasible: Optional[bool] = None
    label: str = ""

    @property
    def key(self) -> str:
        """Stable identifier, e.g. ``"t4-g3-N3-L1"``."""
        return f"{self.table}-g{self.graph}-N{self.n_partitions}-L{self.relaxation}"


#: Every row of the paper's result tables, verbatim.
EXPERIMENT_ROWS: "List[ExperimentRow]" = [
    # Table 1 — base (untightened) formulation; 3 of 4 rows time out.
    ExperimentRow("t1", 1, 3, "2A+2M+1S", 1, 230, 549, None),
    ExperimentRow("t1", 1, 2, "2A+2M+1S", 2, 241, 493, None),
    ExperimentRow("t1", 1, 2, "2A+2M+1S", 3, 287, 562, 953.3),
    ExperimentRow("t1", 3, 3, "2A+2M+1S", 1, 741, 2239, None),
    # Table 2 — tightened constraints, default variable selection.
    ExperimentRow("t2", 1, 3, "2A+2M+1S", 1, 230, 656, 86.2),
    ExperimentRow("t2", 1, 2, "2A+2M+1S", 2, 241, 551, 4670.4),
    ExperimentRow("t2", 1, 2, "2A+2M+1S", 3, 287, 620, 9.7),
    ExperimentRow("t2", 3, 3, "2A+2M+1S", 1, 741, 2526, None),
    # Table 3 — graph 1 latency/partition exploration (tight + heuristic).
    ExperimentRow("t3", 1, 3, "2A+2M+1S", 0, 183, 583, 1.72, False),
    ExperimentRow("t3", 1, 3, "2A+2M+1S", 1, 230, 656, 8.96, True),
    ExperimentRow("t3", 1, 2, "2A+2M+1S", 2, 241, 551, 9.91, True),
    ExperimentRow("t3", 1, 2, "2A+2M+1S", 3, 287, 620, 8.86, True),
    # Table 4 — all graphs, tightened + heuristic variable selection.
    ExperimentRow("t4", 1, 3, "2A+2M+1S", 1, 230, 656, 8.96, True),
    ExperimentRow("t4", 2, 4, "3A+2M+2S", 1, 698, 1992, 51.13, True),
    ExperimentRow("t4", 3, 3, "2A+2M+2S", 1, 741, 2526, 267.7, True),
    ExperimentRow("t4", 4, 2, "2A+2M+2S", 1, 564, 1421, 240.64, True),
    ExperimentRow("t4", 4, 3, "2A+2M+2S", 0, 635, 1942, 167.23, True),
    ExperimentRow("t4", 5, 3, "2A+2M+2S", 0, 748, 2472, 0.78, False),
    ExperimentRow("t4", 5, 2, "2A+2M+2S", 1, 813, 2032, 310.45, True),
    ExperimentRow("t4", 6, 3, "2A+2M+2S", 0, 1055, 2900, 882.27, True),
    ExperimentRow("t4", 6, 2, "2A+2M+2S", 1, 1158, 2465, 1763.27, True),
]


def table_rows(table: str) -> "List[ExperimentRow]":
    """All rows of one table (``"t1".."t4"``)."""
    rows = [r for r in EXPERIMENT_ROWS if r.table == table]
    if not rows:
        raise ValueError(f"unknown table {table!r}; use 't1'..'t4'")
    return rows


def run_row(
    row: ExperimentRow,
    tighten: bool = True,
    branching: str = "paper",
    backend: str = "bnb",
    time_limit_s: "Optional[float]" = 60.0,
    linearization: str = "glover",
    plain_search: bool = False,
    aggregated_dependencies: bool = False,
    presolve: bool = True,
    chaos=None,
    proof_path: "Optional[str]" = None,
    heuristics: bool = False,
) -> "Dict[str, object]":
    """Execute one experiment row and return a measured-result dict.

    ``plain_search=True`` runs the raw 1998-style branch and bound
    (no SOS1 propagation, slot prober or leaf sub-solve) — what
    Tables 1-2 measure.  ``presolve=False`` skips the structural
    prechecks and the static presolve pass (Ablation D compares
    both).  ``chaos`` (a :class:`~repro.ilp.resilience.FaultPlan`)
    turns on seeded fault injection.  ``proof_path`` writes a
    ``repro.bnb_proof/v1`` certificate log of the branch-and-bound
    tree for independent verification with ``repro audit`` (bnb
    backend only).  ``heuristics`` enables the primal heuristics.
    The returned dict carries both the measurement and the paper's
    reported values, ready for
    :func:`repro.reporting.tables.render_rows`.
    """
    graph = paper_graph(row.graph)
    options = FormulationOptions(
        tighten=tighten,
        linearization=linearization,
        aggregated_dependencies=aggregated_dependencies,
    )
    partitioner = TemporalPartitioner(
        device=reference_device(),
        memory=reference_memory(),
        options=options,
        branching=branching,
        backend=backend,
        time_limit_s=time_limit_s,
        plain_search=plain_search,
        presolve=presolve,
        chaos=chaos,
        proof_path=proof_path,
        heuristics=heuristics,
    )
    start = time.monotonic()
    outcome = partitioner.partition(
        graph,
        mix_from_string(row.mix),
        n_partitions=row.n_partitions,
        relaxation=row.relaxation,
    )
    elapsed = time.monotonic() - start
    return {
        "key": row.key,
        "graph": row.graph,
        "tasks": len(graph.tasks),
        "opers": graph.num_operations,
        "N": row.n_partitions,
        "mix": row.mix,
        "L": row.relaxation,
        "vars": outcome.model_stats["vars"],
        "int_vars": outcome.model_stats["integer_vars"],
        "consts": outcome.model_stats["constraints"],
        "runtime_s": round(elapsed, 2),
        "status": outcome.status.value,
        "feasible": outcome.feasible,
        "hit_limit": outcome.hit_limit,
        "objective": outcome.objective,
        "gap": outcome.gap,
        "degraded": outcome.degraded,
        "fallback": outcome.fallback,
        "degradation_cause": outcome.degradation_cause,
        "partitions_used": (
            outcome.design.num_partitions_used if outcome.design else None
        ),
        "nodes": outcome.solve_stats.nodes_explored,
        "lp_calls": outcome.solve_stats.lp_calls,
        "paper_vars": row.paper_vars,
        "paper_consts": row.paper_consts,
        "paper_runtime_s": row.paper_runtime_s,
        "paper_feasible": row.paper_feasible,
        "telemetry": outcome.telemetry(),
    }
