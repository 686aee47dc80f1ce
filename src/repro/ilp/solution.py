"""Solver result and telemetry types shared by every backend.

Statuses distinguish the *outcome kinds* the paper's tables need:
optimal (their "Yes" rows), proven infeasible (their "No" rows), and
limit expiry (their ">7200" rows) — which since the telemetry layer
comes in two flavors: FEASIBLE (deadline hit but an incumbent plus a
proven bound/gap are in hand) and TIMEOUT/NODE_LIMIT (expired truly
empty-handed).

Beyond the status, a solve produces a structured telemetry record:

* :class:`SolveStats` — the full counter set of a branch-and-bound run
  (node outcomes by cause, LP calls and cumulative LP time, SOS1 and
  leaf-subsolve hit counts, the incumbent event log, final bound/gap);
* :class:`IncumbentEvent` — one ``(wall_time, objective, bound)``
  improvement event, the trajectory the paper's run-time tables talk
  about;
* :class:`NodeEvent` — a progress snapshot handed to ``on_node``
  callbacks for live traces.

Everything is JSON-serializable via ``as_dict`` so reports and the
experiment scripts can persist a run without reaching into solver
internals.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np


class SolveStatus(enum.Enum):
    """Outcome of an LP or MILP solve."""

    OPTIMAL = "optimal"
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"
    NODE_LIMIT = "node_limit"
    ERROR = "error"


def relative_gap(objective: float, bound: float) -> float:
    """MIP-style relative optimality gap ``(obj - bound) / max(1, |obj|)``.

    Safe near zero objectives; 0.0 means proven optimal.  For the
    minimization problems here ``bound <= objective`` always holds, so
    the gap is non-negative (clamped defensively).
    """
    return max(0.0, (objective - bound) / max(1.0, abs(objective)))


@dataclass(frozen=True)
class IncumbentEvent:
    """One incumbent improvement: when, to what, against which bound.

    ``bound`` is the best proven global lower bound at the moment of
    the improvement (``None`` while no finite bound exists yet, e.g.
    before the root LP has been solved).
    """

    wall_time_s: float
    objective: float
    bound: Optional[float] = None

    @property
    def gap(self) -> Optional[float]:
        """Relative gap at the time of the event, if a bound existed."""
        if self.bound is None:
            return None
        return relative_gap(self.objective, self.bound)

    def as_dict(self) -> "Dict[str, object]":
        return {
            "wall_time_s": self.wall_time_s,
            "objective": self.objective,
            "bound": self.bound,
            "gap": self.gap,
        }


@dataclass(frozen=True)
class NodeEvent:
    """Progress snapshot delivered to ``on_node`` callbacks."""

    wall_time_s: float
    nodes_explored: int
    depth: int
    open_nodes: int
    incumbent_objective: Optional[float] = None
    best_bound: Optional[float] = None

    @property
    def gap(self) -> Optional[float]:
        """Relative gap at the snapshot, when both sides are known."""
        if self.incumbent_objective is None or self.best_bound is None:
            return None
        return relative_gap(self.incumbent_objective, self.best_bound)

    def as_dict(self) -> "Dict[str, object]":
        return {
            "wall_time_s": self.wall_time_s,
            "nodes_explored": self.nodes_explored,
            "depth": self.depth,
            "open_nodes": self.open_nodes,
            "incumbent_objective": self.incumbent_objective,
            "best_bound": self.best_bound,
            "gap": self.gap,
        }


@dataclass
class SolveStats:
    """Search telemetry of a branch-and-bound run.

    Node accounting: every explored node lands in exactly one outcome
    bucket, so

        nodes_explored == nodes_branched + nodes_pruned_bound
                        + nodes_pruned_infeasible + nodes_integral
                        + nodes_leaf_solved + nodes_dropped

    holds at all times (the telemetry tests assert it).  ``lp_solves``
    counts LP *relaxation* calls only; exact leaf sub-solves are
    tracked separately in ``leaf_subsolve_calls``.

    Resilience accounting: ``lp_failures`` counts LP backend calls
    that ended in a :class:`~repro.errors.SolverError` instead of a
    result; such nodes are *blind-branched* (split without a bound,
    ``blind_branches``) to stay exact, or — when fully fixed and the
    exact leaf decision also fails — dropped (``nodes_dropped``),
    which forfeits the optimality proof.  ``resilience`` carries the
    structured ``solve.resilience`` telemetry block (fault log,
    retry/fallback/quarantine counters, checkpoint events) when any
    resilience machinery was active, else ``None``.
    """

    nodes_explored: int = 0
    nodes_branched: int = 0
    nodes_pruned_bound: int = 0
    nodes_pruned_infeasible: int = 0
    nodes_integral: int = 0
    nodes_leaf_solved: int = 0
    nodes_dropped: int = 0
    lp_solves: int = 0
    lp_failures: int = 0
    blind_branches: int = 0
    lp_time_s: float = 0.0
    incumbent_updates: int = 0
    prober_hits: int = 0
    sos1_propagations: int = 0
    leaf_subsolve_calls: int = 0
    max_depth: int = 0
    wall_time_s: float = 0.0
    stop_reason: str = "exhausted"
    best_bound: Optional[float] = None
    gap: Optional[float] = None
    incumbent_events: "List[IncumbentEvent]" = field(default_factory=list)
    presolve: "Optional[Dict[str, object]]" = None
    resilience: "Optional[Dict[str, object]]" = None
    kernel: "Optional[Dict[str, object]]" = None
    proof: "Optional[Dict[str, object]]" = None
    heuristics: "Optional[Dict[str, object]]" = None

    @property
    def lp_calls(self) -> int:
        """Alias for ``lp_solves`` (the telemetry schema's name)."""
        return self.lp_solves

    def as_dict(self) -> "Dict[str, object]":
        """Plain JSON-serializable view for reports and artifacts."""
        return {
            "nodes_explored": self.nodes_explored,
            "nodes_branched": self.nodes_branched,
            "nodes_pruned_bound": self.nodes_pruned_bound,
            "nodes_pruned_infeasible": self.nodes_pruned_infeasible,
            "nodes_integral": self.nodes_integral,
            "nodes_leaf_solved": self.nodes_leaf_solved,
            "nodes_dropped": self.nodes_dropped,
            "lp_calls": self.lp_solves,
            "lp_failures": self.lp_failures,
            "blind_branches": self.blind_branches,
            "lp_time_s": self.lp_time_s,
            "incumbent_updates": self.incumbent_updates,
            "prober_hits": self.prober_hits,
            "sos1_propagations": self.sos1_propagations,
            "leaf_subsolve_calls": self.leaf_subsolve_calls,
            "max_depth": self.max_depth,
            "wall_time_s": self.wall_time_s,
            "stop_reason": self.stop_reason,
            "best_bound": self.best_bound,
            "gap": self.gap,
            "incumbent_events": [e.as_dict() for e in self.incumbent_events],
            "presolve": self.presolve,
            "resilience": self.resilience,
            "kernel": self.kernel,
            "proof": self.proof,
            "heuristics": self.heuristics,
        }

    @classmethod
    def from_dict(cls, data: "Dict[str, object]") -> "SolveStats":
        """Rebuild stats from :meth:`as_dict` output (checkpoint resume).

        Unknown keys are ignored and missing keys keep their defaults,
        so artifacts written by older minor revisions still load.
        """
        stats = cls()
        for name in (
            "nodes_explored", "nodes_branched", "nodes_pruned_bound",
            "nodes_pruned_infeasible", "nodes_integral", "nodes_leaf_solved",
            "nodes_dropped", "lp_failures", "blind_branches",
            "incumbent_updates", "prober_hits", "sos1_propagations",
            "leaf_subsolve_calls", "max_depth",
        ):
            if name in data:
                setattr(stats, name, int(data[name]))
        if "lp_calls" in data:
            stats.lp_solves = int(data["lp_calls"])
        for name in ("lp_time_s", "wall_time_s"):
            if name in data:
                setattr(stats, name, float(data[name]))
        if "stop_reason" in data:
            stats.stop_reason = str(data["stop_reason"])
        for name in ("best_bound", "gap"):
            value = data.get(name)
            if value is not None:
                setattr(stats, name, float(value))
        stats.incumbent_events = [
            IncumbentEvent(
                wall_time_s=float(e["wall_time_s"]),
                objective=float(e["objective"]),
                bound=None if e.get("bound") is None else float(e["bound"]),
            )
            for e in data.get("incumbent_events", [])
        ]
        presolve = data.get("presolve")
        stats.presolve = dict(presolve) if isinstance(presolve, dict) else None
        return stats


class ValueVector(Mapping):
    """Array-backed variable-value vector with a lazy dict interface.

    LP backends historically returned ``{idx: float}`` dicts, which
    branch and bound allocated (and copied) once per node — a
    measurable share of the per-node cost on the paper's models.  This
    wrapper keeps the solver's numpy vector as-is and *presents* it as
    a read-only mapping keyed by variable index, so every existing
    consumer (``values[idx]``, ``values.items()``, ``dict(values)``)
    keeps working without the per-node dict build.

    Keys are exactly ``0..n-1``; negative indices are rejected (a dict
    would raise ``KeyError`` there, and silent wrap-around would be a
    correctness bug).  Equality compares against any mapping with the
    same items, so tests may compare against plain dicts.
    """

    __slots__ = ("_array",)

    def __init__(self, array: "np.ndarray") -> None:
        self._array = np.asarray(array, dtype=float)

    @property
    def array(self) -> "np.ndarray":
        """The underlying vector (shared, treat as read-only)."""
        return self._array

    def __getitem__(self, idx) -> float:
        i = int(idx)
        if i < 0 or i >= self._array.shape[0]:
            raise KeyError(idx)
        return float(self._array[i])

    def __len__(self) -> int:
        return int(self._array.shape[0])

    def __iter__(self):
        return iter(range(self._array.shape[0]))

    def __contains__(self, idx) -> bool:
        try:
            i = int(idx)
        except (TypeError, ValueError):
            return False
        return 0 <= i < self._array.shape[0]

    def __eq__(self, other) -> bool:
        if isinstance(other, ValueVector):
            return bool(np.array_equal(self._array, other._array))
        if isinstance(other, Mapping):
            return len(self) == len(other) and all(
                k in self and self[k] == v for k, v in other.items()
            )
        return NotImplemented

    def __hash__(self):  # mappings are unhashable, match dict
        raise TypeError("unhashable type: 'ValueVector'")

    def __repr__(self) -> str:
        return f"ValueVector(n={len(self)})"

    def to_dict(self) -> "Dict[int, float]":
        """Materialize as a plain ``{index: value}`` dict."""
        return {idx: float(v) for idx, v in enumerate(self._array)}


def plain_values(values: "Optional[Mapping]") -> "Optional[Dict[int, float]]":
    """The one value-materialization accessor for LP/MILP solutions.

    Every consumer that needs a *plain dict* of a solution (checkpoint
    serialization, incumbent rounding, leaf sub-solve payloads) goes
    through here, so the array-backed :class:`ValueVector`
    representation can never silently break a round-trip: both
    representations come out as the same ``{int: float}`` dict.
    """
    if values is None:
        return None
    if isinstance(values, ValueVector):
        return values.to_dict()
    return {int(k): float(v) for k, v in values.items()}


@dataclass(frozen=True)
class LPResult:
    """Result of one LP (relaxation) solve.

    ``values`` maps variable index to value as an array-backed
    :class:`ValueVector` (every LP backend and the fault injector build
    one; :func:`~repro.ilp.resilience.validate_lp_result` reads its
    array); present only when ``status`` is OPTIMAL.  ``dual_ub`` / ``dual_eq`` are the row duals of the
    inequality and equality systems (sign convention: ``dual_ub <= 0``
    for a minimization), the raw material of branch-and-bound proof
    certificates.  Both are excluded from equality comparisons
    (certification hints, not part of the answer).
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: "Optional[Mapping]" = None
    dual_ub: "Optional[np.ndarray]" = field(
        default=None, compare=False, repr=False
    )
    dual_eq: "Optional[np.ndarray]" = field(
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.status is SolveStatus.OPTIMAL:
            if self.objective is None or self.values is None:
                raise ValueError("OPTIMAL LPResult requires objective and values")


@dataclass(frozen=True)
class MilpResult:
    """Result of a full MILP solve (branch and bound or scipy.milp).

    ``bound`` is the best proven lower bound on the optimum; ``gap``
    the relative distance between ``objective`` and ``bound``.  For an
    OPTIMAL result ``bound == objective`` and ``gap == 0.0``; for a
    FEASIBLE (deadline-expired) result the gap quantifies how far the
    incumbent is *proven* to be from optimal.  TIMEOUT / NODE_LIMIT
    mean the limit expired with no incumbent at all.
    """

    status: SolveStatus
    objective: Optional[float] = None
    values: "Optional[Dict[int, float]]" = None
    stats: SolveStats = field(default_factory=SolveStats)
    bound: Optional[float] = None
    gap: Optional[float] = None

    @property
    def has_solution(self) -> bool:
        """Whether any integer-feasible solution is attached."""
        return self.values is not None

    def telemetry(self) -> "Dict[str, object]":
        """The per-run telemetry record (see docs/DESIGN.md schema)."""
        return {
            "status": self.status.value,
            "objective": self.objective,
            "bound": self.bound,
            "gap": self.gap,
            "stats": self.stats.as_dict(),
        }
