"""Deterministic fault injection for LP backends.

Every recovery path in the resilience layer is only as trustworthy as
the faults it has actually survived, so this module makes solver
failure *reproducible*: :class:`FaultInjectingBackend` wraps any LP
backend callable and, driven by a seeded RNG, injects one of six fault
classes on a configurable fraction of calls:

``raise``
    a :class:`~repro.errors.TransientSolverError` (retry-eligible, the
    shape of HiGHS iteration-limit / numerical-trouble statuses);
``fatal``
    a plain :class:`~repro.errors.SolverError` (non-transient — the
    resilient backend skips retries and falls through the chain);
``slow``
    an artificial delay before the real solve (deadline pressure);
``nan``
    the real solution with NaN poured into the value vector and
    objective (numerical breakdown that *returns* instead of raising);
``infeasible``
    a spurious INFEASIBLE verdict on a node that may be perfectly
    feasible (the nastiest class: undetectable from residuals, only a
    second opinion catches it);
``perturb``
    the real solution with the reported objective shifted down — a
    validated-but-wrong bound that would silently prune the optimum if
    trusted.

The same ``(seed, rate, kinds)`` triple always produces the same fault
sequence across runs, which is what lets the chaos tests assert exact
objective equality with the fault-free solve.  Injectors with
different names draw different sequences, so each backend of a
resilience chain gets its own: were every slot to share one, a
fallback's n-th call would repeat the primary's n-th fault, and a
spurious INFEASIBLE would be "confirmed" by an identical one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import SolverError, TransientSolverError
from repro.faultplan import SeededFaultPlan, SeededInjector
from repro.ilp.solution import LPResult, SolveStatus, ValueVector

#: Every fault class the injector knows, in documentation order.
FAULT_KINDS: "Tuple[str, ...]" = (
    "raise", "fatal", "slow", "nan", "infeasible", "perturb",
)


@dataclass(frozen=True)
class FaultPlan(SeededFaultPlan):
    """What to inject, how often, and where.

    ``kinds``, ``rate``, ``seed`` and ``limit`` are those of
    :class:`~repro.faultplan.SeededFaultPlan`, over
    :data:`FAULT_KINDS`.

    Parameters
    ----------
    slow_s:
        Delay injected by the ``slow`` class.
    perturb:
        How far the ``perturb`` class shifts the reported objective
        *down* (making the bound look better than it is — the
        dangerous direction for a minimization prune test).
    targets:
        ``"primary"`` faults only the first backend of the resilience
        chain (recovery via fallback must succeed); ``"all"`` faults
        every backend (recovery may be impossible — the graceful-
        degradation path's territory).
    """

    kinds: "Tuple[str, ...]" = ("raise",)
    slow_s: float = 0.02
    perturb: float = 1.0
    targets: str = "primary"

    KNOWN_KINDS = FAULT_KINDS

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.targets not in ("primary", "all"):
            raise ValueError(
                f"FaultPlan.targets must be 'primary' or 'all', got {self.targets!r}"
            )

    def describe(self) -> "Dict[str, object]":
        return {**super().describe(), "targets": self.targets}


@dataclass
class FaultRecord:
    """One injected fault, for the structured fault log."""

    call: int
    kind: str


class FaultInjectingBackend(SeededInjector):
    """Wrap an LP backend callable with seeded fault injection.

    Drop-in compatible with the ``(form, lb_override, ub_override) ->
    LPResult`` backend contract.  Whether a call is faulted, and with
    which class, is decided by the plan's RNG *before* the inner solve,
    so the decision sequence is identical no matter how long each
    underlying solve takes.  ``name`` also names the decision stream
    (see :class:`~repro.faultplan.SeededInjector`).  :meth:`telemetry`
    feeds the ``solve.resilience`` block.
    """

    def __init__(self, inner, plan: "Optional[FaultPlan]" = None,
                 name: str = "chaos") -> None:
        super().__init__(plan if plan is not None else FaultPlan(), name)
        self.inner = inner
        self.name = name
        self.calls = 0
        self._sleep = time.sleep

    def __call__(self, form, lb_override=None, ub_override=None) -> LPResult:
        self.calls += 1
        kind = self._roll()
        if kind is None:
            return self.inner(form, lb_override, ub_override)
        self._record(FaultRecord(call=self.calls, kind=kind))
        if kind == "raise":
            raise TransientSolverError(
                f"injected transient fault (call {self.calls})",
                backend=self.name,
                raw_status=-1,
            )
        if kind == "fatal":
            raise SolverError(f"injected fatal fault (call {self.calls})")
        if kind == "slow":
            self._sleep(self.plan.slow_s)
            return self.inner(form, lb_override, ub_override)
        if kind == "infeasible":
            return LPResult(status=SolveStatus.INFEASIBLE)
        result = self.inner(form, lb_override, ub_override)
        if result.status is not SolveStatus.OPTIMAL:
            return result  # nothing to corrupt
        assert result.values is not None and result.objective is not None
        values = result.values.array.copy()
        if kind == "nan":
            values[self._rng.choice(range(values.shape[0]))] = float("nan")
            return LPResult(
                status=SolveStatus.OPTIMAL,
                objective=float("nan"),
                values=ValueVector(values),
            )
        # kind == "perturb": intact values, objective shifted down — a
        # plausible-looking bound that must not survive validation.
        return LPResult(
            status=SolveStatus.OPTIMAL,
            objective=result.objective - self.plan.perturb,
            values=ValueVector(values),
        )
