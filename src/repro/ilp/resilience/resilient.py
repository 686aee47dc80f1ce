"""Resilient LP solving: validate, retry, fall through a backend chain.

:class:`ResilientLPBackend` is a drop-in LP backend (same
``(form, lb_override, ub_override) -> LPResult`` contract as
:func:`~repro.ilp.scipy_backend.solve_lp_scipy`) that refuses to hand
the branch and bound a wrong answer:

* every OPTIMAL result is **validated** against the
  :class:`~repro.ilp.standard_form.StandardForm` — finite objective and
  values, variable bounds, constraint residuals within tolerance, and
  the reported objective against ``c'x`` (which catches a perturbed
  bound: a validated-but-wrong LP bound must never silently prune the
  optimum);
* :class:`~repro.errors.TransientSolverError` faults are retried on
  the same backend with bounded exponential backoff;
* non-transient faults and repeated validation failures **fall
  through** the backend chain (the warm incremental kernel when the
  partitioner heads the chain with it, then the cold SciPy HiGHS
  path);
* a backend that keeps failing is **quarantined** for the rest of the
  run so a dead solver does not add its timeout to every node;
* optionally, INFEASIBLE verdicts are **double-checked** with the next
  backend, or the same one when none follows — residual validation
  cannot catch a spurious INFEASIBLE (there is no solution to check),
  so under fault injection a second opinion is the only defense
  against silently pruning feasible subtrees.

When the whole chain fails on one call the backend raises
:class:`~repro.errors.BackendChainExhausted`; the branch and bound
then treats the node as unresolvable (branch without pruning), and
the partitioner eventually degrades to a heuristic baseline.  Every
fault, retry, fallback, and quarantine lands in a structured log
surfaced through :meth:`ResilientLPBackend.resilience_telemetry`.

This chain is the only place an LP fault is handled: the warm kernel
(:mod:`repro.ilp.incremental`) has no fallback of its own and raises
:class:`~repro.errors.SolverError` for anything it cannot solve.  The
retry, backoff, tolerance and quarantine settings are the module
constants below (:data:`MAX_RETRIES` and the rest).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    BackendChainExhausted,
    SolverError,
    TransientSolverError,
)
from repro.ilp.solution import LPResult, SolveStatus
from repro.ilp.standard_form import StandardForm

#: Fault-log entries kept per backend instance.
_LOG_CAP = 1000
#: Extra attempts per backend after a transient fault or a validation
#: failure (non-transient faults skip retries).
MAX_RETRIES = 2
#: Bounded exponential backoff between retries: the first delay, its
#: growth factor and its cap.  Deliberately tiny: LP nodes are
#: milliseconds, and the point of backoff here is to outlive a
#: *momentary* glitch, not a network partition.
BACKOFF_S = 0.01
BACKOFF_FACTOR = 2.0
MAX_BACKOFF_S = 0.25
#: Tolerance of :func:`validate_lp_result`.
RESIDUAL_TOL = 1e-6
#: Consecutive failed calls after which a backend is skipped for the
#: rest of the run (any validated success resets the count).
QUARANTINE_AFTER = 3


def validate_lp_result(
    result: LPResult,
    form: StandardForm,
    lb: "np.ndarray",
    ub: "np.ndarray",
    tol: float = RESIDUAL_TOL,
) -> "Optional[str]":
    """Check an OPTIMAL LP result against the standard form.

    Returns ``None`` when the result is trustworthy, else a short
    reason string.  Non-OPTIMAL statuses validate trivially (they carry
    no solution to check; spurious INFEASIBLE needs a second opinion,
    see ``double_check_infeasible``).  All tolerances scale with the
    magnitude of the quantity checked so big-bandwidth models are not
    rejected for honest floating-point noise.
    """
    if result.status is not SolveStatus.OPTIMAL:
        return None
    if result.objective is None or result.values is None:
        return "OPTIMAL result without objective/values"
    if not math.isfinite(result.objective):
        return f"objective is not finite: {result.objective}"
    n = form.num_vars
    x = result.values.array
    if x.shape[0] < n:
        return f"solution has {x.shape[0]} values for {n} variables"
    x = x[:n]
    if not np.all(np.isfinite(x)):
        bad = int(np.flatnonzero(~np.isfinite(x))[0])
        return f"solution value for variable {bad} is not finite"
    bound_slack = tol * (1.0 + np.maximum(np.abs(lb), np.abs(ub)))
    bound_slack[~np.isfinite(bound_slack)] = np.inf
    if np.any(x < lb - bound_slack) or np.any(x > ub + bound_slack):
        return "solution violates variable bounds"
    if form.a_ub.shape[0]:
        resid = form.a_ub @ x - form.b_ub
        allowed = tol * (1.0 + np.abs(form.b_ub))
        if np.any(resid > allowed):
            row = int(np.argmax(resid - allowed))
            return f"inequality row {row} violated by {float(resid[row]):g}"
    if form.a_eq.shape[0]:
        resid = np.abs(form.a_eq @ x - form.b_eq)
        allowed = tol * (1.0 + np.abs(form.b_eq))
        if np.any(resid > allowed):
            row = int(np.argmax(resid - allowed))
            return f"equality row {row} off by {float(resid[row]):g}"
    recomputed = float(form.c @ x)
    if abs(recomputed - result.objective) > tol * (1.0 + abs(recomputed)):
        return (
            f"reported objective {result.objective:g} disagrees with "
            f"c'x = {recomputed:g}"
        )
    return None


@dataclass
class _BackendSlot:
    """One backend in the chain plus its health bookkeeping."""

    name: str
    fn: "Callable[..., LPResult]"
    calls: int = 0
    failures: int = 0
    consecutive_failures: int = 0
    quarantined: bool = False

    def as_dict(self) -> "Dict[str, object]":
        return {
            "name": self.name,
            "calls": self.calls,
            "failures": self.failures,
            "quarantined": self.quarantined,
        }


def default_backend_chain() -> "List[Tuple[str, Callable[..., LPResult]]]":
    """The cold SciPy HiGHS path alone.

    The partitioner puts the warm incremental kernel in front of it
    when SciPy's HiGHS binding passes its version guard.
    """
    from repro.ilp.scipy_backend import solve_lp_scipy

    return [("scipy-highs", solve_lp_scipy)]


class ResilientLPBackend:
    """Validating, retrying, falling-through LP backend chain.

    Parameters
    ----------
    backends:
        Ordered ``(name, callable)`` chain; defaults to
        :func:`default_backend_chain`.
    double_check_infeasible:
        Confirm INFEASIBLE verdicts with the next live backend (the
        same one when none follows) before believing them.  Off by
        default (it doubles the cost of every genuinely infeasible
        node); the chaos CLI/tests turn it on because the
        ``infeasible`` fault class is undetectable any other way.
    sleep:
        Injected for tests; defaults to :func:`time.sleep`.
    """

    def __init__(
        self,
        backends: "Optional[Sequence[Tuple[str, Callable[..., LPResult]]]]" = None,
        double_check_infeasible: bool = False,
        sleep: "Callable[[float], None]" = time.sleep,
    ) -> None:
        chain = list(backends) if backends is not None else default_backend_chain()
        if not chain:
            raise ValueError("ResilientLPBackend needs at least one backend")
        self._slots = [_BackendSlot(name, fn) for name, fn in chain]
        self.double_check_infeasible = double_check_infeasible
        self._sleep = sleep
        # Counters for telemetry.
        self.calls = 0
        self.retries = 0
        self.fallbacks = 0
        self.validation_failures = 0
        self.quarantines = 0
        self.infeasible_overruled = 0
        self.fault_log: "List[Dict[str, object]]" = []

    # ------------------------------------------------------------------

    def _log(self, backend: str, kind: str, detail: str) -> None:
        if len(self.fault_log) < _LOG_CAP:
            self.fault_log.append(
                {"call": self.calls, "backend": backend,
                 "kind": kind, "detail": detail}
            )

    def _live_slots(self) -> "List[_BackendSlot]":
        return [slot for slot in self._slots if not slot.quarantined]

    def _mark_failure(self, slot: _BackendSlot) -> None:
        slot.failures += 1
        slot.consecutive_failures += 1
        if (
            not slot.quarantined
            and slot.consecutive_failures >= QUARANTINE_AFTER
        ):
            slot.quarantined = True
            self.quarantines += 1
            self._log(slot.name, "quarantine",
                      f"after {slot.consecutive_failures} consecutive failures")

    # ------------------------------------------------------------------

    def __call__(self, form, lb_override=None, ub_override=None) -> LPResult:
        self.calls += 1
        lb = form.lb if lb_override is None else lb_override
        ub = form.ub if ub_override is None else ub_override
        if np.any(np.asarray(lb) > np.asarray(ub) + 1e-12):
            # Contradictory branching fixation: trivially infeasible —
            # and *provably* so, no backend opinion needed.
            return LPResult(status=SolveStatus.INFEASIBLE)

        errors: "List[str]" = []
        live = self._live_slots()
        for pos, slot in enumerate(live):
            if pos > 0:
                self.fallbacks += 1
                self._log(slot.name, "fallback", f"after {errors[-1]}")
            result = self._try_backend(slot, form, lb, ub, errors)
            if result is None:
                continue
            if (
                result.status is SolveStatus.INFEASIBLE
                and self.double_check_infeasible
            ):
                result = self._confirm_infeasible(
                    result, slot, live[pos + 1:], form, lb, ub
                )
                if result is None:
                    errors.append(f"{slot.name}: INFEASIBLE not confirmed")
                    continue
            return result
        raise BackendChainExhausted(
            "every LP backend failed: " + "; ".join(errors)
            if errors
            else "every LP backend is quarantined"
        )

    def _try_backend(self, slot, form, lb, ub, errors) -> "Optional[LPResult]":
        """Run one backend with retries; None means move down the chain."""
        delay = BACKOFF_S
        attempts = MAX_RETRIES + 1
        for attempt in range(attempts):
            slot.calls += 1
            try:
                result = slot.fn(form, lb, ub)
            except TransientSolverError as exc:
                self._log(slot.name, "transient", str(exc))
                errors.append(f"{slot.name}: transient: {exc}")
                if attempt + 1 < attempts:
                    self.retries += 1
                    self._sleep(delay)
                    delay = min(delay * BACKOFF_FACTOR, MAX_BACKOFF_S)
                    continue
                self._mark_failure(slot)
                return None
            except SolverError as exc:
                # Non-transient: retrying the same backend is pointless.
                self._log(slot.name, "fault", str(exc))
                errors.append(f"{slot.name}: {exc}")
                self._mark_failure(slot)
                return None
            reason = validate_lp_result(result, form, lb, ub)
            if reason is None:
                slot.consecutive_failures = 0
                return result
            self.validation_failures += 1
            self._log(slot.name, "validation", reason)
            errors.append(f"{slot.name}: validation: {reason}")
            if attempt + 1 < attempts:
                self.retries += 1
                self._sleep(delay)
                delay = min(delay * BACKOFF_FACTOR, MAX_BACKOFF_S)
                continue
        self._mark_failure(slot)
        return None

    def _confirm_infeasible(
        self, verdict, slot, rest, form, lb, ub
    ) -> "Optional[LPResult]":
        """Second-opinion an INFEASIBLE verdict with the next backend.

        A confirming INFEASIBLE keeps the verdict; a *validated*
        solution from the second backend overrules it — the first
        backend's verdict was spurious, which counts as a failure
        against its quarantine budget.  When no live backend follows
        (a one-slot chain, or the verdict came from the last slot), the
        same backend is asked again: a fault injector draws a fresh
        decision for the new call.  None means no backend gave a
        usable opinion, and the caller moves down the chain instead of
        believing the verdict.
        """
        for other in rest or [slot]:
            other.calls += 1
            try:
                second = other.fn(form, lb, ub)
            except SolverError as exc:
                self._log(other.name, "fault",
                          f"during infeasible double-check: {exc}")
                continue
            if second.status is SolveStatus.INFEASIBLE:
                slot.consecutive_failures = 0
                return verdict
            reason = validate_lp_result(second, form, lb, ub)
            if second.status is SolveStatus.OPTIMAL and reason is None:
                self.infeasible_overruled += 1
                self._log(slot.name, "spurious-infeasible",
                          f"overruled by {other.name}")
                self._mark_failure(slot)
                return second
        return None

    # ------------------------------------------------------------------

    def kernel_telemetry(self) -> "Optional[Dict[str, object]]":
        """Kernel counters of the first chain member exposing them.

        The incremental LP kernel (:mod:`repro.ilp.incremental`) heads
        the partitioner's chain whenever the HiGHS binding loads; this
        passthrough lets the branch and bound surface its warm-start
        counters in ``solve.kernel`` even when the kernel is wrapped by
        the chain — or by a chaos injector (whose ``inner`` attribute is
        followed).  Returns None when no chain member is kernel-aware.
        """
        for slot in self._slots:
            for candidate in (slot.fn, getattr(slot.fn, "inner", None)):
                telemetry = getattr(candidate, "kernel_telemetry", None)
                if callable(telemetry):
                    return telemetry()
        return None

    def resilience_telemetry(self) -> "Dict[str, object]":
        """Structured counters + fault log for ``solve.resilience``."""
        injector = None
        for slot in self._slots:
            telemetry = getattr(slot.fn, "telemetry", None)
            if callable(telemetry):
                injector = telemetry()
                break
        return {
            "calls": self.calls,
            "retries": self.retries,
            "fallbacks": self.fallbacks,
            "validation_failures": self.validation_failures,
            "quarantines": self.quarantines,
            "infeasible_overruled": self.infeasible_overruled,
            "backends": [slot.as_dict() for slot in self._slots],
            "faults": list(self.fault_log),
            "injector": injector,
        }
