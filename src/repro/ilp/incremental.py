"""Warm-started incremental LP kernel for the branch-and-bound hot loop.

Branch-and-bound nodes are thousands of *near-identical* LPs: the same
matrices with only variable-bound changes.  The stateless per-node
path (:mod:`repro.ilp.scipy_backend`) builds its HiGHS model once per
form too, but hands it to a fresh ``Highs`` object on every node, so
each solve starts cold.  This module keeps one object per form
instead:

* **Persistent model** — :class:`IncrementalLPSolver` binds to one
  compiled :class:`~repro.ilp.standard_form.StandardForm` and keeps
  every derived buffer alive across calls.  The HiGHS model is built
  *once* and each node mutates column bounds only, so HiGHS's dual
  simplex warm-starts from the parent basis (the classic B&B re-solve
  trick).  The model comes from the builder both paths share
  (:func:`repro.ilp.highs.build_lp`), on the one binding both load
  (:func:`repro.ilp.highs.load_highs`).
* **Array-backed results** — values come back as a
  :class:`~repro.ilp.solution.ValueVector` over the solver's own
  vector (no per-node ``{idx: float}`` allocation), and OPTIMAL
  results carry the row duals (``dual_ub`` / ``dual_eq``) so branch
  and bound can emit proof-log certificates.

The kernel has no fallback of its own.  Binding a form without a
usable binding raises :class:`~repro.errors.SolverError` with the
probe's reason, and any other exception out of the binding drops the
faulted ``Highs`` object (the next call rebuilds it) and is re-raised
as :class:`~repro.errors.SolverError`.  The kernel is a drop-in LP
backend (same ``(form, lb_override, ub_override) -> LPResult``
contract), and the partitioner's
:class:`~repro.ilp.resilience.ResilientLPBackend` chain starts with
it: a kernel fault falls through to the cold path there, and a kernel
that keeps failing is quarantined.
:meth:`kernel_telemetry` reports the kernel name, call counts and
warm-start hits for the ``repro.solve_telemetry/v12`` artifact.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SolverError, TransientSolverError
from repro.ilp.highs import (
    build_lp,
    highs_unavailable_reason,
    load_highs,
    read_optimal,
)
from repro.ilp.solution import LPResult, SolveStatus
from repro.ilp.standard_form import StandardForm


class IncrementalLPSolver:
    """Persistent-model, warm-started LP relaxation solver.

    Parameters
    ----------
    form:
        Standard form to bind to immediately; when omitted, the kernel
        binds lazily on the first call (and transparently re-binds if a
        different form is ever passed — each bind resets the model and
        its basis).  Binding raises
        :class:`~repro.errors.SolverError` when no HiGHS binding passes
        the version guard or the model build fails.
    """

    #: Telemetry name of the one engine the kernel runs.
    kernel_name = "incremental-highs"

    def __init__(self, form: "Optional[StandardForm]" = None) -> None:
        self._form: "Optional[StandardForm]" = None
        self._highs = None
        self._highs_cols: "Optional[np.ndarray]" = None
        self._have_basis = False
        # Telemetry counters.
        self.calls = 0
        self.lp_solves = 0
        self.warm_start_hits = 0
        self.rebinds = 0
        if form is not None:
            self._bind(form)

    # ------------------------------------------------------------------

    @property
    def form(self) -> "Optional[StandardForm]":
        return self._form

    def _bind(self, form: StandardForm) -> None:
        """(Re)compile per-form state; called once per model in practice.

        Passes ``form``'s :func:`~repro.ilp.highs.build_lp` model to a
        persistent ``Highs`` object.  The simplex solver is pinned so
        every re-solve after a bounds mutation warm-starts from the
        retained basis.
        """
        self._form = form
        self._highs = None
        self._have_basis = False
        self.rebinds += 1
        binding = load_highs()
        if binding is None:
            raise SolverError(highs_unavailable_reason())
        try:
            h = binding.Highs()
            h.setOptionValue("output_flag", False)
            # Warm starting needs a basis; keep HiGHS on (dual) simplex.
            h.setOptionValue("solver", "simplex")
            status = h.passModel(build_lp(binding, form))
        except Exception as exc:
            raise SolverError(f"HiGHS model build failed: {exc}") from exc
        if status != binding.HighsStatus.kOk:
            raise SolverError(f"HiGHS passModel returned {status}")
        self._highs = h
        self._highs_cols = np.arange(form.num_vars, dtype=np.int32)

    # ------------------------------------------------------------------

    def __call__(
        self,
        form: StandardForm,
        lb_override: "Optional[np.ndarray]" = None,
        ub_override: "Optional[np.ndarray]" = None,
    ) -> LPResult:
        """Solve the LP relaxation of ``form`` with bound overrides.

        Same contract as the stateless cold path
        (:mod:`repro.ilp.scipy_backend`): integrality is ignored; the
        overrides carry the branching fixings.
        """
        if form is not self._form or self._highs is None:
            self._bind(form)
        self.calls += 1
        lb = form.lb if lb_override is None else lb_override
        ub = form.ub if ub_override is None else ub_override
        if np.any(lb > ub + 1e-12):
            # Contradictory fixation: provably infeasible, no LP needed.
            return LPResult(status=SolveStatus.INFEASIBLE)
        self.lp_solves += 1
        try:
            return self._solve_highs(lb, ub)
        except SolverError:
            raise
        except Exception as exc:
            # A binding-level surprise: drop the object so the next call
            # rebuilds it, and let the resilient chain handle the node.
            self._highs = None
            self._have_basis = False
            raise SolverError(f"HiGHS solve failed: {exc}") from exc

    def _solve_highs(self, lb, ub) -> LPResult:
        """Mutate column bounds on the persistent model and re-run.

        HiGHS retains the previous optimal basis on the model, so the
        dual simplex re-solve after a bounds-only change warm-starts
        from the parent node's basis.
        """
        binding = load_highs()
        h = self._highs
        n = int(self._highs_cols.shape[0])
        h.changeColsBounds(
            n,
            self._highs_cols,
            np.asarray(lb, dtype=float),
            np.asarray(ub, dtype=float),
        )
        if self._have_basis:
            self.warm_start_hits += 1
        run_status = h.run()
        if run_status != binding.HighsStatus.kOk:
            self._have_basis = False
            raise TransientSolverError(
                f"HiGHS run returned {run_status}",
                backend=self.kernel_name,
                raw_status=-1,
            )
        model_status = h.getModelStatus()
        if model_status == binding.HighsModelStatus.kOptimal:
            self._have_basis = True
            # Row duals come back stacked in stack_rows order
            # (inequalities first, then equalities); the reader splits
            # them into the (dual_ub, dual_eq) contract of the cold path.
            return read_optimal(h, self._form)
        if model_status == binding.HighsModelStatus.kInfeasible:
            self._have_basis = True
            return LPResult(status=SolveStatus.INFEASIBLE)
        if model_status == binding.HighsModelStatus.kUnbounded:
            self._have_basis = True
            return LPResult(status=SolveStatus.UNBOUNDED)
        self._have_basis = False
        raise TransientSolverError(
            f"HiGHS model status {model_status}",
            backend=self.kernel_name,
            raw_status=-1,
        )

    # ------------------------------------------------------------------

    def kernel_telemetry(self) -> "Dict[str, object]":
        """Counters for the ``solve.kernel`` telemetry block (v12)."""
        return {
            "name": self.kernel_name,
            "calls": self.calls,
            "lp_solves": self.lp_solves,
            "warm_start_hits": self.warm_start_hits,
            "rebinds": self.rebinds,
        }
