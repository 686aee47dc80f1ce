"""LP relaxation solves via SciPy's HiGHS ``linprog``.

This is the workhorse backend used inside branch and bound: one call
per node, with per-node variable-bound overrides (the branching
decisions).  The model matrices are compiled once into a
:class:`~repro.ilp.standard_form.StandardForm` and reused.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError, TransientSolverError
from repro.ilp.solution import LPResult, SolveStatus, ValueVector
from repro.ilp.standard_form import StandardForm


def _row_marginals(result, block: str, m: int) -> "Optional[np.ndarray]":
    """Row duals of one constraint block, zero-filled when it is empty.

    ``linprog`` omits the block (or its marginals) when no rows were
    passed; proof logging still wants a well-shaped vector so the
    certificate side never has to special-case empty systems.
    """
    if m == 0:
        return np.zeros(0)
    entry = getattr(result, block, None)
    marginals = getattr(entry, "marginals", None) if entry is not None else None
    if marginals is None:
        return None
    vector = np.asarray(marginals, dtype=float)
    if vector.shape[0] != m or not np.all(np.isfinite(vector)):
        return None
    return vector


def solve_lp_scipy(
    form: StandardForm,
    lb_override: "Optional[np.ndarray]" = None,
    ub_override: "Optional[np.ndarray]" = None,
) -> LPResult:
    """Solve the LP relaxation of ``form`` with optional bound overrides.

    Integrality is ignored (that is the point of a relaxation); the
    overrides carry the branch-and-bound fixings.  Returns an
    :class:`~repro.ilp.solution.LPResult` whose values mapping is keyed
    by variable index (an array-backed
    :class:`~repro.ilp.solution.ValueVector` — no per-node dict build).
    Bounds go to ``linprog`` as the form's preallocated ``(n, 2)``
    array (:meth:`~repro.ilp.standard_form.StandardForm.bounds_pairs`),
    reused across nodes instead of a fresh per-call list of pairs.
    """
    lb = form.lb if lb_override is None else lb_override
    ub = form.ub if ub_override is None else ub_override
    if np.any(lb > ub + 1e-12):
        # A branching fixation contradicts the bounds: trivially infeasible,
        # no need to call the solver.
        return LPResult(status=SolveStatus.INFEASIBLE)

    result = linprog(
        c=form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=form.b_ub if form.b_ub.shape[0] else None,
        A_eq=form.a_eq if form.a_eq.shape[0] else None,
        b_eq=form.b_eq if form.b_eq.shape[0] else None,
        bounds=form.bounds_pairs(lb, ub),
        method="highs",
    )
    # HiGHS status codes: 0 optimal, 1 iteration limit, 2 infeasible,
    # 3 unbounded, 4 numerical trouble.
    if result.status == 0:
        dual_ub = _row_marginals(result, "ineqlin", form.b_ub.shape[0])
        dual_eq = _row_marginals(result, "eqlin", form.b_eq.shape[0])
        return LPResult(
            status=SolveStatus.OPTIMAL,
            objective=float(result.fun),
            values=ValueVector(result.x),
            dual_ub=dual_ub,
            dual_eq=dual_eq,
        )
    if result.status == 2:
        return LPResult(status=SolveStatus.INFEASIBLE)
    if result.status == 3:
        return LPResult(status=SolveStatus.UNBOUNDED)
    if result.status in (1, 4):
        # Iteration-limit expiry and numerical trouble are transient
        # fault classes: a retry (possibly after a fallback) can
        # legitimately succeed, so the resilience layer must be able to
        # tell them apart from structural misuse.
        raise TransientSolverError(
            f"linprog failed with status {result.status}: {result.message}",
            backend="scipy-highs",
            raw_status=int(result.status),
        )
    raise SolverError(
        f"linprog failed with status {result.status}: {result.message}"
    )
