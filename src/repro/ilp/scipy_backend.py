"""LP relaxation solves: one cold HiGHS call per node.

This is the stateless backend of branch and bound: plain search calls
it on every node, and the partitioner's resilient chain puts it right
behind the warm incremental kernel (:mod:`repro.ilp.incremental`), so a
node the kernel faults on lands here.  Each call takes the
per-node variable-bound overrides (the branching decisions) and solves
the form's HiGHS model on a fresh ``Highs`` object of SciPy's vendored
binding (:func:`repro.ilp.highs.load_highs`), the library
``linprog(method="highs")`` itself calls, with the options ``linprog``
sets.  The model (:func:`repro.ilp.highs.build_lp`)
is built once per :class:`~repro.ilp.standard_form.StandardForm` and
cached on it, so a node pays for the bounds, the hand-over and the
solve, not for ``linprog``'s input cleaning and matrix re-stacking.
Every node lands on ``linprog``'s vertex bit for bit, and the checks
``linprog`` made stay: contradictory bounds short-circuit to
INFEASIBLE, an optimal point outside its bounds or rows by more than
:data:`~repro.ilp.highs.CHECK_TOL` is numerical trouble, and HiGHS
statuses map to outcomes as ``linprog`` maps them.

When the vendored binding is missing or fails its version guard, each
call goes through ``linprog`` instead: the only LP path on SciPy
releases without that private module.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
from scipy.optimize import linprog

from repro.errors import SolverError, TransientSolverError
from repro.ilp.highs import build_lp, load_highs, read_optimal
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
    OPTIMAL results carry the row duals ``dual_ub`` / ``dual_eq``.
    """
    lb = form.lb if lb_override is None else lb_override
    ub = form.ub if ub_override is None else ub_override
    if np.any(lb > ub + 1e-12):
        # A branching fixation contradicts the bounds: trivially infeasible,
        # no need to call the solver.
        return LPResult(status=SolveStatus.INFEASIBLE)
    highspy = load_highs()
    if highspy is None:
        return _solve_linprog(form, lb, ub)
    return _solve_cold(highspy, form, lb, ub)


def _solve_cold(highspy, form: StandardForm, lb, ub) -> LPResult:
    """One fresh ``Highs`` object on the form's cached model."""
    lp = form.__dict__.get("_highs_lp")
    if lp is None:
        lp = build_lp(highspy, form)
        # Frozen dataclass: cached like ``bounds_pairs``'s buffer.
        object.__setattr__(form, "_highs_lp", lp)
    lp.col_lower_ = lb
    lp.col_upper_ = ub
    h = highspy.Highs()
    # What linprog(method="highs") sets: quiet, presolve, dual simplex.
    h.setOptionValue("output_flag", False)
    h.setOptionValue("presolve", "on")
    h.setOptionValue("simplex_strategy", 1)
    error = highspy.HighsStatus.kError
    if h.passModel(lp) == error:
        model_status = highspy.HighsModelStatus.kModelError
    elif h.run() == error:
        model_status = h.getModelStatus()
    else:
        model_status = h.getModelStatus()
        if model_status == highspy.HighsModelStatus.kOptimal:
            return read_optimal(h, form, (lb, ub))
    return _status_outcome(highspy, model_status)


def _status_outcome(highspy, model_status) -> LPResult:
    """A non-OPTIMAL HiGHS model status as ``linprog`` maps it.

    An OPTIMAL status reaching here came from a failed ``run`` with no
    solution to read, which ``linprog`` reports as numerical trouble.
    """
    status = highspy.HighsModelStatus
    if model_status in (status.kInfeasible, status.kModelError):
        return LPResult(status=SolveStatus.INFEASIBLE)
    if model_status == status.kUnbounded:
        return LPResult(status=SolveStatus.UNBOUNDED)
    # Time/iteration-limit expiry (raw 1) and numerical trouble (raw 4)
    # are transient fault classes: a retry, possibly after a fallback,
    # can legitimately succeed.
    limits = (status.kTimeLimit, status.kIterationLimit)
    raise TransientSolverError(
        f"HiGHS failed with model status {model_status}",
        backend="scipy-highs",
        raw_status=1 if model_status in limits else 4,
    )


def _solve_linprog(form: StandardForm, lb, ub) -> LPResult:
    """The node through ``linprog``, used when no vendored binding loads.

    Bounds go to ``linprog`` as the form's preallocated ``(n, 2)``
    array (:meth:`~repro.ilp.standard_form.StandardForm.bounds_pairs`).
    """
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
