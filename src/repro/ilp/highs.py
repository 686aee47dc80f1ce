"""SciPy's vendored HiGHS binding, one model per standard form, and
one way to read an optimum back.

Both LP paths that talk to HiGHS go through here:

* the warm incremental kernel (:mod:`repro.ilp.incremental`) passes the
  model to one persistent ``Highs`` object and re-solves it after each
  node's bound changes;
* the cold per-node call of
  :func:`~repro.ilp.scipy_backend.solve_lp_scipy` passes the same model,
  built once per form, to a fresh ``Highs`` object on every node.

Both solve through one binding, :func:`load_highs`: the copy SciPy
vendors as ``scipy.optimize._highspy._core``, the library
``linprog(method="highs")`` itself calls, so no new dependency is
needed and a cold solve lands on ``linprog``'s vertex bit for bit.  A
version guard checks every name and ``Highs`` method the two paths
call; a copy that fails it counts as missing.

The model is ``row_lower <= A x <= row_upper`` over the rowwise stack
of ``a_ub`` on top of ``a_eq``: inequalities get ``(-inf, b_ub]``,
equalities ``[b_eq, b_eq]``.  :func:`read_optimal` splits the stacked
row duals back into the ``(dual_ub, dual_eq)`` contract of
:class:`~repro.ilp.solution.LPResult`.  Every model function takes the
binding as an argument.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional, Tuple

import numpy as np

from repro.errors import TransientSolverError
from repro.ilp.solution import LPResult, SolveStatus, ValueVector
from repro.ilp.standard_form import StandardForm

#: Post-solve feasibility tolerance of ``linprog``'s ``_check_result``:
#: ``sqrt(tol) * 10`` at its default ``tol = 1e-9``.
CHECK_TOL = float(np.sqrt(1e-9) * 10)

#: Module-level names the LP paths take from the binding ...
_REQUIRED_NAMES = (
    "Highs", "HighsLp", "MatrixFormat", "HighsStatus", "HighsModelStatus",
)
#: ... and every ``Highs`` method they call.
_REQUIRED_METHODS = (
    "setOptionValue", "passModel", "changeColsBounds", "run",
    "getSolution", "getModelStatus", "getInfo",
)

#: ``(binding or None, reason it is None)`` once probed; None before.
_binding: "Optional[Tuple[object, Optional[str]]]" = None


def _vendored_highs():
    """SciPy's bundled HiGHS bindings, under the ``highspy`` names."""
    from scipy.optimize._highspy import _core  # noqa: PLC0415

    return SimpleNamespace(
        Highs=_core._Highs,
        HighsLp=_core.HighsLp,
        MatrixFormat=_core.MatrixFormat,
        HighsStatus=_core.HighsStatus,
        HighsModelStatus=_core.HighsModelStatus,
    )


def _missing_api(module) -> "Optional[str]":
    """The first required name ``module`` lacks, or None if complete."""
    for name in _REQUIRED_NAMES:
        if not hasattr(module, name):
            return name
    for name in _REQUIRED_METHODS:
        if not hasattr(module.Highs, name):
            return f"Highs.{name}"
    return None


def _probe() -> "Tuple[object, Optional[str]]":
    source = "scipy.optimize._highspy"
    try:
        module = _vendored_highs()
    except Exception as exc:
        return None, f"no usable HiGHS binding ({source}: {exc})"
    missing = _missing_api(module)
    if missing is not None:
        return None, f"no usable HiGHS binding ({source} lacks {missing})"
    return module, None


def load_highs():
    """SciPy's vendored HiGHS binding, or None when it fails the guard.

    Probed once per process.  A SciPy release without the private
    module, or with one missing any name the LP paths call, yields
    None: the cold path then calls ``linprog`` and the partitioner's
    chain leaves the warm kernel out.  :func:`highs_unavailable_reason`
    says why.
    """
    global _binding
    if _binding is None:
        _binding = _probe()
    return _binding[0]


def highs_unavailable_reason() -> "Optional[str]":
    """Why :func:`load_highs` returns None; None when it loads."""
    load_highs()
    return _binding[1]


def have_highspy() -> bool:
    """Whether the vendored HiGHS binding loads and passes the guard."""
    return load_highs() is not None


def stack_rows(form: StandardForm):
    """Stack a_ub / a_eq into one rowwise CSR triple plus row bounds."""
    from scipy import sparse

    blocks = []
    if form.a_ub.shape[0]:
        blocks.append(form.a_ub)
    if form.a_eq.shape[0]:
        blocks.append(form.a_eq)
    if blocks:
        stacked = sparse.vstack(blocks, format="csr")
        indptr = np.asarray(stacked.indptr, dtype=np.int32)
        indices = np.asarray(stacked.indices, dtype=np.int32)
        data = np.asarray(stacked.data, dtype=float)
    else:
        indptr = np.zeros(1, dtype=np.int32)
        indices = np.zeros(0, dtype=np.int32)
        data = np.zeros(0, dtype=float)
    m_ub = form.a_ub.shape[0]
    m_eq = form.a_eq.shape[0]
    row_lower = np.concatenate(
        [np.full(m_ub, -np.inf), np.asarray(form.b_eq, dtype=float)]
    )
    row_upper = np.concatenate(
        [np.asarray(form.b_ub, dtype=float), np.asarray(form.b_eq, dtype=float)]
    )
    return indptr, indices, data, row_lower, row_upper


def build_lp(highspy, form: StandardForm):
    """``form`` as a ``HighsLp`` of ``highspy``, column bounds ``lb``/``ub``."""
    indptr, indices, data, row_lower, row_upper = stack_rows(form)
    lp = highspy.HighsLp()
    lp.num_col_ = form.num_vars
    lp.num_row_ = int(row_lower.shape[0])
    lp.col_cost_ = np.asarray(form.c, dtype=float)
    lp.col_lower_ = np.asarray(form.lb, dtype=float)
    lp.col_upper_ = np.asarray(form.ub, dtype=float)
    lp.row_lower_ = row_lower
    lp.row_upper_ = row_upper
    lp.a_matrix_.format_ = highspy.MatrixFormat.kRowwise
    lp.a_matrix_.start_ = indptr
    lp.a_matrix_.index_ = indices
    lp.a_matrix_.value_ = data
    return lp


def read_optimal(
    h,
    form: StandardForm,
    bounds: "Optional[Tuple[np.ndarray, np.ndarray]]" = None,
) -> LPResult:
    """The OPTIMAL :class:`LPResult` of a ``Highs`` object that just solved ``form``.

    With ``bounds = (lb, ub)``, the column bounds of the solve, the
    point is first checked the way ``linprog`` checks it: no NaN, every
    column and row within :data:`CHECK_TOL` of its bounds.  A point
    that fails raises :class:`TransientSolverError` with raw status 4,
    ``linprog``'s "numerical trouble".

    A block's duals are None when HiGHS returns the wrong number or a
    non-finite one, as with ``linprog``'s marginals; an empty block
    gives an empty vector.
    """
    solution = h.getSolution()
    objective = h.getInfo().objective_function_value
    x = np.array(solution.col_value, dtype=float)
    m_ub = int(form.b_ub.shape[0])
    if bounds is not None:
        _check_point(form, bounds, x, objective, solution.row_value, m_ub)
    dual_ub = dual_eq = None
    row_dual = getattr(solution, "row_dual", None)
    if row_dual is not None:
        stacked = np.array(row_dual, dtype=float)
        if stacked.shape[0] == m_ub + int(form.b_eq.shape[0]):
            dual_ub = _finite_or_none(stacked[:m_ub])
            dual_eq = _finite_or_none(stacked[m_ub:])
    return LPResult(
        status=SolveStatus.OPTIMAL,
        objective=float(objective),
        values=ValueVector(x),
        dual_ub=dual_ub,
        dual_eq=dual_eq,
    )


def _finite_or_none(vector: np.ndarray) -> "Optional[np.ndarray]":
    return vector if np.all(np.isfinite(vector)) else None


def _check_point(form, bounds, x, objective, row_value, m_ub) -> None:
    """``linprog``'s ``_check_result`` for an optimal point, or raise."""
    lb, ub = bounds
    rhs = np.concatenate((form.b_ub, form.b_eq))
    residual = rhs - np.asarray(row_value, dtype=float)
    if (
        np.isnan(x).any()
        or np.isnan(objective)
        or np.isnan(residual).any()
    ):
        feasible = False
    else:
        feasible = (
            bool(np.all((x >= lb - CHECK_TOL) & (x <= ub + CHECK_TOL)))
            and not (residual[:m_ub] < -CHECK_TOL).any()
            and not (np.abs(residual[m_ub:]) > CHECK_TOL).any()
        )
    if not feasible:
        raise TransientSolverError(
            "HiGHS reported optimal, but the point misses its bounds or "
            f"rows by more than {CHECK_TOL:.2E}",
            backend="scipy-highs",
            raw_status=4,
        )
