"""Exact certificates for one LP answer: the test suite's second LP.

:func:`certify_lp` checks an LP backend's answer on a node box with the
proof checker's rational arithmetic (:mod:`repro.ilp.certify.checker`)
instead of a second floating-point solver, so the reference shares no
rounding with HiGHS and works at any size:

* OPTIMAL: the result's own row duals, lifted exactly, must give a
  weak-duality bound on the box that reaches the reported objective
  within ``1e-6 * (1 + |objective|)``, and the point must pass
  :func:`~repro.ilp.resilience.validate_lp_result` on the box.  Dual
  bound and primal point together pin the optimum from both sides.
* INFEASIBLE: either the box itself is empty, or a phase-1 Farkas
  certificate (:func:`~repro.ilp.certify.certificates.extract_farkas`)
  must give an exact bound strictly above zero.

The exact point check :func:`~repro.ilp.certify.checker.verify_point`
is not used: it checks the root bounds and integrality, not the node
box, and costs several times more than the dual bound.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.ilp.certify.certificates import extract_farkas
from repro.ilp.certify.checker import FEAS_TOL, ExactForm, dual_bound
from repro.ilp.certify.proof import form_to_json
from repro.ilp.resilience import validate_lp_result
from repro.ilp.solution import SolveStatus

#: The last form certified and its exact lift: callers certify the
#: LPs of one form in a row, so one entry builds each lift once.
_LAST = [None, None]


def _exact(form):
    if _LAST[0] is not form:
        _LAST[:] = [form, ExactForm.from_header(form_to_json(form))]
    return _LAST[1]


def _exact_box(values):
    return [Fraction(float(v)) if math.isfinite(v) else None for v in values]


def _exact_duals(vector):
    return {i: Fraction(float(v)) for i, v in enumerate(vector) if v}


def certify_lp(form, lb, ub, result):
    """Assert that ``result`` is a certified answer of ``form`` on the
    box ``[lb, ub]``; raises ``AssertionError`` with the reason."""
    lb = np.asarray(form.lb if lb is None else lb, dtype=float)
    ub = np.asarray(form.ub if ub is None else ub, dtype=float)
    exact = _exact(form)
    box_lb, box_ub = _exact_box(lb), _exact_box(ub)
    if result.status is SolveStatus.OPTIMAL:
        reason = validate_lp_result(result, form, lb, ub)
        assert reason is None, f"OPTIMAL point rejected: {reason}"
        assert result.dual_ub is not None and result.dual_eq is not None, (
            "OPTIMAL result carries no duals"
        )
        bound = dual_bound(
            exact, exact.c, _exact_duals(result.dual_ub),
            _exact_duals(result.dual_eq), box_lb, box_ub,
        )
        objective = result.objective
        assert bound is not None, "dual bound is -inf on the box"
        target = Fraction(objective)
        assert bound >= target - FEAS_TOL * (1 + abs(target)), (
            f"dual bound {float(bound)!r} falls short of {objective!r}"
        )
        return
    assert result.status is SolveStatus.INFEASIBLE, (
        f"no certificate for status {result.status}"
    )
    if any(
        lo is not None and hi is not None and lo > hi
        for lo, hi in zip(box_lb, box_ub)
    ):
        return  # an empty box holds no point
    farkas = extract_farkas(form, lb, ub)
    assert farkas is not None, "no Farkas certificate for INFEASIBLE"
    gap = dual_bound(
        exact, None, _exact_duals(farkas[0]), _exact_duals(farkas[1]),
        box_lb, box_ub,
    )
    assert gap is not None and gap > 0, (
        f"Farkas bound {gap} does not prove the box empty"
    )
