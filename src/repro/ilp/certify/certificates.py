"""Farkas-certificate extraction for infeasible branch-and-bound nodes.

SciPy's HiGHS interface reports *no* dual information on an infeasible
LP (``marginals`` come back ``None``), so the proof logger cannot read
an infeasibility certificate off the node solve itself.  Instead we
solve a **phase-1 elastic relaxation** over the node's bounds box::

    min  sum(s_ub) + sum(s_plus) + sum(s_minus)
    s.t. A_ub x - s_ub           <= b_ub
         A_eq x + s_plus - s_minus == b_eq
         l <= x <= u,   s >= 0

Its optimum is zero iff the node is feasible.  When it is positive,
the LP duals on the two row blocks are Farkas multipliers for the
original system: with ``y_ub <= 0``, ``y_eq`` free, the exact bound
``y_ub'b_ub + y_eq'b_eq + sum_j min(r_j l_j, r_j u_j) > 0`` (where
``r = -A_ub'y_ub - A_eq'y_eq``) proves no ``x`` in the box satisfies
the constraints.  The caller (:class:`~repro.ilp.certify.proof.
ProofWriter`) re-validates that inequality in exact rational arithmetic
before anything reaches the log, so this module only needs to produce
*candidate* multipliers — a numerically sloppy certificate degrades to
a forfeit, never to a wrong proof.

This module imports SciPy and lives strictly on the logger side; the
independent checker never touches it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.ilp.scipy_backend import _row_marginals
from repro.ilp.standard_form import StandardForm

#: Phase-1 optima below this are treated as "actually feasible" —
#: no certificate is extractable (the node prune becomes a forfeit).
_PHASE1_TOL = 1e-9


def extract_farkas(
    form: StandardForm,
    lb: np.ndarray,
    ub: np.ndarray,
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """Candidate Farkas multipliers ``(y_ub, y_eq)`` for a node box.

    Returns None when the elastic LP cannot produce usable duals
    (solved to zero infeasibility, solver failure, missing marginals).
    Never raises: certificate extraction is best-effort by design.
    """
    n = form.num_vars
    m_ub = int(form.b_ub.shape[0])
    m_eq = int(form.b_eq.shape[0])
    n_slack = m_ub + 2 * m_eq

    cost = np.concatenate([np.zeros(n), np.ones(n_slack)])

    blocks_ub = [form.a_ub.tocsr()]
    if m_ub:
        blocks_ub.append(-sparse.eye(m_ub, format="csr"))
    if m_eq:
        blocks_ub.append(sparse.csr_matrix((m_ub, 2 * m_eq)))
    a_ub = sparse.hstack(blocks_ub, format="csr") if m_ub else None

    a_eq = None
    if m_eq:
        blocks_eq = [form.a_eq.tocsr()]
        if m_ub:
            blocks_eq.append(sparse.csr_matrix((m_eq, m_ub)))
        blocks_eq.append(sparse.eye(m_eq, format="csr"))
        blocks_eq.append(-sparse.eye(m_eq, format="csr"))
        a_eq = sparse.hstack(blocks_eq, format="csr")

    bounds = np.empty((n + n_slack, 2))
    bounds[:n, 0] = lb
    bounds[:n, 1] = ub
    bounds[n:, 0] = 0.0
    bounds[n:, 1] = np.inf

    try:
        result = linprog(
            cost,
            A_ub=a_ub,
            b_ub=form.b_ub if m_ub else None,
            A_eq=a_eq,
            b_eq=form.b_eq if m_eq else None,
            bounds=bounds,
            method="highs",
        )
    except (ValueError, TypeError):
        return None
    if not result.success or result.fun is None:
        return None
    if result.fun <= _PHASE1_TOL:
        return None

    y_ub = _row_marginals(result, "ineqlin", m_ub)
    y_eq = _row_marginals(result, "eqlin", m_eq)
    if y_ub is None or y_eq is None:
        return None
    return y_ub, y_eq
