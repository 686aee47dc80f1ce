"""Compact exact leaf solver for branch-and-bound y-leaves.

Once branch and bound has bound-fixed every ``y[t,p]``, the remaining
question — *does a feasible synthesis exist for this assignment?* — no
longer needs the full formulation: the communication objective and the
memory constraints are functions of ``y`` alone (checked arithmetically
here), and the scheduling residue can be encoded far more compactly
than eqs 12-13:

* ``x[i,j,k]`` as in the main model (eq 6, eq 7, aggregated eq 8);
* explicit *step-ownership* binaries ``s[j,p]`` with
  ``sum_p s[j,p] <= 1`` and ``sum_k x[i,j,k] <= s[j,partition(i)]`` —
  the exact meaning eq 13 approximates with 4-literal clauses;
* ``u[p,k] >= sum_j x[i,j,k]`` per (operation, instance) pair (valid
  and tight because eq 6 caps the sum at 1), feeding eq 11.

The model is a feasibility MILP (zero objective) roughly a third the
size of the full model with a much tighter LP relaxation, so HiGHS
decides typical leaves in tens of milliseconds — which is what makes
the in-repo branch and bound competitive on the paper's Table-4 rows.

:class:`LeafArrays` writes the MILP's CSR arrays directly rather than
through ``Model``/``lin_sum`` and ``compile_standard_form``: the rows
that do not depend on the assignment (eq 6, 7, 8) once per solve, the
rest per call.  Its arrays equal the ``Model``-built form entry for
entry, in the same order, so HiGHS sees the same problem either way;
the closure builds it on first use and keeps it as long as it lives.

On success the solver reports the objective (communication cost of the
assignment) and a *complete* variable valuation of the main model —
fundamental variables from the leaf solution, secondary variables
recomputed from their definitions — so decode and feasibility checking
work unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

import numpy as np
from scipy import sparse

from repro.ilp.milp_backend import solve_milp_scipy
from repro.ilp.solution import SolveStatus
from repro.ilp.standard_form import StandardForm
from repro.core.spec import ProblemSpec
from repro.core.variables import VariableSpace


def make_leaf_solver(
    spec: ProblemSpec, space: VariableSpace
) -> "Callable[[np.ndarray, np.ndarray, float], Tuple[str, Optional[Tuple[float, Dict[int, float]]]]]":
    """Build the leaf-solver closure for one formulation instance.

    The returned callable takes the node's bound arrays plus a time
    budget and returns ``("optimal", (objective, full_values))``,
    ``("infeasible", None)`` or ``("timeout", None)``.
    """
    arrays: "Optional[LeafArrays]" = None

    def solver(lb: "np.ndarray", ub: "np.ndarray", budget: float):
        nonlocal arrays
        assignment = _read_assignment(spec, space, lb, ub)
        if assignment is None:
            return "infeasible", None
        if not _order_and_memory_ok(spec, assignment):
            return "infeasible", None

        if arrays is None:
            arrays = LeafArrays(spec)
        result = solve_milp_scipy(arrays.form(assignment), time_limit_s=budget)
        if result.status is SolveStatus.INFEASIBLE:
            return "infeasible", None
        if result.status is not SolveStatus.OPTIMAL:
            return "timeout", None

        placements = {
            op_id: (j, k)
            for col, (op_id, j, k) in enumerate(arrays.x_keys)
            if result.values[col] > 0.5
        }
        objective = float(_communication(spec, assignment))
        values = _full_values(spec, space, assignment, placements)
        return "optimal", (objective, values)

    return solver


def _read_assignment(spec, space, lb, ub) -> "Optional[Dict[str, int]]":
    """Extract the bound-fixed assignment; None if contradictory."""
    assignment: "Dict[str, int]" = {}
    for task in spec.task_order:
        chosen = None
        for p in spec.partitions:
            idx = space.y[(task, p)].index
            if lb[idx] >= 1.0:
                if chosen is not None:
                    return None
                chosen = p
        if chosen is None:
            # All fixed to 0 (or unfixed, which the caller excludes).
            return None
        assignment[task] = chosen
    return assignment


def _order_and_memory_ok(spec, assignment) -> bool:
    for (t1, t2) in spec.task_edges:
        if assignment[t1] > assignment[t2]:
            return False
    for cut in range(2, spec.n_partitions + 1):
        traffic = sum(
            spec.graph.bandwidth(t1, t2)
            for (t1, t2) in spec.task_edges
            if assignment[t1] < cut <= assignment[t2]
        )
        if not spec.memory.admits(traffic):
            return False
    return True


def _communication(spec, assignment) -> int:
    return sum(
        (assignment[t2] - assignment[t1]) * spec.graph.bandwidth(t1, t2)
        for (t1, t2) in spec.task_edges
        if assignment[t2] > assignment[t1]
    )


class LeafArrays:
    """The compact leaf MILP of one spec, as arrays.

    Columns are ``x[i,j,k]`` (op, step, instance order), then ``s[j,p]``
    (step-major over the assignment's used partitions), then ``u[p,k]``.
    Rows are eq 6 (the equality system), then eq 7 and the aggregated
    eq 8, which do not depend on the assignment and are built here once,
    then the per-assignment rows :meth:`form` fills in: step ownership,
    op-to-step links, FU usage and capacity.  The result equals, entry
    for entry and in the same in-row order, what ``compile_standard_form``
    makes of the same model written with ``Model``/``lin_sum``.
    """

    def __init__(self, spec: ProblemSpec) -> None:
        self.spec = spec
        self.x_keys = [
            (op_id, j, k)
            for op_id in spec.op_ids
            for j in spec.op_steps[op_id]
            for k in spec.op_fus[op_id]
        ]
        x_col = {key: col for col, key in enumerate(self.x_keys)}
        self.nx = len(self.x_keys)
        self.n_steps = len(spec.steps)
        self.n_fus = len(spec.fu_names)
        task_pos = {task: i for i, task in enumerate(spec.task_order)}
        self.op_task = np.array([task_pos[spec.op_task[op_id]] for op_id in spec.op_ids])

        # eq 6: unique placement.
        self.eq_rows = _csr_parts([
            [x_col[(op_id, j, k)]
             for j in spec.op_steps[op_id] for k in spec.op_fus[op_id]]
            for op_id in spec.op_ids
        ])
        # eq 7: FU exclusivity per (step, instance).
        fixed = []
        for j in spec.steps:
            for k in spec.fu_names:
                terms = [
                    x_col[(op_id, j, k)]
                    for op_id in spec.ops_at_step(j)
                    if k in spec.op_fus[op_id]
                ]
                if len(terms) > 1:
                    fixed.append(terms)
        # eq 8 (aggregated): strict dependency ordering.
        for (i1, i2) in spec.op_edges():
            for j1 in spec.op_steps[i1]:
                late2 = [
                    x_col[(i2, j2, k2)]
                    for j2 in spec.op_steps[i2]
                    if j2 <= j1
                    for k2 in spec.op_fus[i2]
                ]
                if late2:
                    fixed.append([x_col[(i1, j1, k1)] for k1 in spec.op_fus[i1]] + late2)
        self.fixed_rows = _csr_parts(fixed)

        # Link rows (x[i,j,*] <= s[j,p]) and usage rows (x[i,*,k] <=
        # u[p,k], written -u + sum x <= 0): ``None`` marks the one
        # column that depends on the assignment, found per call as
        # nx + slot_m * m + slot_p * (position of p among the m used
        # partitions) + slot_offset.
        step_pos = {j: pos for pos, j in enumerate(spec.steps)}
        rows, slots = [], []
        for op_pos, op_id in enumerate(spec.op_ids):
            for j in spec.op_steps[op_id]:
                rows.append([x_col[(op_id, j, k)] for k in spec.op_fus[op_id]] + [None])
                slots.append((op_pos, step_pos[j], 1, 0))
        n_link = len(rows)
        for op_pos, op_id in enumerate(spec.op_ids):
            for k in spec.op_fus[op_id]:
                rows.append([None] + [x_col[(op_id, j, k)] for j in spec.op_steps[op_id]])
                slots.append((op_pos, self.n_steps, self.n_fus, spec.fu_index(k)))
        _, self.cover_indices, self.cover_indptr = _csr_parts(
            [[-1 if col is None else col for col in row] for row in rows]
        )
        self.cover_slot = np.flatnonzero(self.cover_indices < 0)
        self.cover_data = np.where(self.cover_indices < 0, -1.0, 1.0)
        self.cover_b = np.concatenate([np.full(n_link, -0.0), np.zeros(len(rows) - n_link)])
        slots = np.array(slots)
        self.slot_op, self.slot_m, self.slot_p, self.slot_offset = slots.T

        # eq 11 coefficients, zeros left out as compile_standard_form does.
        alpha = spec.device.alpha
        coefs = [(i, alpha * spec.fu_cost[k]) for i, k in enumerate(spec.fu_names)]
        coefs = [(i, coef) for i, coef in coefs if coef != 0.0]
        self.cap_fu = np.array([i for i, _ in coefs], dtype=np.int64)
        self.cap_coef = np.array([coef for _, coef in coefs])

    def form(self, assignment: "Dict[str, int]") -> StandardForm:
        """The leaf MILP of a complete ``{task: partition}`` assignment."""
        task_part = np.array([assignment[task] for task in self.spec.task_order])
        used = np.unique(task_part)
        m = len(used)
        op_ppos = np.searchsorted(used, task_part)[self.op_task]
        nx, n_steps, n_fus = self.nx, self.n_steps, self.n_fus
        n = nx + n_steps * m + m * n_fus
        u0 = nx + n_steps * m

        cover_indices = self.cover_indices.copy()
        cover_indices[self.cover_slot] = (
            nx + self.slot_m * m + self.slot_p * op_ppos[self.slot_op] + self.slot_offset
        )
        fixed_data, fixed_indices, fixed_indptr = self.fixed_rows
        n_cap = len(self.cap_fu)
        # Row blocks in order: (columns, coefficients, row ends within
        # the block, right-hand sides).
        blocks = [
            (fixed_indices, fixed_data, fixed_indptr[1:], np.ones(len(fixed_indptr) - 1)),
            # Step ownership: sum_p s[j,p] <= 1.
            (nx + np.arange(n_steps * m), np.ones(n_steps * m),
             m * np.arange(1, n_steps + 1), np.ones(n_steps)),
            (cover_indices, self.cover_data, self.cover_indptr[1:], self.cover_b),
            # Capacity (eq 11) of each used partition.
            ((u0 + n_fus * np.arange(m)[:, None] + self.cap_fu).ravel(),
             np.tile(self.cap_coef, m), n_cap * np.arange(1, m + 1),
             np.full(m, float(self.spec.device.capacity))),
        ]
        indices, data, ends, rhs = zip(*blocks)
        starts = np.cumsum([0] + [len(block) for block in indices])
        a_ub = sparse.csr_matrix(
            (
                np.concatenate(data),
                np.concatenate(indices).astype(np.int32),
                np.concatenate([[0]] + [start + end for start, end in zip(starts, ends)]),
            ),
            shape=(sum(map(len, rhs)), n),
        )
        eq_data, eq_indices, eq_indptr = self.eq_rows
        a_eq = sparse.csr_matrix((eq_data, eq_indices, eq_indptr), shape=(len(eq_indptr) - 1, n))
        return StandardForm(
            c=np.zeros(n),
            a_ub=a_ub,
            b_ub=np.concatenate(rhs),
            a_eq=a_eq,
            b_eq=np.ones(len(eq_indptr) - 1),
            lb=np.zeros(n),
            ub=np.ones(n),
            integrality=np.ones(n),
        )


def _csr_parts(rows):
    """(data, indices, indptr) of all-ones rows with the given columns."""
    indices = np.array([col for row in rows for col in row], dtype=np.int32)
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows], dtype=np.int64)])
    return np.ones(len(indices)), indices, indptr


def _full_values(spec, space, assignment, placements) -> "Dict[int, float]":
    """Recompose a full main-model valuation from (assignment, schedule).

    Secondary variables are set to their defining values so the result
    satisfies every main-model constraint, not just the ones decode
    reads.
    """
    values: "Dict[int, float]" = {}
    for (task, p), var in space.y.items():
        values[var.index] = 1.0 if assignment[task] == p else 0.0
    for (op_id, j, k), var in space.x.items():
        values[var.index] = 1.0 if placements.get(op_id) == (j, k) else 0.0

    o_val: "Dict[Tuple[str, str], float]" = {}
    for (task, k), var in space.o.items():
        used = any(
            placements[op_id][1] == k for op_id in spec.task_ops[task]
        )
        o_val[(task, k)] = 1.0 if used else 0.0
        values[var.index] = o_val[(task, k)]
    for (p, task, k), var in space.z.items():
        values[var.index] = (
            1.0 if assignment[task] == p and o_val.get((task, k)) else 0.0
        )
    for (p, k), var in space.u.items():
        used = any(
            assignment[task] == p and o_val.get((task, k), 0.0)
            for task in spec.task_order
        )
        values[var.index] = 1.0 if used else 0.0
    for (task, j), var in space.c.items():
        active = any(
            placements[op_id][0] == j for op_id in spec.task_ops[task]
        )
        values[var.index] = 1.0 if active else 0.0
    for (p, t1, t2), var in space.w.items():
        crossing = assignment[t1] < p <= assignment[t2]
        values[var.index] = 1.0 if crossing else 0.0
    for (t1, t2, p1, p2), var in space.v.items():
        values[var.index] = (
            1.0 if assignment[t1] == p1 and assignment[t2] == p2 else 0.0
        )
    return values
