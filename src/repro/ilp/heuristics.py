"""Primal heuristics for the B&B hot loop: diving and polishing.

Both heuristics exploit the incremental LP kernel's cheap
bound-mutation re-solves (PR 5): every probe is the same
``lp_backend(form, lb, ub)`` call the tree search itself makes, so a
warm-started kernel answers most of them from the parent basis.  They
also mirror the search's own leaf structure: when the model has
registered group-0 branching variables and a ``leaf_solver`` is given,
the dive fixes *only* group-0 variables (the ``y`` assignment row) and
hands the fully-fixed residue to the exact leaf solver — the same
division of labor that makes the tree search itself fast.

``lp_dive``
    Round-and-repair descent from a node's fractional LP point: fix
    the most fractional branching variable to its nearest integer
    (zeroing registered SOS1 peers on a 1-fix), re-solve, repeat.  A
    dead end backtracks depth-first through the untried sides of
    earlier fixes.  Bounded by :data:`DIVE_MAX_LP` LP/leaf calls and
    pruned as soon as a dive LP bound can no longer beat the
    incumbent.
``polish_incumbent``
    1-opt local search around the current incumbent: for each SOS1
    assignment group, move the chosen member to each alternative with
    every other branching variable pinned at its incumbent value.  An
    LP probe lower-bounds each move (cheap reject); survivors are
    completed exactly by the leaf solver.  Bounded by
    :data:`POLISH_MAX_LP` LP/leaf calls; returns the best
    strictly-improving reassignment.

Neither heuristic ever closes a node — they only feed the shared
incumbent so bound pruning fires earlier.  The caller audits returned
points (``verify_design`` via the configured ``incumbent_auditor``,
plus exact feasibility pre-validation in proof mode) before adoption,
so a heuristic can never corrupt the incumbent.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.errors import SolverError
from repro.ilp.solution import LPResult, SolveStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.ilp.branch_bound import BranchAndBound, _Node

#: LP/leaf-call budget of one dive.
DIVE_MAX_LP = 64

#: LP/leaf-call budget of one polishing pass.
POLISH_MAX_LP = 64


def _fractionality(value: float) -> float:
    return abs(value - round(value))


def _next_fix(
    solver: "BranchAndBound",
    lb: "np.ndarray",
    ub: "np.ndarray",
    current: "Optional[LPResult]",
    use_group0: bool,
):
    """Decide the next dive action from the current LP point.

    Returns ``(pick, target, other)`` to fix a variable, ``"leaf"``
    when every group-0 variable is bound-fixed (exact completion),
    ``"integral"`` when the point is already fully integral, or None
    when this path is a dead end (no/poor LP) and the dive should
    backtrack.
    """
    if (
        current is None
        or current.objective is None
        or current.values is None
        or current.objective >= solver._prune_threshold(solver._incumbent_obj)
    ):
        return None
    values = current.values
    fractional = solver._fractional_indices(values)
    if use_group0:
        targets = [j for j in fractional if j in solver._group0_set]
    else:
        targets = fractional
    if targets:
        pick = max(
            targets,
            key=lambda j: (_fractionality(float(values[j])), -j),
        )
        value = float(values[pick])
        lo_t = max(float(lb[pick]), math.floor(value))
        hi_t = min(float(ub[pick]), math.ceil(value))
        target = min(max(float(round(value)), lo_t), hi_t)
        other = hi_t if target == lo_t else lo_t
        return pick, target, other
    if not use_group0:
        return "integral"
    unfixed = [j for j in solver._group0 if lb[j] != ub[j]]
    if not unfixed:
        return "leaf"
    # Group-0 integral in the LP but not yet bound-fixed: drive to
    # fixation (mirrors ``_decide``), preferring what the LP wants most.
    pick = max(unfixed, key=lambda j: (float(values[j]), -j))
    lo, hi = float(lb[pick]), float(ub[pick])
    target = min(max(float(round(float(values[pick]))), lo), hi)
    other = target + 1.0 if target + 1.0 <= hi else target - 1.0
    if other < lo:
        other = target
    return pick, target, other


def lp_dive(
    solver: "BranchAndBound", node: "_Node", lp: LPResult
) -> "Optional[Tuple[float, Dict[int, float]]]":
    """Dive from ``node``'s LP point toward an integer-feasible one.

    Returns ``(objective, values)`` on success, None when the dive is
    abandoned (budget spent, or every open alternative dead-ended).
    """
    config = solver.config
    heur = solver._heur
    heur["dives"] += 1
    budget = DIVE_MAX_LP
    use_group0 = bool(config.leaf_solver is not None and solver._group0)
    # Depth-first with one untried alternative per fixing level: a dead
    # end backtracks to the most recent level whose other side is still
    # open instead of abandoning the whole dive.
    pending: "List[tuple]" = []
    lb = node.lb.copy()
    ub = node.ub.copy()
    current: "Optional[LPResult]" = lp
    while True:
        step = _next_fix(solver, lb, ub, current, use_group0)
        if step == "integral":
            assert current is not None
            return float(current.objective), solver._round_integers(
                current.values
            )
        if step == "leaf":
            if budget <= 0:
                return None
            budget -= 1
            heur["dive_leaf_solves"] += 1
            kind, payload = solver._leaf_subsolve(
                type(node)(lb.copy(), ub.copy(), node.depth)
            )
            if kind == "optimal":
                obj, values = payload
                if obj < solver._prune_threshold(solver._incumbent_obj):
                    return float(obj), dict(values)
            step = None  # infeasible / timed-out / useless leaf
        if step is None:
            if not pending:
                return None
            lb, ub, pick, target = pending.pop()
        else:
            pick, target, other = step
            if other != target:
                pending.append((lb.copy(), ub.copy(), pick, other))
        if budget <= 0:
            return None
        lb[pick] = target
        ub[pick] = target
        if target >= 1.0:
            for peer in solver._sos1_of.get(pick, ()):
                if ub[peer] > 0.0:
                    ub[peer] = 0.0
        budget -= 1
        heur["dive_lp_solves"] += 1
        try:
            probe = config.lp_backend(solver.form, lb, ub)
        except SolverError:
            probe = None
        current = None
        if (
            probe is not None
            and probe.status is SolveStatus.OPTIMAL
            and probe.values is not None
        ):
            current = probe


def polish_incumbent(
    solver: "BranchAndBound",
) -> "Optional[Tuple[float, Dict[int, float]]]":
    """1-opt reassignment around the current incumbent.

    Returns the best strictly-improving ``(objective, values)`` found
    within the LP budget, or None.  Never mutates solver state beyond
    the heuristics counters — adoption (and auditing) is the caller's
    job.
    """
    values = solver._incumbent_values
    if values is None or not solver.model.sos1_groups:
        return None
    config = solver.config
    heur = solver._heur
    heur["polish_calls"] += 1
    budget = POLISH_MAX_LP
    use_leaf = bool(config.leaf_solver is not None and solver._group0)
    # Branching variables pinned at their incumbent values; each move
    # edits exactly one SOS1 group on top of this template.  Without a
    # leaf path every integer variable is pinned instead, so an LP
    # completion is integer-feasible by construction.
    pinned = (
        solver._group0 if use_leaf else [int(j) for j in solver._int_indices]
    )
    tmpl_lb = solver.form.lb.copy()
    tmpl_ub = solver.form.ub.copy()
    for raw in pinned:
        j = int(raw)
        v = float(round(values.get(j, 0.0)))
        tmpl_lb[j] = v
        tmpl_ub[j] = v
    best_obj = solver._incumbent_obj
    best: "Optional[Dict[int, float]]" = None
    for group in solver.model.sos1_groups:
        chosen = [j for j in group if values.get(j, 0.0) >= 0.5]
        if len(chosen) != 1:
            continue
        member = chosen[0]
        for alt in group:
            if alt == member:
                continue
            if solver.form.ub[alt] < 1.0 or solver.form.lb[member] > 0.0:
                continue  # the move is fixed away in the root box
            if budget <= 0:
                break
            lb = tmpl_lb.copy()
            ub = tmpl_ub.copy()
            lb[member] = 0.0
            ub[member] = 0.0
            lb[alt] = 1.0
            ub[alt] = 1.0
            budget -= 1
            heur["polish_lp_solves"] += 1
            try:
                probe = config.lp_backend(solver.form, lb, ub)
            except SolverError:
                continue
            if (
                probe.status is not SolveStatus.OPTIMAL
                or probe.values is None
                or probe.objective is None
            ):
                continue
            if float(probe.objective) >= best_obj - 1e-9:
                continue  # even the relaxation cannot beat the best move
            if not use_leaf:
                best_obj = float(probe.objective)
                best = solver._round_integers(probe.values)
                continue
            if budget <= 0:
                break
            budget -= 1
            heur["polish_leaf_solves"] += 1
            from repro.ilp.branch_bound import _Node

            kind, payload = solver._leaf_subsolve(_Node(lb, ub, 0))
            if kind != "optimal":
                continue
            obj, full_values = payload
            if float(obj) < best_obj - 1e-9:
                best_obj = float(obj)
                best = dict(full_values)
        if budget <= 0:
            break
    if best is None:
        return None
    return best_obj, best
