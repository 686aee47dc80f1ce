"""Slot-counting node prober: cheap infeasibility proofs for the search.

Temporal partitions execute sequentially on *disjoint* control steps
drawn from a shared budget of ``J = critical path + L`` steps.  A
partition holding tasks with operation-type demands ``d`` therefore
needs at least

    ``min  sum(n_s)   s.t.  sum_s n_s * cap_s >= d,  n >= 0``

control steps, where ``s`` ranges over the *capacity-feasible maximal
FU subsets* of the exploration allocation and ``cap_s`` is how many
operations of each type subset ``s`` executes per step.  Summing that
LP lower bound (rounded up per partition) over all partitions and
comparing against ``J`` proves infeasibility of a branch-and-bound
node from its bound-fixed ``y`` variables alone — in microseconds,
where the same proof by LP/MILP search takes fractions of a second.

The prober is sound for *partial* fixings too: tasks fixed to a
partition only under-estimate its final demand, and unfixed tasks are
simply not counted, so the bound never over-prunes.

This is 1998-appropriate engineering (it is a relaxation argument the
paper's authors could have added as another "tightening"), exposed as
an optional accelerator on :class:`repro.ilp.branch_bound.BranchAndBound`
via :class:`repro.ilp.branch_bound.BranchAndBoundConfig.node_prober`.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Dict, List, Tuple

import numpy as np
from scipy.optimize import linprog

from repro.core.spec import ProblemSpec
from repro.core.variables import VariableSpace


def maximal_feasible_subsets(spec: ProblemSpec) -> "List[Tuple[str, ...]]":
    """All maximal capacity-feasible subsets of the allocation.

    A subset is feasible when ``alpha * sum(FG)`` fits the device; it
    is maximal when no instance can be added without breaking that.
    The allocation is small (the paper explores 5-7 instances), so
    enumeration is exact and instant.
    """
    names = list(spec.fu_names)
    feasible: "List[Tuple[str, ...]]" = []
    for r in range(1, len(names) + 1):
        for combo in itertools.combinations(names, r):
            raw = sum(spec.fu_cost[k] for k in combo)
            if spec.device.fits(raw):
                feasible.append(combo)
    maximal = []
    feasible_sets = [frozenset(c) for c in feasible]
    for combo, as_set in zip(feasible, feasible_sets):
        if not any(as_set < other for other in feasible_sets):
            maximal.append(combo)
    return maximal


def make_slot_prober(
    spec: ProblemSpec, space: VariableSpace
) -> "Callable[[np.ndarray, np.ndarray], bool]":
    """Build the prober closure for one formulation instance.

    The returned callable takes the node's (lb, ub) bound arrays and
    returns True when the node is *provably* infeasible.
    """
    types = sorted(
        {op.optype for _, op in spec.graph.all_operations()},
        key=lambda t: t.value,
    )
    type_index = {t: i for i, t in enumerate(types)}
    subsets = maximal_feasible_subsets(spec)

    # Per-subset per-step type capacities.
    cap = np.zeros((len(types), len(subsets)))
    for s_idx, subset in enumerate(subsets):
        for name in subset:
            fu = spec.allocation.instance(name)
            for t, t_idx in type_index.items():
                if fu.executes(t):
                    cap[t_idx, s_idx] += 1.0

    # Per-task demand vectors.
    demand: "Dict[str, np.ndarray]" = {}
    for task in spec.task_order:
        vec = np.zeros(len(types))
        for op in spec.graph.task(task).operations:
            vec[type_index[op.optype]] += 1.0
        demand[task] = vec

    y_indices = {
        (task, p): space.y[(task, p)].index
        for task in spec.task_order
        for p in spec.partitions
    }
    budget = spec.mobility.latency_bound
    ones = np.ones(len(subsets))
    # The same few demand vectors recur at node after node, and the LP
    # below is a deterministic function of ``d``, so memoizing it is
    # exact.  Entries are bounded by the distinct per-type operation
    # counts a partition can hold — a handful of floats each.
    steps_memo: "Dict[bytes, float]" = {}

    def min_steps(d: "np.ndarray") -> float:
        """LP lower bound on steps needed for demand vector ``d``."""
        key = d.tobytes()
        steps = steps_memo.get(key)
        if steps is not None:
            return steps
        result = linprog(
            c=ones,
            A_ub=-cap,
            b_ub=-d,
            bounds=[(0, None)] * len(subsets),
            method="highs",
        )
        if result.status == 2:  # pragma: no cover - every type is coverable
            steps = math.inf
        else:
            steps = float(result.fun)
        steps_memo[key] = steps
        return steps

    def prober(lb: "np.ndarray", ub: "np.ndarray") -> bool:
        total = 0
        for p in spec.partitions:
            d = None
            for task in spec.task_order:
                if lb[y_indices[(task, p)]] >= 1.0:
                    d = demand[task] if d is None else d + demand[task]
            if d is None:
                continue
            steps = min_steps(d)
            if steps is math.inf:
                return True
            total += math.ceil(steps - 1e-9)
            if total > budget:
                return True
        return False

    return prober
