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

The LP is never solved.  Its dual is ``max d·pi  s.t.  cap^T pi <= 1,
pi >= 0``, whose feasible set does not depend on ``d``: a polytope
with a handful of vertices ``pi_v`` (6-7 on the paper's allocations).
The LP is feasible and bounded, so by LP duality its optimum is
exactly ``max_v d·pi_v``: the vertices are enumerated once per solve
and a demand costs a few additions.  Duality needs every type to be
coverable by some subset.  A type that no capacity-feasible subset
executes (its FU alone exceeds the device) makes the primal infeasible
for any positive demand of it, and the dual unbounded, so vertices
alone would miss it; it is handled apart, and a partition demanding
it is pruned outright.
This is the capacity half of the packing-with-order-constraints
argument of Fekete, Köhler & Teich.

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
from typing import Callable, List, Optional, Tuple

import numpy as np

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


def dual_vertices(cap: "np.ndarray") -> "np.ndarray":
    """Vertices of ``{pi >= 0 : cap^T pi <= 1}``, one per row.

    ``cap`` is a (types x subsets) matrix of small non-negative
    integers with no zero row, so the polytope is bounded.  A vertex is
    a feasible point where ``types`` linearly independent constraints
    hold with equality; every such choice is tried.  Duplicate and
    dominated subset columns are dropped first (a column no larger than
    another, entry by entry, only adds an implied constraint).  The
    constraint matrix is integral, so a choice is singular exactly when
    its determinant is 0, and ``|det| > 0.5`` tests that exactly.
    """
    n_types = cap.shape[0]
    if n_types == 0:
        return np.zeros((1, 0))
    columns = np.unique(cap.T, axis=0)
    columns = np.array([
        col for col in columns
        if not any((other >= col).all() and (other > col).any() for other in columns)
    ])
    rows = np.vstack([columns, -np.eye(n_types)])
    rhs = np.concatenate([np.ones(len(columns)), np.zeros(n_types)])
    choices = np.array(list(itertools.combinations(range(len(rows)), n_types)))
    systems = rows[choices]
    regular = np.abs(np.linalg.det(systems)) > 0.5
    points = np.linalg.solve(systems[regular], rhs[choices[regular]][..., None])[..., 0]
    points = points[(points @ rows.T <= rhs + 1e-9).all(axis=1)]
    _, first = np.unique(np.round(points, 9), axis=0, return_index=True)
    return points[np.sort(first)] + 0.0  # no -0.0 entries


class SlotBound:
    """The slot LP of one spec, answered from its dual vertices.

    :meth:`min_steps` is the optimum of ``min 1·n s.t. cap·n >= d,
    n >= 0`` (``math.inf`` when it is infeasible) without solving it.
    """

    def __init__(self, spec: ProblemSpec) -> None:
        self.types = sorted(
            {op.optype for _, op in spec.graph.all_operations()},
            key=lambda t: t.value,
        )
        subsets = maximal_feasible_subsets(spec)
        # Per-subset per-step type capacities.
        cap = np.zeros((len(self.types), len(subsets)))
        for s_idx, subset in enumerate(subsets):
            for name in subset:
                fu = spec.allocation.instance(name)
                for t_idx, t in enumerate(self.types):
                    if fu.executes(t):
                        cap[t_idx, s_idx] += 1.0
        self.cap = cap
        self.uncoverable = ~cap.any(axis=1)
        coverable = ~self.uncoverable
        vertices = dual_vertices(cap[coverable])
        self.vertices = np.zeros((len(vertices), len(self.types)))
        self.vertices[:, coverable] = vertices

    def demand(self, operations) -> "np.ndarray":
        """Per-type operation counts of ``operations``."""
        vec = np.zeros(len(self.types))
        for op in operations:
            vec[self.types.index(op.optype)] += 1.0
        return vec

    def min_steps(self, demands: "np.ndarray") -> "np.ndarray":
        """Fewest steps (an LP bound) covering each row of ``demands``."""
        steps = (demands @ self.vertices.T).max(axis=1)
        steps[(demands[:, self.uncoverable] > 0).any(axis=1)] = math.inf
        return steps


def make_slot_prober(
    spec: ProblemSpec, space: VariableSpace
) -> "Callable[[np.ndarray, np.ndarray], bool]":
    """Build the prober closure for one formulation instance.

    The returned callable takes the node's (lb, ub) bound arrays and
    returns True when the node is *provably* infeasible.  The bound is
    linear in ``d``, so each task's demand is scored against every dual
    vertex once, and a partition's bound is the largest vertex score
    summed over its fixed tasks.  Those scores are built on the first
    call and live as long as the closure.
    """
    budget = spec.mobility.latency_bound
    n_partitions = len(spec.partitions)
    # Per task: its y columns by partition, and d·pi_v for every dual
    # vertex (None when d needs a type no subset covers).
    tasks: "Optional[List[Tuple[List[int], Optional[List[float]]]]]" = None

    def prober(lb: "np.ndarray", ub: "np.ndarray") -> bool:
        nonlocal tasks
        if tasks is None:
            bound = SlotBound(spec)
            tasks = []
            for task in spec.task_order:
                d = bound.demand(spec.graph.task(task).operations)
                coverable = bound.min_steps(d[None])[0] < math.inf
                tasks.append((
                    [space.y[(task, p)].index for p in spec.partitions],
                    (bound.vertices @ d).tolist() if coverable else None,
                ))
        total = 0
        for p_idx in range(n_partitions):
            scores = None
            for y_index, task_scores in tasks:
                if lb[y_index[p_idx]] >= 1.0:
                    if task_scores is None:
                        return True
                    scores = task_scores if scores is None else [
                        a + b for a, b in zip(scores, task_scores)
                    ]
            if scores is None:
                continue
            total += math.ceil(max(scores) - 1e-9)
            if total > budget:
                return True
        return False

    return prober
