"""Tightening constraints and the compact w linearization: eqs 28-32.

Section 6 of the paper: the base model (Table 1) solves painfully
slowly because its LP relaxation is loose.  These cutting planes remove
fractional (and non-optimal integer) points without excluding any
optimal integer solution, and together they permit the *compact*
linearization of ``w`` (eq 31) that introduces no product variables at
all:

* **eq 31** — ``w[p,t1,t2] >= sum_{p1<p} y[t1,p1] + sum_{p2>=p} y[t2,p2] - 1``.
  This only bounds ``w`` from below; on its own ``w = 1`` would remain
  feasible when no product term is 1 (harmless to the objective, which
  minimizes it, but the cuts below also exclude it outright — the
  paper's Figure 4 walks through the three cases).
* **eq 28** — if ``t1`` sits at partition ``>= p1``, cut ``p1`` cannot
  carry the edge: ``w[p1,t1,t2] + sum_{p >= p1} y[t1,p] <= 1``.
* **eq 29** — if ``t2`` sits at a partition *before* ``p1``, cut ``p1``
  cannot carry the edge: ``w[p1,t1,t2] + sum_{p < p1} y[t2,p] <= 1``.
  (The paper prints the sum as ``1 <= p <= p1``, which would also
  forbid the legal case ``t2`` exactly at ``p1`` — its own Figure-4
  example requires the strict range we implement; see DESIGN.md.)
* **eq 30** — co-located endpoints contribute to no cut:
  ``y[t1,p] + y[t2,p] + w[p1,t1,t2] <= 2`` for all cuts ``p1 != p``.
* **eq 32** — the ``u`` lift that the paper credits with a dramatic
  solution-time reduction: if task ``t`` uses FU ``k`` and sits in
  partition ``p``, then ``u[p,k]`` must be 1 *already in the LP
  relaxation*: ``o[t,k] + y[t,p] - u[p,k] <= 1``.
"""

from __future__ import annotations

from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.core.spec import ProblemSpec
from repro.core.variables import VariableSpace


def add_tight_w_definition(
    model: Model, spec: ProblemSpec, space: VariableSpace
) -> None:
    """Eq 31: compact aggregated lower bound defining ``w``."""
    n = spec.n_partitions
    for (t1, t2) in spec.task_edges:
        for p in range(2, n + 1):
            before = lin_sum(space.y[(t1, p1)] for p1 in range(1, p))
            at_or_after = lin_sum(space.y[(t2, p2)] for p2 in range(p, n + 1))
            model.add(
                space.w[(p, t1, t2)] >= before + at_or_after - 1,
                name=f"eq31[{p},{t1},{t2}]",
                tag="eq31-w-compact",
            )


def add_w_source_cut(model: Model, spec: ProblemSpec, space: VariableSpace) -> None:
    """Eq 28: producer at/after the cut => the cut carries nothing."""
    n = spec.n_partitions
    for (t1, t2) in spec.task_edges:
        for p1 in range(2, n + 1):
            tail = lin_sum(space.y[(t1, p)] for p in range(p1, n + 1))
            model.add(
                space.w[(p1, t1, t2)] + tail <= 1,
                name=f"eq28[{p1},{t1},{t2}]",
                tag="eq28-w-source",
            )


def add_w_sink_cut(model: Model, spec: ProblemSpec, space: VariableSpace) -> None:
    """Eq 29 (strict range): consumer before the cut => nothing carried."""
    n = spec.n_partitions
    for (t1, t2) in spec.task_edges:
        for p1 in range(2, n + 1):
            head = lin_sum(space.y[(t2, p)] for p in range(1, p1))
            model.add(
                space.w[(p1, t1, t2)] + head <= 1,
                name=f"eq29[{p1},{t1},{t2}]",
                tag="eq29-w-sink",
            )


def add_w_colocation_cut(
    model: Model, spec: ProblemSpec, space: VariableSpace
) -> None:
    """Eq 30: co-located dependency endpoints cross no cut."""
    n = spec.n_partitions
    for (t1, t2) in spec.task_edges:
        for p in range(2, n + 1):
            together = space.y[(t1, p)] + space.y[(t2, p)]
            for p1 in range(2, n + 1):
                if p1 == p:
                    continue
                model.add(
                    together + space.w[(p1, t1, t2)] <= 2,
                    tag="eq30-w-colocated",
                )


def add_u_lift(model: Model, spec: ProblemSpec, space: VariableSpace) -> None:
    """Eq 32: task in partition p using FU k lifts ``u[p,k]`` in the LP."""
    for (task, k), o_var in space.o.items():
        for p in spec.partitions:
            model.add(
                o_var + space.y[(task, p)] - space.u[(p, k)] <= 1,
                tag="eq32-u-lift",
            )
