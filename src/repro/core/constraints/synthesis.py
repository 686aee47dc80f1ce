"""High-level-synthesis constraints: paper eqs 6-8.

These express the scheduling/allocation/binding subproblem over the
fundamental ``x[i,j,k]`` variables (operation ``i`` at control step
``j`` on FU instance ``k``), with unit-latency functional units whose
result is available at the end of their control step (the paper's base
model; multicycle/pipelined/chained variants live in
:mod:`repro.extensions`).
"""

from __future__ import annotations

from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.core.spec import ProblemSpec
from repro.core.variables import VariableSpace


def add_unique_assignment(
    model: Model, spec: ProblemSpec, space: VariableSpace
) -> None:
    """Eq 6: every operation gets exactly one (step, FU) pair."""
    for op_id in spec.op_ids:
        model.add(
            lin_sum(
                space.x[(op_id, j, k)]
                for j in spec.op_steps[op_id]
                for k in spec.op_fus[op_id]
            )
            == 1,
            name=f"eq6[{op_id}]",
            tag="eq6-unique-assignment",
        )


def add_fu_exclusivity(model: Model, spec: ProblemSpec, space: VariableSpace) -> None:
    """Eq 7: at most one operation per FU instance per control step.

    (The paper's eq 7 prints the sums ambiguously; the stated intent —
    "prevents more than one operation from being scheduled at the same
    control step on the same functional unit" — is one constraint per
    ``(j, k)`` pair, which is what we generate.)
    """
    for j in spec.steps:
        candidates = spec.ops_at_step(j)
        for k in spec.fu_names:
            terms = [
                space.x[(op_id, j, k)]
                for op_id in candidates
                if k in spec.op_fus[op_id]
            ]
            if len(terms) > 1:
                model.add(
                    lin_sum(terms) <= 1,
                    name=f"eq7[{j},{k}]",
                    tag="eq7-fu-exclusive",
                )


def add_dependencies(
    model: Model,
    spec: ProblemSpec,
    space: VariableSpace,
    aggregated: bool = False,
) -> None:
    """Eq 8: data dependencies order operations strictly in time.

    For an edge ``i1 -> i2``, any placement with
    ``step(i2) <= step(i1)`` is forbidden (unit latency: the result of
    ``i1`` exists only at the end of its step).

    ``aggregated=False`` (default) generates the paper's pairwise form:
    one constraint per ``(j1, j2)`` pair with ``j2 <= j1``.

    ``aggregated=True`` generates the equivalent but LP-tighter form
    used by later ILP-scheduling work (one constraint per ``j1``)::

        sum_k x[i1,j1,k] + sum_{j2 <= j1} sum_k x[i2,j2,k] <= 1

    It is exposed as a formulation option and measured by Ablation C
    in ``scripts/run_experiments.py``.
    """
    for (i1, i2) in spec.op_edges():
        steps1 = spec.op_steps[i1]
        steps2 = spec.op_steps[i2]
        if aggregated:
            for j1 in steps1:
                late2 = [
                    space.x[(i2, j2, k2)]
                    for j2 in steps2
                    if j2 <= j1
                    for k2 in spec.op_fus[i2]
                ]
                if not late2:
                    continue
                placed1 = lin_sum(space.x[(i1, j1, k1)] for k1 in spec.op_fus[i1])
                model.add(
                    placed1 + lin_sum(late2) <= 1,
                    name=f"eq8a[{i1}->{i2},{j1}]",
                    tag="eq8-dependency",
                )
        else:
            for j1 in steps1:
                placed1 = lin_sum(space.x[(i1, j1, k1)] for k1 in spec.op_fus[i1])
                for j2 in steps2:
                    if j2 > j1:
                        continue
                    placed2 = lin_sum(
                        space.x[(i2, j2, k2)] for k2 in spec.op_fus[i2]
                    )
                    model.add(
                        placed1 + placed2 <= 1,
                        name=f"eq8[{i1}->{i2},{j1},{j2}]",
                        tag="eq8-dependency",
                    )
