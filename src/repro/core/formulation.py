"""Model assembly: the full formulation under configurable options.

:func:`build_model` produces the paper's *final* model by default —
equations 1, 2, 3, 6, 7, 8, 11, 12, 13, 19-23, 26, 27, 28, 29, 30, 31,
32 with cost function 14 — and the Section-5 *base* model with
``tighten=False`` (eqs 4-5 product linearization of ``w`` instead of
28-31, and no eq-32 lift), which is what the Table-1 vs Table-2
comparison measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.ilp.model import Model
from repro.core.constraints import combine, linearize, partitioning, synthesis, tightening
from repro.core.objective import set_objective
from repro.core.spec import ProblemSpec
from repro.core.variables import VariableSpace, build_variables


@dataclass(frozen=True)
class FormulationOptions:
    """Knobs of the model construction.

    Parameters
    ----------
    tighten:
        ``True`` (default) builds the final Section-6 model; ``False``
        builds the Section-5 base model (explicit ``y*y`` product
        variables for ``w``, no cutting planes, no eq-32 lift).
    linearization:
        ``"glover"`` (default, eqs 15/17/18 — continuous product
        variables) or ``"fortet"`` (eqs 15/16 — integer product
        variables, weaker relaxation).  Applies to both the ``z``
        (``y*o``) products and, in the base model, the ``v`` (``y*y``)
        products.
    aggregated_dependencies:
        ``False`` (default) uses the paper's pairwise eq-8 form;
        ``True`` uses the aggregated, LP-tighter variant (measured by
        Ablation C in ``scripts/run_experiments.py``).
    """

    tighten: bool = True
    linearization: str = "glover"
    aggregated_dependencies: bool = False

    def __post_init__(self) -> None:
        linearize.check_method(self.linearization)


def build_model(
    spec: ProblemSpec, options: "FormulationOptions | None" = None
) -> "Tuple[Model, VariableSpace]":
    """Build the complete ILP for ``spec`` under ``options``.

    Returns the model plus the variable space needed to decode
    solutions.  The model's objective is integral at every
    integer-feasible point (bandwidths are integers), which solvers may
    exploit via ``BranchAndBoundConfig(objective_is_integral=True)``.
    """
    if options is None:
        options = FormulationOptions()

    model = Model(f"tps-{spec.graph.name}-N{spec.n_partitions}-L{spec.relaxation}")
    space = build_variables(
        model,
        spec,
        product_vars_integer=linearize.product_vars_need_integrality(
            options.linearization
        ),
    )

    # Temporal partitioning (eqs 1-3).
    partitioning.add_uniqueness(model, spec, space)
    partitioning.add_temporal_order(model, spec, space)
    partitioning.add_memory(model, spec, space)

    # The definition of w: base (eqs 4-5) or tightened (eqs 28-31).
    if options.tighten:
        tightening.add_tight_w_definition(model, spec, space)
        tightening.add_w_source_cut(model, spec, space)
        tightening.add_w_sink_cut(model, spec, space)
        tightening.add_w_colocation_cut(model, spec, space)
    else:
        partitioning.add_base_w_definition(
            model, spec, space, options.linearization
        )

    # Synthesis (eqs 6-8).
    synthesis.add_unique_assignment(model, spec, space)
    synthesis.add_fu_exclusivity(model, spec, space)
    synthesis.add_dependencies(
        model, spec, space, aggregated=options.aggregated_dependencies
    )

    # Combining partitioning and synthesis (eqs 9-13, 19-27).
    combine.add_o_definition(model, spec, space)
    combine.add_u_linkage(model, spec, space, options.linearization)
    combine.add_resource_capacity(model, spec, space)
    combine.add_control_step_activity(model, spec, space)
    combine.add_step_partition_uniqueness(model, spec, space)

    # The eq-32 u lift is part of the Section-6 package.
    if options.tighten:
        tightening.add_u_lift(model, spec, space)

    # Cost function (eq 14).
    set_objective(model, spec, space)
    return model, space


def model_size_report(model: Model, space: VariableSpace) -> "Dict[str, object]":
    """Var/Const breakdown in the form the paper's tables report."""
    report: "Dict[str, object]" = dict(model.stats())
    report["vars_by_family"] = space.counts()
    report["constraints_by_family"] = model.constraint_counts_by_tag()
    report["integer_vars_by_family"] = model.integer_counts_by_tag()
    return report
