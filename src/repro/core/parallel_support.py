"""One recipe for the temporal-partitioning solve context.

The partitioner's branch-and-bound configuration is full of closures —
the slot-counting node prober, the compact leaf solver, the resilient
LP chain.  :func:`solve_context` assembles all of them, plus the
presolved model, from the spec and the knobs;
:class:`~repro.core.partitioner.TemporalPartitioner` calls it right
after ``build_model``.

The search itself is sequential; specs run in parallel only across
processes (``repro batch --jobs`` and the solve service).  The module
keeps its name because ``bench/spans.py`` patches
:func:`make_lp_backend` and :func:`make_incumbent_auditor` here by
name.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ilp.incremental import IncrementalLPSolver
from repro.ilp.resilience import (
    FaultInjectingBackend,
    FaultPlan,
    ResilientLPBackend,
    default_backend_chain,
)
from repro.ilp.scipy_backend import solve_lp_scipy


def make_lp_backend(
    chaos: "Optional[FaultPlan]" = None,
    plain_search: bool = False,
):
    """LP backend for a bnb solve: bare, chaos-wrapped, or armored.

    Called by :func:`solve_context`.  ``plain_search`` keeps the
    historical bare SciPy backend, with only its primary wrapped in
    fault injection under ``chaos``.  Otherwise the warm-starting
    incremental kernel heads the chain with the stateless backends
    behind it, a :class:`~repro.ilp.resilience.ResilientLPBackend`
    wraps the chain, and a :class:`~repro.ilp.resilience.FaultPlan`
    additionally wraps the primary (or, with ``targets="all"``, every)
    backend in seeded fault injection with infeasible double-checking.
    """
    if plain_search and chaos is None:
        return solve_lp_scipy
    chain = default_backend_chain()
    if not plain_search:
        chain = [("incremental", IncrementalLPSolver())] + chain
    if chaos is not None:
        wrap_all = chaos.targets == "all"
        chain = [
            (name, FaultInjectingBackend(fn, chaos, name=f"chaos[{name}]"))
            if (wrap_all or i == 0) else (name, fn)
            for i, (name, fn) in enumerate(chain)
        ]
    if plain_search:
        return chain[0][1]
    return ResilientLPBackend(
        backends=chain,
        double_check_infeasible=chaos is not None,
    )


def make_incumbent_auditor(spec, space):
    """Semantic audit for heuristic incumbents: decode + verify_design.

    The B&B primal heuristics (diving, polishing) produce value vectors
    outside the normal node path; before one becomes the
    incumbent it must decode to a real :class:`PartitionedDesign` and
    pass the same independent :func:`~repro.core.verify.verify_design`
    audit the final answer gets.  Returns a ``values -> bool`` closure.
    """
    from repro.errors import DecodeError, VerificationError
    from repro.core.decode import decode_solution
    from repro.core.verify import verify_design
    from repro.ilp.solution import MilpResult, SolveStatus

    def audit(values: "Dict[int, float]") -> bool:
        candidate = MilpResult(
            status=SolveStatus.FEASIBLE, values=dict(values)
        )
        try:
            design = decode_solution(spec, space, candidate)
            verify_design(design)
        except (DecodeError, VerificationError):
            return False
        return True

    return audit


def solve_context(
    spec,
    space,
    model,
    *,
    plain_search: bool,
    presolve: bool,
    chaos: "Optional[FaultPlan]",
) -> "Dict[str, object]":
    """Everything one branch-and-bound solve of ``model`` needs.

    Presolve (non-eliminating, so the variable indices the prober,
    leaf solver and branching metadata use stay valid) runs when
    ``presolve`` is set and ``plain_search`` is not.  Returns a dict:
    ``model`` (the presolved model, or ``model`` itself when presolve
    is off or proved infeasibility), ``presolve`` (the reduction
    counters, or ``None``), ``certificate`` (presolve's infeasibility
    certificate, or ``None``), ``node_prober`` and ``leaf_solver``
    (``None`` under ``plain_search``), ``lp_backend`` and
    ``incumbent_auditor``.
    """
    stats = certificate = None
    if presolve and not plain_search:
        from repro.ilp.analysis.presolve import presolve as run_presolve

        reduced = run_presolve(model, eliminate=False)
        stats = reduced.stats.as_dict()
        certificate = reduced.certificate
        if certificate is None:
            model = reduced.model

    node_prober = leaf_solver = None
    if not plain_search:
        from repro.core.leafsolve import make_leaf_solver
        from repro.core.probe import make_slot_prober

        node_prober = make_slot_prober(spec, space)
        leaf_solver = make_leaf_solver(spec, space)

    return {
        "model": model,
        "presolve": stats,
        "certificate": certificate,
        "node_prober": node_prober,
        "leaf_solver": leaf_solver,
        "lp_backend": make_lp_backend(chaos=chaos, plain_search=plain_search),
        "incumbent_auditor": make_incumbent_auditor(spec, space),
    }

