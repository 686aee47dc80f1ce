"""Two factories for the partitioner's branch-and-bound configuration.

:func:`make_lp_backend` builds the LP chain and
:func:`make_incumbent_auditor` the semantic audit of heuristic
incumbents.  :class:`~repro.core.partitioner.TemporalPartitioner`
calls both when it builds a
:class:`~repro.ilp.branch_bound.BranchAndBoundConfig`.

The name is historical: the search is sequential, and specs run in
parallel only across processes (``repro batch --jobs`` and the solve
service).  The module keeps the name because ``bench/spans.py`` looks
both factories up here by module and name, and swaps in timed
versions at run time; a rename would change what the benchmark
measures.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.ilp.highs import have_highspy
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

    ``plain_search`` keeps the bare stateless backend
    :func:`~repro.ilp.scipy_backend.solve_lp_scipy`, with only
    its primary wrapped in fault injection under ``chaos``.  Otherwise
    the warm-starting incremental kernel heads the chain with the
    stateless backends behind it (only when SciPy's HiGHS binding
    passes its version guard), a
    :class:`~repro.ilp.resilience.ResilientLPBackend` wraps the chain,
    and a :class:`~repro.ilp.resilience.FaultPlan`
    additionally wraps the primary (or, with ``targets="all"``, every)
    backend in seeded fault injection with infeasible double-checking.
    Each wrapped backend draws its own fault stream, named after its
    slot (``chaos[<slot>]``).
    """
    if plain_search and chaos is None:
        return solve_lp_scipy
    chain = default_backend_chain()
    if not plain_search and have_highspy():
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
