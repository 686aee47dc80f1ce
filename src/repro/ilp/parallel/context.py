"""Worker-side problem-context construction.

A worker cannot receive the coordinator's live solver: the interesting
parts of a :class:`~repro.ilp.branch_bound.BranchAndBoundConfig` —
node prober, leaf solver, resilient backend chains — are closures,
which do not pickle.  What ships instead is a *builder address*
(module + attribute strings) plus picklable arguments; the worker
resolves the builder and calls it to rebuild the same context from
scratch in its own interpreter.  The coordinator's model fingerprint
then certifies the rebuild produced the identical search space.

A builder is any ``f(args) -> dict`` returning:

* ``"model"`` (required) — the :class:`~repro.ilp.model.Model`;
* ``"rule"`` — branching rule instance (default
  :class:`~repro.ilp.branching.PaperBranching`);
* ``"lp_backend"`` — LP backend callable;
* ``"node_prober"`` / ``"leaf_solver"`` / ``"incumbent_auditor"`` —
  the per-problem closures.

Other keys are ignored.

:func:`plain_context` is the generic builder (pickled model, incremental
kernel, optional fault injection); the temporal-partitioning builder
lives in :mod:`repro.core.parallel_support` next to the closures it
rebuilds.
"""

from __future__ import annotations

import importlib
from typing import Dict

from repro.errors import SolverError


def builder_address(builder) -> "tuple[str, str]":
    """The ``(module, qualname)`` address of a module-level builder."""
    return builder.__module__, builder.__qualname__


def resolve_builder(module: str, name: str):
    """Import and return the builder callable at ``module:name``."""
    try:
        mod = importlib.import_module(module)
        builder = getattr(mod, name)
    except (ImportError, AttributeError) as exc:
        raise SolverError(
            f"cannot resolve worker context builder {module}:{name}: {exc}"
        ) from exc
    if not callable(builder):
        raise SolverError(
            f"worker context builder {module}:{name} is not callable"
        )
    return builder


def plain_context(args: "Dict[str, object]") -> "Dict[str, object]":
    """Generic builder: pickled model + incremental kernel (+ chaos faults).

    ``args`` keys: ``model`` (Model, required), ``rule`` (optional),
    ``fault_plan`` (optional
    :class:`~repro.ilp.resilience.FaultPlan` wrapping the backend with
    seeded fault injection — the chaos tests' hook).
    """
    from repro.ilp.incremental import IncrementalLPSolver

    backend = IncrementalLPSolver()
    fault_plan = args.get("fault_plan")
    if fault_plan is not None:
        from repro.ilp.resilience import FaultInjectingBackend

        backend = FaultInjectingBackend(backend, fault_plan)
    return {
        "model": args["model"],
        "rule": args.get("rule"),
        "lp_backend": backend,
    }
