"""Static analysis of 0-1 models: lint, presolve, certificates.

The paper's tightening story (eqs. 28-32) is a static analysis of the
formulation; this package generalizes it into a reusable pre-solve
layer over any :class:`~repro.ilp.model.Model`:

* :func:`lint_model` — structural diagnostics (orphaned variables,
  empty/duplicate/dominated/infeasible rows, SOS1 inconsistencies,
  risky coefficient ranges);
* :func:`presolve` — bound propagation, variable fixing, coefficient
  tightening and redundant-row removal, with a :class:`ReductionMap`
  back to the original variable space;
* :func:`analyze_model` — both at once, as the ``repro lint`` CLI and
  the solver pre-pass consume them.

Everything here runs before (and without) any LP solve.
"""

from repro.ilp.analysis.analyzer import AnalysisReport, analyze_model
from repro.ilp.analysis.diagnostics import (
    CERTIFICATE_CODES,
    DIAGNOSTIC_CODES,
    Diagnostic,
    InfeasibilityCertificate,
    Severity,
    worst_severity,
)
from repro.ilp.analysis.lint import lint_model
from repro.ilp.analysis.presolve import (
    PresolveResult,
    PresolveStats,
    ReductionMap,
    presolve,
)

__all__ = [
    "AnalysisReport",
    "analyze_model",
    "CERTIFICATE_CODES",
    "DIAGNOSTIC_CODES",
    "Diagnostic",
    "InfeasibilityCertificate",
    "Severity",
    "worst_severity",
    "lint_model",
    "PresolveResult",
    "PresolveStats",
    "ReductionMap",
    "presolve",
]
