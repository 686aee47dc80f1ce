"""The combined static-analysis entry point.

:func:`analyze_model` runs lint and presolve over one model and folds
both into a single :class:`AnalysisReport` — the object the ``repro
lint`` CLI renders and the exit-code policy is defined on:

* exit 2 — any ERROR diagnostic or an infeasibility certificate;
* exit 1 — warnings only;
* exit 0 — clean (INFO findings do not fail a lint run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ilp.analysis.diagnostics import (
    Diagnostic,
    InfeasibilityCertificate,
    Severity,
    worst_severity,
)
from repro.ilp.analysis.lint import lint_model
from repro.ilp.analysis.presolve import PresolveResult, presolve
from repro.ilp.model import Model


@dataclass(frozen=True)
class AnalysisReport:
    """Lint findings plus presolve outcome for one model."""

    model_name: str
    diagnostics: "List[Diagnostic]"
    presolve: "Optional[PresolveResult]" = None
    certificates: "List[InfeasibilityCertificate]" = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        """The ``repro lint`` exit-code policy (0 clean / 1 warn / 2 error)."""
        if self.certificates:
            return 2
        worst = worst_severity(self.diagnostics)
        if worst is Severity.ERROR:
            return 2
        if worst is Severity.WARNING:
            return 1
        return 0

    def as_dict(self) -> "Dict[str, object]":
        payload: "Dict[str, object]" = {
            "model": self.model_name,
            "exit_code": self.exit_code,
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "certificates": [c.as_dict() for c in self.certificates],
        }
        if self.presolve is not None:
            payload["presolve"] = self.presolve.stats.as_dict()
        return payload


def analyze_model(
    model: Model,
    run_presolve: bool = True,
) -> AnalysisReport:
    """Lint ``model`` and (by default) presolve it.

    A presolve infeasibility certificate lands in ``certificates``;
    structural spec-level certificates, which need the problem
    specification rather than the model, are the business of
    :func:`repro.core.precheck.precheck_spec` and are merged by the
    CLI layer.
    """
    diagnostics = lint_model(model)
    result: "Optional[PresolveResult]" = None
    certificates: "List[InfeasibilityCertificate]" = []
    if run_presolve:
        result = presolve(model)
        if result.certificate is not None:
            certificates.append(result.certificate)
    return AnalysisReport(
        model_name=model.name,
        diagnostics=diagnostics,
        presolve=result,
        certificates=certificates,
    )
