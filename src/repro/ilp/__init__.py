"""Self-contained 0-1 mixed-integer linear programming infrastructure.

The paper solved its models with ``lp_solve`` (a mid-90s public-domain
LP/ILP code) driven by custom variable-selection rules.  This package
plays that role here, fully in-repo:

* :mod:`~repro.ilp.expr` / :mod:`~repro.ilp.model` — an algebraic
  modeling layer (variables, linear expressions, constraints,
  objective) with branching metadata on variables;
* :mod:`~repro.ilp.standard_form` — compilation to sparse matrix form;
* :mod:`~repro.ilp.highs` — SciPy's vendored HiGHS binding behind a
  version guard, the HiGHS model of a standard form and the reader of
  an optimal solve, shared by the two LP paths below;
* :mod:`~repro.ilp.scipy_backend` — stateless LP relaxations: one cold
  call to SciPy's vendored HiGHS per node, on ``linprog``'s vertex bit
  for bit (``scipy.optimize.linprog`` itself when no binding loads);
* :mod:`~repro.ilp.incremental` — the persistent-model LP kernel for
  the branch-and-bound hot loop: compile once, mutate bounds per node,
  warm-start HiGHS through the same vendored binding; its faults go to
  the resilient chain below, which falls through to the cold path;
* :mod:`~repro.ilp.branch_bound` — a branch-and-bound engine with
  pluggable :mod:`~repro.ilp.branching` rules, including the paper's
  heuristic (branch on ``y`` in topological priority order, 1-branch
  first, then ``u``, then ``x``);
* :mod:`~repro.ilp.milp_backend` — an independent
  ``scipy.optimize.milp`` path used as the "leave variable selection to
  the solver" baseline and as a correctness cross-check;
* :mod:`~repro.ilp.lp_io` — CPLEX-LP-format export for debugging and
  for feeding external solvers;
* :mod:`~repro.ilp.resilience` — fault injection, the validating
  retry/fallback LP backend chain, and checkpoint/resume of the
  branch-and-bound search state.
"""

from repro.ilp.expr import LinExpr, Var
from repro.ilp.model import Constraint, Model, Sense
from repro.ilp.solution import (
    IncumbentEvent,
    LPResult,
    MilpResult,
    NodeEvent,
    SolveStats,
    SolveStatus,
    ValueVector,
    plain_values,
)
from repro.ilp.standard_form import StandardForm, compile_standard_form
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.incremental import IncrementalLPSolver
from repro.ilp.branching import (
    BranchDecision,
    BranchingRule,
    FirstFractionalBranching,
    MostFractionalBranching,
    PaperBranching,
    PseudoRandomBranching,
)
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.milp_backend import solve_milp_scipy
from repro.ilp.lp_io import write_lp_format
from repro.ilp.resilience import (
    FaultInjectingBackend,
    FaultPlan,
    ResilientLPBackend,
)

__all__ = [
    "Var",
    "LinExpr",
    "Model",
    "Constraint",
    "Sense",
    "SolveStatus",
    "SolveStats",
    "IncumbentEvent",
    "NodeEvent",
    "LPResult",
    "MilpResult",
    "ValueVector",
    "plain_values",
    "StandardForm",
    "compile_standard_form",
    "solve_lp_scipy",
    "IncrementalLPSolver",
    "BranchDecision",
    "BranchingRule",
    "PaperBranching",
    "MostFractionalBranching",
    "FirstFractionalBranching",
    "PseudoRandomBranching",
    "BranchAndBound",
    "BranchAndBoundConfig",
    "solve_milp_scipy",
    "write_lp_format",
    "FaultPlan",
    "FaultInjectingBackend",
    "ResilientLPBackend",
]
