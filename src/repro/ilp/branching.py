"""Branching rules: which fractional variable to branch on, and how.

Section 8 of the paper is entirely about this choice: "the variable
choice can be very critical in keeping the size of the b-and-b tree
small".  Its heuristic, implemented by :class:`PaperBranching`:

1. while any ``y[t,p]`` is fractional, pick the one with the lowest
   task priority index ``t`` (topological order) and lowest partition
   ``p`` — and explore the branch that *sets it to 1* first;
2. once the ``y`` are integral, pick any fractional ``u[p,k]`` — this
   cuts off, early, solutions that use an FU that does not fit the
   partition;
3. only then branch on fractional ``x[i,j,k]`` (the linearization of
   the pure scheduling subproblem is tight, so few of these remain);
4. any remaining integer variables last.

Variables carry their group/key/preferred-direction as metadata
(:class:`repro.ilp.expr.Var`), assigned by the formulation; branching
rules just order candidates by it.  Alternative rules reproduce the
paper's implicit baselines: "leave the variable selection to the solver
(which randomly chooses a variable to branch on)".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol, Sequence

from repro.ilp.model import Model


@dataclass(frozen=True)
class BranchDecision:
    """Which variable to branch on and which bound to explore first.

    ``up_first`` means: explore ``var >= ceil(value)`` (for 0-1
    variables, ``var = 1``) before ``var <= floor(value)``.
    """

    var_index: int
    up_first: bool


class BranchingRule(Protocol):
    """Strategy interface for branch-variable selection."""

    def select(
        self,
        model: Model,
        values: "Dict[int, float]",
        fractional: "Sequence[int]",
    ) -> BranchDecision:
        """Choose among ``fractional`` (indices of fractional int vars).

        ``fractional`` is non-empty; ``values`` is the LP solution.
        """
        ...  # pragma: no cover - protocol


class PaperBranching:
    """The paper's heuristic: y by (t, p) ascending, then u, then x; 1 first.

    The ordering information lives in each variable's
    ``branch_group``/``branch_key`` metadata; this rule simply takes the
    candidate with the lexicographically smallest
    ``(branch_group, branch_key, index)`` and honours the variable's
    preferred direction (the formulation sets ``branch_up_first=True``
    everywhere, matching "we always take the branch which sets the
    variable value to 1 first").
    """

    def select(self, model, values, fractional) -> BranchDecision:
        best = min(
            fractional,
            key=lambda idx: (
                model.variables[idx].branch_group,
                model.variables[idx].branch_key,
                idx,
            ),
        )
        return BranchDecision(best, model.variables[best].branch_up_first)


class FirstFractionalBranching:
    """Pick the lowest-index fractional variable, down-branch first.

    The classic textbook default; ignores all problem structure.
    """

    def select(self, model, values, fractional) -> BranchDecision:
        return BranchDecision(min(fractional), up_first=False)


class MostFractionalBranching:
    """Pick the variable whose value is closest to 0.5.

    A common general-purpose rule; branches toward the nearest integer
    first.
    """

    def select(self, model, values, fractional) -> BranchDecision:
        best = min(
            fractional, key=lambda idx: (abs(values[idx] - 0.5), idx)
        )
        return BranchDecision(best, up_first=values[best] >= 0.5)


class PseudoRandomBranching:
    """Deterministic stand-in for "the solver randomly chooses".

    Hashes the candidate set together with a seed so runs are exactly
    reproducible while still exercising arbitrary selection order —
    this models the paper's description of an unguided LP solver.
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self._counter = 0

    def select(self, model, values, fractional) -> BranchDecision:
        self._counter += 1
        ordered = sorted(fractional)
        pick = _mix(self.seed, self._counter) % len(ordered)
        idx = ordered[pick]
        return BranchDecision(idx, up_first=bool(_mix(self.seed, idx) & 1))


def _mix(seed: int, value: int) -> int:
    """A tiny deterministic integer hash (splitmix64 finalizer)."""
    x = (seed * 0x9E3779B97F4A7C15 + value + 1) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (x ^ (x >> 31)) & 0x7FFFFFFF


#: Registry the CLI and the experiment scripts select rules from by name.
RULES: "Dict[str, type]" = {
    "paper": PaperBranching,
    "first": FirstFractionalBranching,
    "most-fractional": MostFractionalBranching,
    "pseudo-random": PseudoRandomBranching,
}


def make_rule(name: str, **kwargs) -> BranchingRule:
    """Instantiate a branching rule by registry name."""
    try:
        cls = RULES[name]
    except KeyError:
        raise ValueError(
            f"unknown branching rule {name!r}; known: {sorted(RULES)}"
        ) from None
    return cls(**kwargs)
