"""Presolve: shrink a model before any LP is solved.

The pass iterates four classic MILP reductions to a fixpoint:

* **bound propagation** — each row's minimum/maximum activity under
  the current bounds implies tighter bounds on its variables
  (rounded inward for integer variables);
* **variable fixing** — singleton rows become bounds, forcing rows
  (activity range touching the rhs) pin every free variable in them;
* **coefficient tightening** — an LE row's binary coefficients are
  reduced to the largest values that leave all 0-1 points unchanged,
  which strictly tightens the LP relaxation;
* **row removal** — rows proven redundant by activity bounds, by a
  duplicate/dominating twin, or by substitution of an equality row
  they share a variable with (this is how the base model's eq. 4
  ``w >= v`` rows are detected as implied by eq. 5 ``sum v == w``,
  and how the Section-6 tightening cuts are recognized when the
  bounds already subsume them).

Rounds are incremental: a pass revisits only the rows whose inputs
changed since it last saw them (see :class:`_Engine`).

A bound contradiction or a row with no satisfiable point yields an
:class:`~repro.ilp.analysis.diagnostics.InfeasibilityCertificate`
instead of a reduced model — the certificate path never solves an LP.

Two output modes (``presolve(model, eliminate=...)``):

* ``eliminate=False`` (what the partitioning flow uses) keeps the
  full variable set — fixings become ``lb == ub`` bounds — so node
  probers, leaf solvers and branching metadata that index variables
  by position keep working unchanged; the :class:`ReductionMap` is
  then the identity.
* ``eliminate=True`` (the standalone analyzer default) removes fixed
  variables from the model entirely; the :class:`ReductionMap`
  records their values and the old-to-new index mapping so
  :meth:`ReductionMap.lift` restores a solution of the original
  model, and ``objective_offset`` restores its objective value.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ilp.analysis.diagnostics import InfeasibilityCertificate
from repro.ilp.expr import LinExpr
from repro.ilp.model import Constraint, Model, Sense

#: Support-size caps keeping the equality-substitution scan linear-ish.
_SUBST_INEQ_SUPPORT = 32
_SUBST_EQ_SUPPORT = 64


#: Cap on the fixpoint iteration.
MAX_ROUNDS = 10

#: Dirty bits of a row: the passes that must look at it again.
_PROPAGATE, _TIGHTEN, _IMPLIED = 1, 2, 4
_ALL = _PROPAGATE | _TIGHTEN | _IMPLIED

#: Absolute feasibility/rounding tolerance.
FEAS_TOL = 1e-9


@dataclass
class PresolveStats:
    """Reduction counters of one presolve run (telemetry-ready)."""

    rounds: int = 0
    vars_fixed: int = 0
    bounds_tightened: int = 0
    coeffs_tightened: int = 0
    rows_removed: int = 0
    rows_removed_by_reason: "Dict[str, int]" = field(default_factory=dict)
    vars_before: int = 0
    vars_after: int = 0
    rows_before: int = 0
    rows_after: int = 0
    nonzeros_before: int = 0
    nonzeros_after: int = 0

    def note_removal(self, reason: str) -> None:
        self.rows_removed += 1
        self.rows_removed_by_reason[reason] = (
            self.rows_removed_by_reason.get(reason, 0) + 1
        )

    def as_dict(self) -> "Dict[str, object]":
        return {
            "rounds": self.rounds,
            "vars_fixed": self.vars_fixed,
            "bounds_tightened": self.bounds_tightened,
            "coeffs_tightened": self.coeffs_tightened,
            "rows_removed": self.rows_removed,
            "rows_removed_by_reason": dict(self.rows_removed_by_reason),
            "vars_before": self.vars_before,
            "vars_after": self.vars_after,
            "rows_before": self.rows_before,
            "rows_after": self.rows_after,
            "nonzeros_before": self.nonzeros_before,
            "nonzeros_after": self.nonzeros_after,
        }


@dataclass(frozen=True)
class ReductionMap:
    """How to translate reduced-model solutions back to the original.

    ``index_map`` maps original variable indices to reduced indices
    (identity in non-eliminating mode); ``fixed_values`` holds the
    eliminated variables; ``objective_offset`` is the objective
    contribution of the eliminated variables.
    """

    num_original_vars: int
    index_map: "Mapping[int, int]"
    fixed_values: "Mapping[int, float]"
    objective_offset: float = 0.0

    def lift(self, values: "Mapping[int, float]") -> "Dict[int, float]":
        """A reduced-model solution as an original-model assignment."""
        lifted: "Dict[int, float]" = dict(self.fixed_values)
        for orig, new in self.index_map.items():
            lifted[orig] = values[new]
        return lifted

    def lift_objective(self, reduced_objective: float) -> float:
        """The original objective value of a reduced-model optimum."""
        return reduced_objective + self.objective_offset


@dataclass(frozen=True)
class PresolveResult:
    """Outcome of :func:`presolve`.

    Either ``model``/``map`` are set (feasibility not disproved) or
    ``certificate`` is set (the model is proven infeasible without a
    single LP call); ``stats`` is always present.
    """

    stats: PresolveStats
    model: "Optional[Model]" = None
    map: "Optional[ReductionMap]" = None
    certificate: "Optional[InfeasibilityCertificate]" = None

    @property
    def is_infeasible(self) -> bool:
        return self.certificate is not None


class _Row:
    """One working constraint, normalized to LE or EQ."""

    __slots__ = ("coeffs", "sense", "rhs", "tag", "name", "alive")

    def __init__(self, coeffs, sense, rhs, tag, name):
        self.coeffs: "Dict[int, float]" = coeffs
        self.sense: Sense = sense
        self.rhs: float = rhs
        self.tag: str = tag
        self.name: str = name
        self.alive: bool = True

    def label(self, index: int) -> str:
        return self.name if self.name else f"row#{index}"


class _Infeasible(Exception):
    """Internal control flow: carries the certificate."""

    def __init__(self, certificate: InfeasibilityCertificate) -> None:
        super().__init__(certificate.reason)
        self.certificate = certificate


def presolve(
    model: Model, *, eliminate: bool = True, deadline: "Optional[float]" = None
) -> PresolveResult:
    """Run the presolve pass on ``model`` (which is left untouched).

    ``eliminate`` selects the output mode (see module docstring).
    ``deadline`` is a :func:`time.monotonic` instant: once it has
    passed, no further pass starts and the reductions made so far are
    returned (each is valid on its own).
    """
    engine = _Engine(model, eliminate, deadline)
    try:
        engine.run()
    except _Infeasible as stop:
        engine.stats.rows_after = sum(1 for r in engine.rows if r.alive)
        return PresolveResult(stats=engine.stats, certificate=stop.certificate)
    return engine.build_result()


class _Engine:
    """The mutable working state of one presolve run.

    Each row has a dirty bit per pass that reads bounds.  A bound change
    sets all bits on the rows of its column, and the implied bit on the
    rows sharing a column with an equality of that column; a coefficient
    change sets all bits on its row.  A pass visits, in row order, the
    live rows whose bit is set, so rows marked earlier in the same pass
    are visited too.  Skipping a clean row is exact: its coefficients and
    the bounds the pass reads are those of the last visit, which changed
    nothing.  (Equalities never change and only die, and fewer of them
    cannot make a failed substitution succeed.)  The duplicate pass reads
    no bounds and compares only rows of equal sense and support.
    """

    def __init__(self, model: Model, eliminate: bool, deadline: "Optional[float]") -> None:
        self.model = model
        self.eliminate = eliminate
        self.deadline = deadline
        self.stats = PresolveStats(
            vars_before=model.num_vars,
            rows_before=model.num_constraints,
            nonzeros_before=model.num_nonzeros,
        )
        self.lb: "List[float]" = [v.lb for v in model.variables]
        self.ub: "List[float]" = [v.ub for v in model.variables]
        self.is_int: "List[bool]" = [v.is_integer for v in model.variables]
        self.rows: "List[_Row]" = []
        tags = model.constraint_tags
        for con, tag in zip(model.constraints, tags):
            coeffs = {i: c for i, c in con.expr.coeffs.items() if c != 0.0}
            if con.sense is Sense.GE:
                coeffs = {i: -c for i, c in coeffs.items()}
                self.rows.append(_Row(coeffs, Sense.LE, -con.rhs, tag, con.name))
            else:
                self.rows.append(_Row(coeffs, con.sense, con.rhs, tag, con.name))
        self.dirty: "List[int]" = [_ALL] * len(self.rows)
        # Column -> rows, and column -> equalities small enough to
        # substitute; both in row order.
        self.rows_of: "List[List[int]]" = [[] for _ in self.lb]
        self.eqs_of: "Dict[int, List[int]]" = {}
        for index, row in enumerate(self.rows):
            small_eq = row.sense is Sense.EQ and len(row.coeffs) <= _SUBST_EQ_SUPPORT
            for idx in row.coeffs:
                self.rows_of[idx].append(index)
                if small_eq:
                    self.eqs_of.setdefault(idx, []).append(index)
        # Rows of equal sense and support hash alike; int keys keep no
        # object alive, and a collision costs only a signature.
        keys = [hash((r.sense is Sense.EQ, frozenset(r.coeffs))) for r in self.rows]
        counts = Counter(keys)
        self.twins = [i for i, key in enumerate(keys) if counts[key] > 1 and self.rows[i].coeffs]
        self.signatures: "Dict[int, Tuple]" = {}

    # ------------------------------------------------------------------
    # driver

    def run(self) -> None:
        passes = (self._propagate_pass, self._tighten_pass, self._duplicate_pass,
                  self._implied_pass)
        for round_no in range(1, MAX_ROUNDS + 1):
            changed = False
            for step in passes:
                if self.deadline is not None and time.monotonic() >= self.deadline:
                    return
                self.stats.rounds = round_no
                changed |= step()
            if not changed:
                break

    def _stale(self, bit: int):
        """``(index, row)`` of each live row with dirty ``bit``, cleared."""
        dirty, rows = self.dirty, self.rows
        for index in range(len(rows)):
            if dirty[index] & bit and rows[index].alive:
                dirty[index] &= ~bit
                yield index, rows[index]

    def _moved(self, idx: int, was_free: bool) -> bool:
        """Count a bound change of column ``idx`` and mark the rows that
        read its bounds."""
        self.stats.bounds_tightened += 1
        if was_free and self._is_fixed(idx):
            self.stats.vars_fixed += 1
        dirty, rows_of = self.dirty, self.rows_of
        for index in rows_of[idx]:
            dirty[index] = _ALL
        for eq in self.eqs_of.get(idx, ()):
            if self.rows[eq].alive:
                for col in self.rows[eq].coeffs:
                    for index in rows_of[col]:
                        dirty[index] |= _IMPLIED
        return True

    # ------------------------------------------------------------------
    # activity helpers

    def _is_fixed(self, idx: int) -> bool:
        return self.ub[idx] - self.lb[idx] <= FEAS_TOL

    def _activity(self, row: _Row) -> "Tuple[float, float]":
        lb, ub = self.lb, self.ub
        lo = hi = 0.0
        for idx, coef in row.coeffs.items():
            a = coef * lb[idx]
            b = coef * ub[idx]
            if a <= b:
                lo += a
                hi += b
            else:
                lo += b
                hi += a
        return lo, hi

    def _free_support(self, row: _Row) -> "List[int]":
        lb, ub = self.lb, self.ub
        return [idx for idx in row.coeffs if not ub[idx] - lb[idx] <= FEAS_TOL]

    def _fixed_sum(self, row: _Row) -> float:
        return sum(
            coef * self.lb[idx]
            for idx, coef in row.coeffs.items()
            if self._is_fixed(idx)
        )

    # ------------------------------------------------------------------
    # bound updates

    def _set_ub(self, idx: int, value: float) -> bool:
        if self.is_int[idx]:
            value = math.floor(value + 1e-6)
        if value >= self.ub[idx] - FEAS_TOL:
            return False
        if value < self.lb[idx] - FEAS_TOL:
            raise self._contradiction(idx, value, upper=True)
        was_free = not self._is_fixed(idx)
        self.ub[idx] = max(value, self.lb[idx])
        return self._moved(idx, was_free)

    def _set_lb(self, idx: int, value: float) -> bool:
        if self.is_int[idx]:
            value = math.ceil(value - 1e-6)
        if value <= self.lb[idx] + FEAS_TOL:
            return False
        if value > self.ub[idx] + FEAS_TOL:
            raise self._contradiction(idx, value, upper=False)
        was_free = not self._is_fixed(idx)
        self.lb[idx] = min(value, self.ub[idx])
        return self._moved(idx, was_free)

    def _contradiction(self, idx: int, value: float, upper: bool) -> _Infeasible:
        var = self.model.variables[idx]
        sense, side, other = (
            ("<=", "lower", self.lb[idx]) if upper else (">=", "upper", self.ub[idx])
        )
        return _Infeasible(InfeasibilityCertificate(
            code="bound-contradiction",
            reason=(
                f"propagation forces {var.name} {sense} {value:g} while its "
                f"{side} bound is {other:g}"
            ),
            details={"variable": var.name,
                     "implied_ub" if upper else "implied_lb": value,
                     side[0] + "b": other},
        ))

    def _fix(self, idx: int, value: float) -> bool:
        changed = False
        if value > self.lb[idx] + FEAS_TOL:
            changed |= self._set_lb(idx, value)
        if value < self.ub[idx] - FEAS_TOL:
            changed |= self._set_ub(idx, value)
        return changed

    # ------------------------------------------------------------------
    # the propagation / fixing / removal pass

    def _row_infeasible(self, row: _Row, index: int, lo: float, hi: float) -> _Infeasible:
        sense = "<=" if row.sense is Sense.LE else "="
        return _Infeasible(InfeasibilityCertificate(
            code="row-infeasible",
            reason=(
                f"constraint {row.label(index)} requires activity {sense} "
                f"{row.rhs:g} but the variable bounds only allow "
                f"[{lo:g}, {hi:g}]"
            ),
            details={"row": row.label(index), "tag": row.tag, "rhs": row.rhs,
                     "min_activity": lo, "max_activity": hi},
        ))

    def _propagate_pass(self) -> bool:
        changed = False
        for index, row in self._stale(_PROPAGATE):
            changed |= self._propagate_row(index, row)
        return changed

    def _propagate_row(self, index: int, row: _Row) -> bool:
        tol = FEAS_TOL
        lo, hi = self._activity(row)
        if row.sense is Sense.LE:
            if lo > row.rhs + max(tol, 1e-7):
                raise self._row_infeasible(row, index, lo, hi)
            if hi <= row.rhs + tol:
                return self._remove(row, "redundant")
            if lo >= row.rhs - tol:
                # Forcing: only the minimum-activity point fits.
                return self._force(row, self._free_support(row), low=True)
            return self._propagate_le(row, lo)
        if lo > row.rhs + max(tol, 1e-7) or hi < row.rhs - max(tol, 1e-7):
            raise self._row_infeasible(row, index, lo, hi)
        free = self._free_support(row)
        if not free:
            return self._remove(row, "redundant")
        if len(free) == 1:
            idx = free[0]
            coef = row.coeffs[idx]
            value = (row.rhs - self._fixed_sum(row)) / coef
            if self.is_int[idx] and abs(value - round(value)) > 1e-6:
                var = self.model.variables[idx]
                raise _Infeasible(InfeasibilityCertificate(
                    code="row-infeasible",
                    reason=(
                        f"constraint {row.label(index)} forces integer "
                        f"variable {var.name} to the fractional value "
                        f"{value:g}"
                    ),
                    details={"row": row.label(index), "tag": row.tag,
                             "variable": var.name, "value": value},
                ))
            self._fix(idx, round(value) if self.is_int[idx] else value)
            return self._remove(row, "singleton")
        if hi <= row.rhs + tol:
            # Only the maximum-activity point attains the rhs.
            return self._force(row, free, low=False)
        if lo >= row.rhs - tol:
            return self._force(row, free, low=True)
        return self._propagate_eq(row, lo, hi)

    def _remove(self, row: _Row, reason: str) -> bool:
        row.alive = False
        self.stats.note_removal(reason)
        return True

    def _force(self, row: _Row, free: "List[int]", low: bool) -> bool:
        """Fix ``free`` where the row's activity is lowest (``low``) or
        highest, and remove the row."""
        for idx in free:
            at_lb = (row.coeffs[idx] > 0) == low
            self._fix(idx, self.lb[idx] if at_lb else self.ub[idx])
        return self._remove(row, "forcing")

    def _propagate_le(self, row: _Row, lo: float) -> bool:
        """Singleton conversion and bound propagation for one LE row
        of minimum activity ``lo``."""
        free = self._free_support(row)
        if len(free) == 1:
            idx = free[0]
            coef = row.coeffs[idx]
            residual = row.rhs - self._fixed_sum(row)
            if coef > 0:
                self._set_ub(idx, residual / coef)
            else:
                self._set_lb(idx, residual / coef)
            return self._remove(row, "singleton")
        changed = False
        lb, ub = self.lb, self.ub
        for idx in free:
            coef = row.coeffs[idx]
            a = coef * lb[idx]
            b = coef * ub[idx]
            residual = lo - (a if a <= b else b)
            limit = row.rhs - residual
            if coef > 0:
                implied = limit / coef
                if implied < self.ub[idx] - 1e-7:
                    changed |= self._set_ub(idx, implied)
            else:
                implied = limit / coef
                if implied > self.lb[idx] + 1e-7:
                    changed |= self._set_lb(idx, implied)
        return changed

    def _propagate_eq(self, row: _Row, lo: float, hi: float) -> bool:
        """Two-sided bound propagation for one equality row."""
        changed = False
        for idx in self._free_support(row):
            coef = row.coeffs[idx]
            a = coef * self.lb[idx]
            b = coef * self.ub[idx]
            min_contrib, max_contrib = (a, b) if a <= b else (b, a)
            le_limit = row.rhs - (lo - min_contrib)
            ge_limit = row.rhs - (hi - max_contrib)
            if coef > 0:
                if le_limit / coef < self.ub[idx] - 1e-7:
                    changed |= self._set_ub(idx, le_limit / coef)
                if ge_limit / coef > self.lb[idx] + 1e-7:
                    changed |= self._set_lb(idx, ge_limit / coef)
            else:
                if le_limit / coef > self.lb[idx] + 1e-7:
                    changed |= self._set_lb(idx, le_limit / coef)
                if ge_limit / coef < self.ub[idx] - 1e-7:
                    changed |= self._set_ub(idx, ge_limit / coef)
        return changed

    # ------------------------------------------------------------------
    # coefficient tightening (LE rows, binary variables)

    def _tighten_pass(self) -> bool:
        changed = False
        lb, ub, is_int = self.lb, self.ub, self.is_int
        for index, row in self._stale(_TIGHTEN):
            if row.sense is not Sense.LE:
                continue
            _, hi = self._activity(row)
            tightened = False
            for idx in list(row.coeffs):
                # Binary columns only (a 0-1 box is never fixed).
                if not (is_int[idx] and lb[idx] == 0.0 and ub[idx] == 1.0):
                    continue
                coef = row.coeffs[idx]
                a = coef * lb[idx]
                b = coef * ub[idx]
                rest_max = hi - (b if a <= b else a)
                if coef > 0:
                    # Valid when rhs - coef < rest_max < rhs: shrink both
                    # the coefficient and the rhs; 0-1 points unchanged,
                    # fractional points strictly cut.
                    if rest_max < row.rhs - 1e-9 and rest_max > row.rhs - coef + 1e-9:
                        new_coef = rest_max - (row.rhs - coef)
                        hi += (new_coef - coef)  # ub contribution shrinks
                        row.coeffs[idx] = new_coef
                        row.rhs = rest_max
                        self.stats.coeffs_tightened += 1
                        tightened = True
                else:
                    # Mirror case via the complement variable: shrink the
                    # magnitude of a negative coefficient, rhs unchanged.
                    if rest_max > row.rhs + 1e-9 and rest_max < row.rhs - coef - 1e-9:
                        new_coef = row.rhs - rest_max
                        row.coeffs[idx] = new_coef
                        self.stats.coeffs_tightened += 1
                        tightened = True
            if tightened:
                changed = True
                self.dirty[index] = _ALL
                self.signatures.pop(index, None)
        return changed

    # ------------------------------------------------------------------
    # duplicate / dominated rows

    def _signature(self, row: _Row) -> "Tuple":
        items = sorted(row.coeffs.items())
        scale = max(abs(c) for _, c in items)
        if row.sense is Sense.EQ and items[0][1] < 0:
            scale = -scale
        key = tuple((idx, round(coef / scale, 12)) for idx, coef in items)
        return (row.sense.value, key), row.rhs / scale

    def _duplicate_pass(self) -> bool:
        changed = False
        best: "Dict[Tuple, Tuple[int, float]]" = {}
        for index in self.twins:
            row = self.rows[index]
            if not row.alive:
                continue
            sig = self.signatures.get(index)
            if sig is None:
                sig = self.signatures[index] = self._signature(row)
            key, rhs = sig
            if key not in best:
                best[key] = (index, rhs)
                continue
            kept_index, kept_rhs = best[key]
            if row.sense is Sense.EQ:
                if abs(rhs - kept_rhs) <= 1e-9:
                    changed = self._remove(row, "duplicate")
                else:
                    kept = self.rows[kept_index]
                    raise _Infeasible(InfeasibilityCertificate(
                        code="row-infeasible",
                        reason=(
                            f"equality constraints {kept.label(kept_index)} and "
                            f"{row.label(index)} share coefficients but demand "
                            f"different right-hand sides"
                        ),
                        details={"rows": [kept.label(kept_index), row.label(index)],
                                 "rhs": [kept_rhs, rhs]},
                    ))
                continue
            # LE twins: keep the tighter rhs, drop the other.
            if rhs >= kept_rhs - 1e-9:
                reason = "duplicate" if abs(rhs - kept_rhs) <= 1e-9 else "dominated"
                changed = self._remove(row, reason)
            else:
                changed = self._remove(self.rows[kept_index], "dominated")
                best[key] = (index, rhs)
        return changed

    # ------------------------------------------------------------------
    # implied redundancy via equality substitution

    def _implied_pass(self) -> bool:
        changed = False
        ranges: "Dict[int, Tuple[float, int, float, int]]" = {}
        for _, row in self._stale(_IMPLIED):
            if row.sense is not Sense.LE or len(row.coeffs) > _SUBST_INEQ_SUPPORT:
                continue
            if self._implied_by_equality(row, ranges):
                changed = self._remove(row, "implied")
        return changed

    def _eq_range(self, eq: _Row) -> "Tuple[float, int, float, int]":
        """Min and max activity of ``eq``, each as (finite part, number of
        infinite terms)."""
        lo = hi = 0.0
        lo_inf = hi_inf = 0
        for idx, coef in eq.coeffs.items():
            a, b = sorted((coef * self.lb[idx], coef * self.ub[idx]))
            if math.isinf(a):
                lo_inf += 1
            else:
                lo += a
            if math.isinf(b):
                hi_inf += 1
            else:
                hi += b
        return lo, lo_inf, hi, hi_inf

    def _implied_by_equality(self, row: _Row, ranges) -> bool:
        """Whether substituting some equality row proves ``row`` redundant.

        Eliminating ``x_j`` by ``c.x == d`` turns ``a.x <= b`` into
        ``(a - r c).x <= b - r d``, ``r = a_j / c_j``.  Its maximum
        activity is summed without building it: the equality's columns
        outside ``a`` add ``-r`` times their minimum (``r > 0``) or
        maximum activity, from the per-pass ``ranges``.
        """
        lb, ub, rows = self.lb, self.ub, self.rows
        coeffs = row.coeffs
        for j, a_j in coeffs.items():
            for e in self.eqs_of.get(j, ()):
                eq = rows[e]
                if not eq.alive:
                    continue
                if e not in ranges:
                    ranges[e] = self._eq_range(eq)
                ratio = a_j / eq.coeffs[j]
                lo, lo_inf, hi, hi_inf = ranges[e]
                rest, infinite = (lo, lo_inf) if ratio > 0 else (hi, hi_inf)
                top = 0.0
                for i, a_i in coeffs.items():
                    l_i, u_i = lb[i], ub[i]
                    c_i = eq.coeffs.get(i)
                    if c_i is not None:
                        a = c_i * l_i
                        b = c_i * u_i
                        part = (a if a <= b else b) if ratio > 0 else (b if a <= b else a)
                        if math.isinf(part):
                            infinite -= 1
                        else:
                            rest -= part
                        if i == j:
                            continue
                        a_i -= ratio * c_i
                    a = a_i * l_i
                    b = a_i * u_i
                    term = b if a <= b else a
                    if term == math.inf:
                        infinite += 1
                    else:
                        top += term
                if not infinite and top - ratio * rest <= row.rhs - ratio * eq.rhs + 1e-9:
                    return True
        return False

    # ------------------------------------------------------------------
    # output construction

    def build_result(self) -> PresolveResult:
        if self.eliminate:
            reduced, rmap = self._build_eliminated()
        else:
            reduced, rmap = self._build_same_space()
        self.stats.vars_after = reduced.num_vars
        self.stats.rows_after = reduced.num_constraints
        self.stats.nonzeros_after = reduced.num_nonzeros
        return PresolveResult(stats=self.stats, model=reduced, map=rmap)

    def _clone_var(self, target: Model, var, lb: float, ub: float):
        return target.add_var(
            var.name,
            lb=lb,
            ub=ub,
            integer=var.is_integer,
            branch_group=var.branch_group,
            branch_key=var.branch_key,
            branch_up_first=var.branch_up_first,
        )

    def _build_same_space(self) -> "Tuple[Model, ReductionMap]":
        model = self.model
        reduced = Model(model.name)
        for var in model.variables:
            self._clone_var(reduced, var, self.lb[var.index], self.ub[var.index])
        for row in self.rows:
            if not row.alive:
                continue
            reduced.add(
                Constraint(LinExpr(row.coeffs), row.sense, row.rhs, row.name),
                tag=row.tag,
            )
        reduced.set_objective(model.objective.copy())
        variables = reduced.variables
        for group in model.sos1_groups:
            reduced.add_sos1_group([variables[idx] for idx in group])
        rmap = ReductionMap(
            num_original_vars=model.num_vars,
            index_map={i: i for i in range(model.num_vars)},
            fixed_values={},
            objective_offset=0.0,
        )
        return reduced, rmap

    def _build_eliminated(self) -> "Tuple[Model, ReductionMap]":
        model = self.model
        fixed_values: "Dict[int, float]" = {}
        index_map: "Dict[int, int]" = {}
        reduced = Model(model.name)
        for var in model.variables:
            idx = var.index
            if self._is_fixed(idx):
                value = self.lb[idx]
                if self.is_int[idx]:
                    value = float(round(value))
                fixed_values[idx] = value
            else:
                index_map[idx] = reduced.num_vars
                self._clone_var(reduced, var, self.lb[idx], self.ub[idx])
        variables = reduced.variables
        for row in self.rows:
            if not row.alive:
                continue
            coeffs: "Dict[int, float]" = {}
            rhs = row.rhs
            for idx, coef in row.coeffs.items():
                if idx in fixed_values:
                    rhs -= coef * fixed_values[idx]
                elif coef != 0.0:
                    coeffs[index_map[idx]] = coef
            if not coeffs:
                self.stats.note_removal("redundant")
                continue
            reduced.add(
                Constraint(LinExpr(coeffs), row.sense, rhs, row.name), tag=row.tag
            )
        objective = model.objective
        offset = 0.0
        obj_coeffs: "Dict[int, float]" = {}
        for idx, coef in objective.coeffs.items():
            if idx in fixed_values:
                offset += coef * fixed_values[idx]
            elif coef != 0.0:
                obj_coeffs[index_map[idx]] = coef
        reduced.set_objective(LinExpr(obj_coeffs, objective.constant))
        for group in model.sos1_groups:
            kept = [variables[index_map[idx]] for idx in group if idx in index_map]
            if len(kept) >= 2:
                reduced.add_sos1_group(kept)
        rmap = ReductionMap(
            num_original_vars=model.num_vars,
            index_map=index_map,
            fixed_values=fixed_values,
            objective_offset=offset,
        )
        return reduced, rmap
