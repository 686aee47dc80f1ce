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


def presolve(model: Model, *, eliminate: bool = True) -> PresolveResult:
    """Run the presolve pass on ``model`` (which is left untouched).

    ``eliminate`` selects the output mode (see module docstring).
    """
    engine = _Engine(model, eliminate)
    try:
        engine.run()
    except _Infeasible as stop:
        engine.stats.rows_after = sum(1 for r in engine.rows if r.alive)
        return PresolveResult(stats=engine.stats, certificate=stop.certificate)
    return engine.build_result()


class _Engine:
    """The mutable working state of one presolve run."""

    def __init__(self, model: Model, eliminate: bool) -> None:
        self.model = model
        self.eliminate = eliminate
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

    # ------------------------------------------------------------------
    # driver

    def run(self) -> None:
        for round_no in range(1, MAX_ROUNDS + 1):
            self.stats.rounds = round_no
            changed = self._propagate_pass()
            changed |= self._tighten_pass()
            changed |= self._duplicate_pass()
            changed |= self._implied_pass()
            if not changed:
                break

    # ------------------------------------------------------------------
    # activity helpers

    def _is_fixed(self, idx: int) -> bool:
        return self.ub[idx] - self.lb[idx] <= FEAS_TOL

    def _contrib_range(self, idx: int, coef: float) -> "Tuple[float, float]":
        a = coef * self.lb[idx]
        b = coef * self.ub[idx]
        return (a, b) if a <= b else (b, a)

    def _activity(self, row: _Row) -> "Tuple[float, float]":
        lo = hi = 0.0
        for idx, coef in row.coeffs.items():
            a, b = self._contrib_range(idx, coef)
            lo += a
            hi += b
        return lo, hi

    def _free_support(self, row: _Row) -> "List[int]":
        return [idx for idx in row.coeffs if not self._is_fixed(idx)]

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
            var = self.model.variables[idx]
            raise _Infeasible(InfeasibilityCertificate(
                code="bound-contradiction",
                reason=(
                    f"propagation forces {var.name} <= {value:g} while its "
                    f"lower bound is {self.lb[idx]:g}"
                ),
                details={"variable": var.name, "implied_ub": value,
                         "lb": self.lb[idx]},
            ))
        was_free = not self._is_fixed(idx)
        self.ub[idx] = max(value, self.lb[idx])
        self.stats.bounds_tightened += 1
        if was_free and self._is_fixed(idx):
            self.stats.vars_fixed += 1
        return True

    def _set_lb(self, idx: int, value: float) -> bool:
        if self.is_int[idx]:
            value = math.ceil(value - 1e-6)
        if value <= self.lb[idx] + FEAS_TOL:
            return False
        if value > self.ub[idx] + FEAS_TOL:
            var = self.model.variables[idx]
            raise _Infeasible(InfeasibilityCertificate(
                code="bound-contradiction",
                reason=(
                    f"propagation forces {var.name} >= {value:g} while its "
                    f"upper bound is {self.ub[idx]:g}"
                ),
                details={"variable": var.name, "implied_lb": value,
                         "ub": self.ub[idx]},
            ))
        was_free = not self._is_fixed(idx)
        self.lb[idx] = min(value, self.ub[idx])
        self.stats.bounds_tightened += 1
        if was_free and self._is_fixed(idx):
            self.stats.vars_fixed += 1
        return True

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
        tol = FEAS_TOL
        for index, row in enumerate(self.rows):
            if not row.alive:
                continue
            lo, hi = self._activity(row)
            if row.sense is Sense.LE:
                if lo > row.rhs + max(tol, 1e-7):
                    raise self._row_infeasible(row, index, lo, hi)
                if hi <= row.rhs + tol:
                    row.alive = False
                    self.stats.note_removal("redundant")
                    changed = True
                    continue
                if lo >= row.rhs - tol:
                    # Forcing: only the minimum-activity point fits.
                    for idx in self._free_support(row):
                        bound = self.lb[idx] if row.coeffs[idx] > 0 else self.ub[idx]
                        changed |= self._fix(idx, bound)
                    row.alive = False
                    self.stats.note_removal("forcing")
                    changed = True
                    continue
                changed |= self._propagate_le(row)
            else:  # EQ
                if lo > row.rhs + max(tol, 1e-7) or hi < row.rhs - max(tol, 1e-7):
                    raise self._row_infeasible(row, index, lo, hi)
                free = self._free_support(row)
                if not free:
                    row.alive = False
                    self.stats.note_removal("redundant")
                    changed = True
                    continue
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
                    changed |= self._fix(idx, round(value) if self.is_int[idx] else value)
                    row.alive = False
                    self.stats.note_removal("singleton")
                    changed = True
                    continue
                if hi <= row.rhs + tol:
                    # Only the maximum-activity point attains the rhs.
                    for idx in free:
                        bound = self.ub[idx] if row.coeffs[idx] > 0 else self.lb[idx]
                        changed |= self._fix(idx, bound)
                    row.alive = False
                    self.stats.note_removal("forcing")
                    changed = True
                    continue
                if lo >= row.rhs - tol:
                    for idx in free:
                        bound = self.lb[idx] if row.coeffs[idx] > 0 else self.ub[idx]
                        changed |= self._fix(idx, bound)
                    row.alive = False
                    self.stats.note_removal("forcing")
                    changed = True
                    continue
                changed |= self._propagate_eq(row, lo, hi)
        return changed

    def _propagate_le(self, row: _Row) -> bool:
        """Singleton conversion and bound propagation for one LE row."""
        changed = False
        free = self._free_support(row)
        if len(free) == 1:
            idx = free[0]
            coef = row.coeffs[idx]
            residual = row.rhs - self._fixed_sum(row)
            if coef > 0:
                changed |= self._set_ub(idx, residual / coef)
            else:
                changed |= self._set_lb(idx, residual / coef)
            row.alive = False
            self.stats.note_removal("singleton")
            return True
        lo, _ = self._activity(row)
        for idx in free:
            coef = row.coeffs[idx]
            min_contrib, _ = self._contrib_range(idx, coef)
            residual = lo - min_contrib
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
            min_contrib, max_contrib = self._contrib_range(idx, coef)
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
        for row in self.rows:
            if not row.alive or row.sense is not Sense.LE:
                continue
            _, hi = self._activity(row)
            for idx in list(row.coeffs):
                if self._is_fixed(idx):
                    continue
                if not (self.is_int[idx] and self.lb[idx] == 0.0 and self.ub[idx] == 1.0):
                    continue
                coef = row.coeffs[idx]
                _, max_contrib = self._contrib_range(idx, coef)
                rest_max = hi - max_contrib
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
                        changed = True
                else:
                    # Mirror case via the complement variable: shrink the
                    # magnitude of a negative coefficient, rhs unchanged.
                    if rest_max > row.rhs + 1e-9 and rest_max < row.rhs - coef - 1e-9:
                        new_coef = row.rhs - rest_max
                        row.coeffs[idx] = new_coef
                        self.stats.coeffs_tightened += 1
                        changed = True
        return changed

    # ------------------------------------------------------------------
    # duplicate / dominated rows

    def _signature(self, row: _Row) -> "Optional[Tuple]":
        items = sorted(
            (idx, coef) for idx, coef in row.coeffs.items() if coef != 0.0
        )
        if not items:
            return None
        scale = max(abs(c) for _, c in items)
        if row.sense is Sense.EQ and items[0][1] < 0:
            scale = -scale
        key = tuple((idx, round(coef / scale, 12)) for idx, coef in items)
        return (row.sense.value, key), row.rhs / scale

    def _duplicate_pass(self) -> bool:
        changed = False
        best: "Dict[Tuple, Tuple[int, float]]" = {}
        for index, row in enumerate(self.rows):
            if not row.alive:
                continue
            sig = self._signature(row)
            if sig is None:
                continue
            key, rhs = sig
            if key not in best:
                best[key] = (index, rhs)
                continue
            kept_index, kept_rhs = best[key]
            if row.sense is Sense.EQ:
                if abs(rhs - kept_rhs) <= 1e-9:
                    row.alive = False
                    self.stats.note_removal("duplicate")
                    changed = True
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
                row.alive = False
                reason = "duplicate" if abs(rhs - kept_rhs) <= 1e-9 else "dominated"
                self.stats.note_removal(reason)
                changed = True
            else:
                self.rows[kept_index].alive = False
                self.stats.note_removal("dominated")
                best[key] = (index, rhs)
                changed = True
        return changed

    # ------------------------------------------------------------------
    # implied redundancy via equality substitution

    def _implied_pass(self) -> bool:
        changed = False
        eq_by_var: "Dict[int, List[_Row]]" = {}
        for row in self.rows:
            if row.alive and row.sense is Sense.EQ and len(row.coeffs) <= _SUBST_EQ_SUPPORT:
                for idx in row.coeffs:
                    eq_by_var.setdefault(idx, []).append(row)
        for index, row in enumerate(self.rows):
            if not row.alive or row.sense is not Sense.LE:
                continue
            if len(row.coeffs) > _SUBST_INEQ_SUPPORT:
                continue
            if self._implied_by_equality(row, eq_by_var):
                row.alive = False
                self.stats.note_removal("implied")
                changed = True
        return changed

    def _implied_by_equality(self, row: _Row, eq_by_var) -> bool:
        """Whether substituting some equality row proves ``row`` redundant."""
        for j, a_j in row.coeffs.items():
            for eq in eq_by_var.get(j, ()):
                c_j = eq.coeffs.get(j, 0.0)
                if c_j == 0.0:
                    continue
                ratio = a_j / c_j
                new_coeffs: "Dict[int, float]" = dict(row.coeffs)
                del new_coeffs[j]
                for i, c_i in eq.coeffs.items():
                    if i == j:
                        continue
                    new_coeffs[i] = new_coeffs.get(i, 0.0) - ratio * c_i
                new_rhs = row.rhs - ratio * eq.rhs
                hi = 0.0
                for idx, coef in new_coeffs.items():
                    _, top = self._contrib_range(idx, coef)
                    hi += top
                if hi <= new_rhs + 1e-9:
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
                Constraint(LinExpr(dict(row.coeffs)), row.sense, row.rhs, row.name),
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
