"""Proof-log writing: the solver side of certified solves.

:class:`ProofWriter` is called from :class:`~repro.ilp.branch_bound.
BranchAndBound` at every tree event.  It owns the JSONL artifact:
header with the embedded formulation + SHA-256 fingerprint, per-record
flush (a crash loses at most the torn final line), torn-tail truncation
and foreign-fingerprint refusal when re-opened across a checkpoint
resume.

Every certificate is **pre-validated in exact rational arithmetic**
before it is written, using the same routines the independent checker
runs (:mod:`repro.ilp.certify.checker` is stdlib-only, so importing it
here adds no solver coupling).  A certificate that would not verify is
downgraded on the spot to a ``forfeit`` record (or a cert-less leaf):
an honest run can therefore audit CERTIFIED or
CERTIFIED-WITH-FORFEITURES, never REFUTED.
"""

from __future__ import annotations

import errno
import json
import math
from fractions import Fraction
from pathlib import Path
from typing import IO, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.artifacts import fsio
from repro.artifacts.log import truncate_torn_tail
from repro.errors import ArtifactError, ProofWriteError

from repro.ilp.certify.checker import (
    FEAS_TOL,
    Bound,
    ExactForm,
    dual_bound,
    exact_objective,
    parse_dual_vector,
    verify_point,
)
from repro.ilp.certify.records import (
    KIND_BRANCH,
    KIND_FORFEIT,
    KIND_HEADER,
    KIND_INCUMBENT,
    KIND_INTEGRAL,
    KIND_PRUNE,
    KIND_RESULT,
    KIND_RESUME,
    PROOF_SCHEMA,
    Record,
    read_proof_records,
    seal_record,
)
from repro.ilp.resilience.checkpoint import form_fingerprint
from repro.ilp.standard_form import StandardForm

#: Writer-side safety margin: certificates are pre-validated against a
#: *stricter* threshold than the checker uses, absorbing the float
#: incumbent vs exact-incumbent discrepancy (sub-1e-9 in practice).
_SAFETY = FEAS_TOL / 2


class ProofLogMismatch(ValueError):
    """An existing proof log belongs to a different formulation."""


def form_to_json(form: StandardForm) -> Dict[str, Any]:
    """Embed a standard form as JSON the checker can re-verify against.

    Numeric layout mirrors :func:`~repro.ilp.resilience.checkpoint.
    form_fingerprint` exactly (float64 vectors, CSR index arrays with
    their native width recorded) so the checker can recompute the
    fingerprint from this embedding alone.
    """

    def matrix(m: Any) -> Dict[str, Any]:
        csr = m.tocsr()
        return {
            "data": [float(v) for v in np.asarray(csr.data, dtype=float)],
            "indices": [int(v) for v in csr.indices],
            "indptr": [int(v) for v in csr.indptr],
            "index_width": int(csr.indices.dtype.itemsize),
        }

    return {
        "n": form.num_vars,
        "c": [float(v) for v in form.c],
        "a_ub": matrix(form.a_ub),
        "b_ub": [float(v) for v in form.b_ub],
        "a_eq": matrix(form.a_eq),
        "b_eq": [float(v) for v in form.b_eq],
        "lb": [float(v) for v in form.lb],
        "ub": [float(v) for v in form.ub],
        "integrality": [int(v) for v in np.asarray(form.integrality, dtype=float)],
    }


def dual_to_sparse(vector: Optional[np.ndarray]) -> Dict[str, float]:
    """Sparse ``{row: value}`` JSON encoding of a dual vector."""
    if vector is None:
        return {}
    out: Dict[str, float] = {}
    for i, value in enumerate(np.asarray(vector, dtype=float)):
        if value != 0.0 and math.isfinite(value):
            out[str(i)] = float(value)
    return out


def _exact_bounds(arr: np.ndarray) -> List[Bound]:
    return [
        Fraction(float(v)) if math.isfinite(float(v)) else None for v in arr
    ]


def _bounds_delta(arr: np.ndarray, base: np.ndarray) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for j in np.nonzero(np.asarray(arr) != np.asarray(base))[0]:
        out[str(int(j))] = float(arr[int(j)])
    return out


class ProofWriter:
    """File-backed proof sink: exact certificate construction and
    pre-validation, one flushed line per record.

    All ``incumbent`` arguments are the solver's *current* float
    incumbent objective (``math.inf`` when none): incumbents only
    improve, so a certificate valid against the current incumbent is
    valid against the final one the checker uses.
    """

    def __init__(
        self,
        path: "str | Path",
        form: StandardForm,
        *,
        objective_is_integral: bool,
        int_tol: float,
        resume: bool = False,
    ) -> None:
        """``resume=True`` appends to an existing same-fingerprint log
        (refusing a foreign one, truncating a torn tail); otherwise any
        leftover file is overwritten — a fresh search is a fresh proof."""
        self.form = form
        self.form_json = form_to_json(form)
        self.exact = ExactForm.from_header(self.form_json)
        self.obj_integral = objective_is_integral
        self.int_tol = float(int_tol)
        self.counts: Dict[str, int] = {}
        self.forfeit_count = 0
        # Column -> candidate constraint rows, built lazily for SOS1
        # tighten justification.
        self._col_rows: Optional[Dict[int, List[Tuple[str, int]]]] = None
        self.path = Path(path)
        self.fingerprint = form_fingerprint(form)
        self.resume_epoch = 0
        self.continued = (
            resume and self.path.exists() and self.path.stat().st_size > 0
        )
        ops = fsio.current_ops()
        try:
            if self.continued:
                self._validate_existing()
                self._handle: "IO[bytes]" = ops.open_append(self.path)
            else:
                self._handle = ops.open_write(self.path)
        except OSError as exc:
            raise self._disk_error(exc, "open") from exc
        except ArtifactError as exc:
            raise ProofWriteError(
                f"cannot open proof log {self.path}: {exc}",
                path=str(self.path), cause=exc.cause or "io",
            ) from exc
        if not self.continued:
            header: Record = {
                "kind": KIND_HEADER,
                "schema": PROOF_SCHEMA,
                "fingerprint": self.fingerprint,
                "form": self.form_json,
                "objective_is_integral": self.obj_integral,
                "int_tol": self.int_tol,
                "mode": "sequential",
            }
            self._write(header)

    # -- plumbing -------------------------------------------------------

    def _write(self, record: Record) -> None:
        kind = str(record.get("kind"))
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == KIND_FORFEIT:
            self.forfeit_count += 1
        self._emit(seal_record(record))

    def _box_json(
        self, lb: np.ndarray, ub: np.ndarray
    ) -> Dict[str, Dict[str, float]]:
        return {
            "lb": _bounds_delta(lb, self.form.lb),
            "ub": _bounds_delta(ub, self.form.ub),
        }

    def _covers(self, bound: Optional[Fraction], incumbent: float) -> bool:
        if bound is None or not math.isfinite(incumbent):
            return False
        inc = Fraction(incumbent)
        if self.obj_integral:
            return bound > inc - 1 + _SAFETY
        return bound >= inc - FEAS_TOL + _SAFETY

    def _exact_duals(
        self,
        y_ub: Optional[np.ndarray],
        y_eq: Optional[np.ndarray],
    ) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
        return (
            parse_dual_vector(dual_to_sparse(y_ub), self.exact.a_ub.nrows, "ub"),
            parse_dual_vector(dual_to_sparse(y_eq), self.exact.a_eq.nrows, "eq"),
        )

    # -- branching ------------------------------------------------------

    def _column_rows(self) -> Dict[int, List[Tuple[str, int]]]:
        if self._col_rows is None:
            index: Dict[int, List[Tuple[str, int]]] = {}
            for kind, matrix in (("ub", self.exact.a_ub), ("eq", self.exact.a_eq)):
                for row in range(matrix.nrows):
                    for j, a in matrix.row_entries(row):
                        if a:
                            index.setdefault(j, []).append((kind, row))
            self._col_rows = index
        return self._col_rows

    def justify_tighten(
        self,
        up_lb: np.ndarray,
        up_ub: np.ndarray,
        var: int,
        new_ub: float,
    ) -> Optional[Tuple[int, str]]:
        """Find a constraint row implying ``x_var <= new_ub`` over the box.

        Evaluated over the up-child's *current* box (previous tightens
        already applied), matching the checker's sequential replay.
        Returns ``(row, row_kind)`` or None (caller must then skip the
        propagation — an unjustifiable tighten would refute the log).
        """
        lb = _exact_bounds(up_lb)
        ub = _exact_bounds(up_ub)
        target = Fraction(float(new_ub))
        for kind, row in self._column_rows().get(int(var), []):
            matrix = self.exact.a_ub if kind == "ub" else self.exact.a_eq
            rhs = (self.exact.b_ub if kind == "ub" else self.exact.b_eq)[row]
            a_var: Optional[Fraction] = None
            rest: Optional[Fraction] = Fraction(0)
            for j, a in matrix.row_entries(row):
                if j == int(var):
                    a_var = a
                    continue
                bound = lb[j] if a > 0 else ub[j]
                if bound is None:
                    rest = None
                    break
                rest = rest + a * bound if rest is not None else None
            if a_var is None or a_var <= 0 or rest is None:
                continue
            if (rhs - rest) / a_var <= target:
                return row, kind
        return None

    def emit_branch(
        self,
        pid: str,
        eff_lb: np.ndarray,
        eff_ub: np.ndarray,
        var: int,
        children: Sequence[Tuple[str, np.ndarray, np.ndarray]],
        tightens: Sequence[Tuple[int, float, int, str]] = (),
    ) -> None:
        """Record a split: ``children`` is ``[(id, lb, ub)] * 2`` in
        down/up order; ``tightens`` are the up-child's justified SOS1
        propagations as ``(var, new_ub, row, row_kind)`` in the order
        they were applied."""
        record: Record = {
            "kind": KIND_BRANCH,
            "id": pid,
            "var": int(var),
            "children": [
                {"id": cid, **self._box_json(clb, cub)}
                for cid, clb, cub in children
            ],
        }
        record.update(self._box_json(eff_lb, eff_ub))
        if tightens:
            record["tighten"] = [
                {
                    "var": int(t_var),
                    "ub": float(t_ub),
                    "row": int(row),
                    "row_kind": row_kind,
                }
                for t_var, t_ub, row, row_kind in tightens
            ]
        self._write(record)

    # -- node closure ---------------------------------------------------

    def emit_prune_bound(
        self,
        pid: str,
        eff_lb: np.ndarray,
        eff_ub: np.ndarray,
        y_ub: Optional[np.ndarray],
        y_eq: Optional[np.ndarray],
        incumbent: float,
    ) -> None:
        """Bound prune with its dual certificate; forfeits if the
        certificate does not verify exactly."""
        exact_ub, exact_eq = self._exact_duals(y_ub, y_eq)
        bound = dual_bound(
            self.exact,
            self.exact.c,
            exact_ub,
            exact_eq,
            _exact_bounds(eff_lb),
            _exact_bounds(eff_ub),
        )
        if not self._covers(bound, incumbent):
            self.emit_forfeit(pid, "no_certificate", eff_lb, eff_ub)
            return
        record: Record = {
            "kind": KIND_PRUNE,
            "id": pid,
            "reason": "bound",
            "cert": {
                "kind": "duals",
                "y_ub": {str(i): float(v) for i, v in exact_ub.items()},
                "y_eq": {str(i): float(v) for i, v in exact_eq.items()},
            },
        }
        record.update(self._box_json(eff_lb, eff_ub))
        self._write(record)

    def _box_is_empty(self, lb: np.ndarray, ub: np.ndarray) -> bool:
        return bool(np.any(np.asarray(lb) > np.asarray(ub)))

    def emit_prune_infeasible(
        self,
        pid: str,
        eff_lb: np.ndarray,
        eff_ub: np.ndarray,
        y_ub: Optional[np.ndarray] = None,
        y_eq: Optional[np.ndarray] = None,
    ) -> None:
        """Infeasibility prune: empty box, Farkas certificate, or —
        when neither holds up exactly — a forfeit."""
        if self._box_is_empty(eff_lb, eff_ub):
            record: Record = {
                "kind": KIND_PRUNE,
                "id": pid,
                "reason": "infeasible",
                "cert": {"kind": "empty_box"},
            }
            record.update(self._box_json(eff_lb, eff_ub))
            self._write(record)
            return
        if y_ub is not None or y_eq is not None:
            exact_ub, exact_eq = self._exact_duals(y_ub, y_eq)
            gap = dual_bound(
                self.exact,
                None,
                exact_ub,
                exact_eq,
                _exact_bounds(eff_lb),
                _exact_bounds(eff_ub),
            )
            if gap is not None and gap > 0:
                record = {
                    "kind": KIND_PRUNE,
                    "id": pid,
                    "reason": "infeasible",
                    "cert": {
                        "kind": "farkas",
                        "y_ub": {
                            str(i): float(v) for i, v in exact_ub.items()
                        },
                        "y_eq": {
                            str(i): float(v) for i, v in exact_eq.items()
                        },
                    },
                }
                record.update(self._box_json(eff_lb, eff_ub))
                self._write(record)
                return
        self.emit_forfeit(pid, "no_certificate", eff_lb, eff_ub)

    def emit_integral(
        self,
        pid: str,
        eff_lb: np.ndarray,
        eff_ub: np.ndarray,
        values: np.ndarray,
        objective: float,
        y_ub: Optional[np.ndarray],
        y_eq: Optional[np.ndarray],
        incumbent: float,
    ) -> float:
        """Integer-feasible leaf; returns the recorded objective.

        The recorded objective is the *exact* objective of the recorded
        point (returned so the solver can adopt it as the incumbent and
        keep the final claim bit-identical to the certificate); the
        dual certificate is dropped (leaving an ``uncertified_leaf``
        forfeit at audit) if it does not verify."""
        x_sparse = {
            str(j): float(v)
            for j, v in enumerate(np.asarray(values, dtype=float))
            if v != 0.0
        }
        exact_x = {int(k): Fraction(v) for k, v in x_sparse.items()}
        exact_obj = exact_objective(self.exact, exact_x)
        record: Record = {
            "kind": KIND_INTEGRAL,
            "id": pid,
            "x": x_sparse,
            "objective": float(exact_obj),
        }
        record.update(self._box_json(eff_lb, eff_ub))
        if y_ub is not None or y_eq is not None:
            exact_ub, exact_eq = self._exact_duals(y_ub, y_eq)
            bound = dual_bound(
                self.exact,
                self.exact.c,
                exact_ub,
                exact_eq,
                _exact_bounds(eff_lb),
                _exact_bounds(eff_ub),
            )
            threshold = min(incumbent, float(objective))
            if self._covers(bound, threshold):
                record["cert"] = {
                    "kind": "duals",
                    "y_ub": {str(i): float(v) for i, v in exact_ub.items()},
                    "y_eq": {str(i): float(v) for i, v in exact_eq.items()},
                }
        self._write(record)
        return float(exact_obj)

    def emit_incumbent(
        self, values: np.ndarray, objective: float
    ) -> Optional[float]:
        """Heuristically-found feasible point, not tied to the tree.

        Used when a primal heuristic (the leaf MILP sub-solve, LP
        diving, or incumbent polishing) finds an improving solution
        outside the logged branching structure: the point is globally
        certifiable (bounds, integrality, residuals, exact objective)
        and so lowers the checker's z*, but it closes no subtree — the
        node it was found at stays open and is closed by ordinary
        branch/prune records.  The point is pre-validated with the
        checker's own exact feasibility test; an invalid point is *not*
        written (the run would otherwise refute) and ``None`` is
        returned so the caller skips adoption.  Otherwise returns the
        exact recorded objective for incumbent adoption.
        """
        x_sparse = {
            str(j): float(v)
            for j, v in enumerate(np.asarray(values, dtype=float))
            if v != 0.0
        }
        exact_x = {int(k): Fraction(v) for k, v in x_sparse.items()}
        if verify_point(self.exact, exact_x, Fraction(self.int_tol)) is not None:
            return None
        exact_obj = exact_objective(self.exact, exact_x)
        self._write(
            {
                "kind": KIND_INCUMBENT,
                "x": x_sparse,
                "objective": float(exact_obj),
            }
        )
        return float(exact_obj)

    def emit_forfeit(
        self, pid: str, cause: str, lb: np.ndarray, ub: np.ndarray
    ) -> None:
        record: Record = {"kind": KIND_FORFEIT, "id": pid, "cause": cause}
        record.update(self._box_json(lb, ub))
        self._write(record)

    # -- run boundaries -------------------------------------------------

    def emit_resume(
        self, frontier: Sequence[Tuple[str, np.ndarray, np.ndarray]]
    ) -> None:
        self._write(
            {
                "kind": KIND_RESUME,
                "frontier": [
                    {"id": pid, **self._box_json(lb, ub)}
                    for pid, lb, ub in frontier
                ],
            }
        )

    def emit_result(
        self,
        status: str,
        objective: Optional[float],
        bound: Optional[float],
        exactness_lost: bool,
    ) -> None:
        self._write(
            {
                "kind": KIND_RESULT,
                "status": status,
                "objective": (
                    float(objective)
                    if objective is not None and math.isfinite(objective)
                    else None
                ),
                "bound": (
                    float(bound)
                    if bound is not None and math.isfinite(bound)
                    else None
                ),
                "exactness_lost": bool(exactness_lost),
            }
        )

    # -- artifact I/O ---------------------------------------------------

    def _disk_error(self, exc: OSError, verb: str) -> ProofWriteError:
        """Disk trouble with the proof log, as a :class:`~repro.errors.
        SolverError` subtype: the partitioner's degradation path rescues
        it like any other solver failure (honest fallback, no crash)."""
        cause = "enospc" if exc.errno == errno.ENOSPC else "io"
        return ProofWriteError(
            f"cannot {verb} proof log {self.path}: {exc}",
            path=str(self.path), cause=cause,
        )

    def _validate_existing(self) -> None:
        """Refuse a foreign log; truncate a torn tail before appending."""
        read = read_proof_records(self.path)
        if not read.records:
            raise ProofLogMismatch(
                f"{self.path} exists but holds no usable proof header"
            )
        header = read.records[0][1]
        if (
            header.get("kind") != KIND_HEADER
            or header.get("schema") != PROOF_SCHEMA
            or header.get("fingerprint") != self.fingerprint
        ):
            raise ProofLogMismatch(
                f"{self.path} was written for a different formulation "
                "(fingerprint mismatch) - refusing to append"
            )
        self.resume_epoch = sum(
            1 for _, rec in read.records if rec.get("kind") == KIND_RESUME
        )
        if read.torn_tail:
            truncate_torn_tail(self.path)

    def _emit(self, record: Record) -> None:
        line = json.dumps(record, sort_keys=True, separators=(",", ":"))
        ops = fsio.current_ops()
        try:
            ops.write(self._handle, line.encode("utf-8") + b"\n")
            ops.flush(self._handle)
        except OSError as exc:
            raise self._disk_error(exc, "append to") from exc

    def close(self) -> None:
        if not self._handle.closed:
            ops = fsio.current_ops()
            try:
                ops.flush(self._handle)
                ops.fsync(self._handle)
            except OSError as exc:
                raise self._disk_error(exc, "finalize") from exc
            finally:
                self._handle.close()

