"""Independent exact-arithmetic audit of a branch-and-bound proof log.

This module re-verifies a ``repro.bnb_proof/v1`` artifact with
:class:`fractions.Fraction` rational arithmetic — **no LP solver, no
floating point, no numpy**.  Every float in the log is lifted exactly
(``Fraction(float)`` is the precise binary value), and every claim is
re-derived from first principles:

* **Dual bounds** (weak duality): for the node LP
  ``min c'x  s.t.  A_ub x <= b_ub, A_eq x = b_eq, l <= x <= u``
  and any multipliers ``y_ub <= 0``, ``y_eq`` free, the quantity
  ``D = y_ub'b_ub + y_eq'b_eq + sum_j min(r_j l_j, r_j u_j)`` with
  ``r = c - A_ub'y_ub - A_eq'y_eq`` satisfies ``D <= c'x`` for every
  ``x`` in the node's box that satisfies the constraints.  The checker
  clamps positive ``y_ub`` entries to zero (still sound) and evaluates
  ``D`` exactly — a recorded dual vector can therefore never *forge* a
  bound, only fail to reach the claimed threshold.
* **Farkas certificates**: the same evaluation with ``c = 0``; a
  strictly positive ``D`` proves the node's constraint system empty.
* **Reduced-cost fixes**: re-derived from the recorded *root* duals
  over the root box; a fix excluding ``x_j >= l_j + 1`` must show
  ``D_root + r_j`` at or above the final incumbent's threshold.
* **Partition coverage**: children must split their parent's box on an
  integer variable at adjacent integer bounds; every extra tightening
  (SOS1 propagation) must be implied by a recorded constraint row via
  exact interval arithmetic; every reduced-cost clip must match a
  certified fix.  At the end of the log no subtree may remain open.
* **The incumbent**: every claimed integer-feasible point is checked
  against the embedded form (bounds, integrality, residuals, exact
  objective), and the final claimed objective must match the best
  certified point.

Prunes are checked against the **final** certified incumbent ``z*``,
never against recorded thresholds: incumbents only improve during a
run, so a prune valid against any intermediate incumbent is valid
against ``z*`` — this makes the audit independent of solver timeline,
parallel interleavings, and checkpoint/resume boundaries.  With an
integral objective the uniform condition is ``D > z* - 1`` exactly;
otherwise ``D >= z* - 1e-6`` (certification up to tolerance).

Subtrees closed without proof (``forfeit`` records, uncertified
leaves) downgrade the verdict to CERTIFIED-WITH-FORFEITURES and are
enumerated; any claim that fails re-verification is REFUTED with the
first failing record.  A log in a retired schema (v2, which carried
root cut records) gets UNSUPPORTED: no verdict is reached.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.ilp.certify.records import (
    KIND_BRANCH,
    KIND_FORFEIT,
    KIND_HEADER,
    KIND_INCUMBENT,
    KIND_INTEGRAL,
    KIND_PRUNE,
    KIND_RC_FIX,
    KIND_RESULT,
    KIND_RESUME,
    KIND_ROOT,
    PROOF_SCHEMA,
    RETIRED_SCHEMAS,
    Record,
    RECORD_KINDS,
    read_proof_records,
    record_checksum_ok,
)

VERDICT_CERTIFIED = "CERTIFIED"
VERDICT_FORFEITURES = "CERTIFIED-WITH-FORFEITURES"
VERDICT_REFUTED = "REFUTED"
VERDICT_UNSUPPORTED = "UNSUPPORTED"

#: Scaled tolerance for float-vs-exact comparisons (feasibility
#: residuals, claimed-vs-certified objectives).  A rational constant —
#: the checker still never computes in floats.
FEAS_TOL = Fraction(1, 10**6)

#: A bound value: exact rational, or None for the infinite side.
Bound = Optional[Fraction]


class ProofCheckError(Exception):
    """Internal control flow: a record failed verification."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


def _fr(value: Any) -> Fraction:
    """Lift a JSON number to an exact rational; rejects non-finite."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProofCheckError(f"expected a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ProofCheckError(f"expected a finite number, got {value!r}")
    return Fraction(value)


def _fr_bound(value: Any) -> Bound:
    """Lift a bound value; infinities (either sign) become None."""
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProofCheckError(f"expected a bound, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return Fraction(value)


def _lb_le(a: Bound, b: Bound) -> bool:
    """``a <= b`` where None means -inf (lower-bound side)."""
    if a is None:
        return True
    if b is None:
        return False
    return a <= b


def _ub_le(a: Bound, b: Bound) -> bool:
    """``a <= b`` where None means +inf (upper-bound side)."""
    if b is None:
        return True
    if a is None:
        return False
    return a <= b


@dataclass
class ExactMatrix:
    """A CSR matrix lifted to exact rationals."""

    nrows: int
    data: List[Fraction]
    indices: List[int]
    indptr: List[int]
    index_width: int

    @classmethod
    def from_json(cls, entry: Mapping[str, Any], ncols: int) -> "ExactMatrix":
        indptr = [int(v) for v in entry["indptr"]]
        indices = [int(v) for v in entry["indices"]]
        data = [_fr(v) for v in entry["data"]]
        nrows = len(indptr) - 1
        if nrows < 0 or indptr[0] != 0 or indptr[-1] != len(data):
            raise ProofCheckError("malformed CSR index pointers")
        if len(indices) != len(data):
            raise ProofCheckError("CSR indices/data length mismatch")
        if any(j < 0 or j >= ncols for j in indices):
            raise ProofCheckError("CSR column index out of range")
        if any(indptr[i] > indptr[i + 1] for i in range(nrows)):
            raise ProofCheckError("CSR index pointers not monotone")
        return cls(
            nrows=nrows,
            data=data,
            indices=indices,
            indptr=indptr,
            index_width=int(entry.get("index_width", 4)),
        )

    def row_entries(self, row: int) -> Iterable[Tuple[int, Fraction]]:
        for k in range(self.indptr[row], self.indptr[row + 1]):
            yield self.indices[k], self.data[k]


@dataclass
class ExactForm:
    """The embedded standard form, lifted to exact rationals.

    ``raw`` keeps the original JSON numbers so the formulation
    fingerprint (a hash over the writer's float64 byte layout) can be
    recomputed without numpy.
    """

    n: int
    c: List[Fraction]
    a_ub: ExactMatrix
    b_ub: List[Fraction]
    a_eq: ExactMatrix
    b_eq: List[Fraction]
    lb: List[Bound]
    ub: List[Bound]
    integrality: List[bool]
    raw: Mapping[str, Any]

    @classmethod
    def from_header(cls, form: Mapping[str, Any]) -> "ExactForm":
        n = int(form["n"])
        c = [_fr(v) for v in form["c"]]
        lb = [_fr_bound(v) for v in form["lb"]]
        ub = [_fr_bound(v) for v in form["ub"]]
        integrality = [bool(v) for v in form["integrality"]]
        if not (len(c) == len(lb) == len(ub) == len(integrality) == n):
            raise ProofCheckError("embedded form vector lengths disagree")
        a_ub = ExactMatrix.from_json(form["a_ub"], n)
        a_eq = ExactMatrix.from_json(form["a_eq"], n)
        b_ub = [_fr(v) for v in form["b_ub"]]
        b_eq = [_fr(v) for v in form["b_eq"]]
        if len(b_ub) != a_ub.nrows or len(b_eq) != a_eq.nrows:
            raise ProofCheckError("embedded form rhs lengths disagree")
        return cls(
            n=n, c=c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            lb=lb, ub=ub, integrality=integrality, raw=form,
        )

    def fingerprint(self) -> str:
        """Recompute the writer's SHA-256 formulation fingerprint.

        Byte-identical to
        :func:`repro.ilp.resilience.checkpoint.form_fingerprint` on the
        writing platform: float64 for every numeric vector and matrix
        payload, the recorded integer width for CSR index arrays.
        """

        def floats(values: Iterable[Any]) -> bytes:
            seq = [float(v) for v in values]
            return struct.pack(f"={len(seq)}d", *seq)

        def ints(values: Iterable[Any], width: int) -> bytes:
            code = {4: "i", 8: "q"}.get(width)
            if code is None:
                raise ProofCheckError(
                    f"unsupported CSR index width {width}"
                )
            seq = [int(v) for v in values]
            return struct.pack(f"={len(seq)}{code}", *seq)

        digest = hashlib.sha256()
        raw = self.raw
        for key in ("c", "b_ub", "b_eq", "lb", "ub", "integrality"):
            digest.update(floats(raw[key]))
        for key in ("a_ub", "a_eq"):
            entry = raw[key]
            width = int(entry.get("index_width", 4))
            digest.update(floats(entry["data"]))
            digest.update(ints(entry["indices"], width))
            digest.update(ints(entry["indptr"], width))
        return digest.hexdigest()


@dataclass
class Box:
    """A node's bounds box as exact deltas against the root bounds."""

    lbd: Dict[int, Bound] = field(default_factory=dict)
    ubd: Dict[int, Bound] = field(default_factory=dict)

    @classmethod
    def from_record(cls, record: Mapping[str, Any], n: int) -> "Box":
        box = cls()
        for key, store in (("lb", box.lbd), ("ub", box.ubd)):
            for raw_idx, value in dict(record.get(key) or {}).items():
                j = int(raw_idx)
                if j < 0 or j >= n:
                    raise ProofCheckError(
                        f"bound delta for out-of-range variable {j}"
                    )
                store[j] = _fr_bound(value)
        return box

    def lb(self, form: ExactForm, j: int) -> Bound:
        return self.lbd.get(j, form.lb[j])

    def ub(self, form: ExactForm, j: int) -> Bound:
        return self.ubd.get(j, form.ub[j])

    def touched(self, other: "Box") -> Set[int]:
        return (
            set(self.lbd) | set(self.ubd) | set(other.lbd) | set(other.ubd)
        )

    def materialize(self, form: ExactForm) -> Tuple[List[Bound], List[Bound]]:
        lb = list(form.lb)
        ub = list(form.ub)
        for j, value in self.lbd.items():
            lb[j] = value
        for j, value in self.ubd.items():
            ub[j] = value
        return lb, ub

    def copy(self) -> "Box":
        return Box(dict(self.lbd), dict(self.ubd))

    def contained_in(self, form: ExactForm, outer: "Box") -> bool:
        for j in self.touched(outer):
            if not _lb_le(outer.lb(form, j), self.lb(form, j)):
                return False
            if not _ub_le(self.ub(form, j), outer.ub(form, j)):
                return False
        return True

    def deltas_for_display(self) -> Dict[str, Dict[str, Optional[float]]]:
        return {
            "lb": {
                str(j): (None if v is None else float(v))
                for j, v in sorted(self.lbd.items())
            },
            "ub": {
                str(j): (None if v is None else float(v))
                for j, v in sorted(self.ubd.items())
            },
        }


def parse_dual_vector(
    entry: Any, nrows: int, what: str
) -> Dict[int, Fraction]:
    """Parse a sparse dual vector ``{"row": value}`` with range checks."""
    duals: Dict[int, Fraction] = {}
    for raw_idx, value in dict(entry or {}).items():
        i = int(raw_idx)
        if i < 0 or i >= nrows:
            raise ProofCheckError(f"{what} dual for out-of-range row {i}")
        duals[i] = _fr(value)
    return duals


def dual_bound(
    form: ExactForm,
    c: Optional[List[Fraction]],
    y_ub: Mapping[int, Fraction],
    y_eq: Mapping[int, Fraction],
    lb: List[Bound],
    ub: List[Bound],
) -> Optional[Fraction]:
    """Exact weak-duality bound over a bounds box; None means -inf.

    ``c=None`` means the zero objective (Farkas evaluation).  Positive
    ``y_ub`` entries are clamped to zero, which can only weaken the
    bound — so any recorded vector yields a *sound* value.
    """
    r: List[Fraction] = list(c) if c is not None else [Fraction(0)] * form.n
    total = Fraction(0)
    for i, yi in y_ub.items():
        if yi >= 0:
            continue  # clamp to the valid sign (and skip zeros)
        total += yi * form.b_ub[i]
        for j, a in form.a_ub.row_entries(i):
            r[j] -= yi * a
    for i, yi in y_eq.items():
        if not yi:
            continue
        total += yi * form.b_eq[i]
        for j, a in form.a_eq.row_entries(i):
            r[j] -= yi * a
    for j in range(form.n):
        rj = r[j]
        if not rj:
            continue
        bound = lb[j] if rj > 0 else ub[j]
        if bound is None:
            return None
        total += rj * bound
    return total


def reduced_cost_vector(
    form: ExactForm,
    y_ub: Mapping[int, Fraction],
    y_eq: Mapping[int, Fraction],
) -> List[Fraction]:
    """Exact ``r = c - A_ub'y_ub - A_eq'y_eq`` (positive y_ub clamped)."""
    r = list(form.c)
    for i, yi in y_ub.items():
        if yi >= 0:
            continue
        for j, a in form.a_ub.row_entries(i):
            r[j] -= yi * a
    for i, yi in y_eq.items():
        if not yi:
            continue
        for j, a in form.a_eq.row_entries(i):
            r[j] -= yi * a
    return r


def exact_objective(form: ExactForm, x: Mapping[int, Fraction]) -> Fraction:
    total = Fraction(0)
    for j, value in x.items():
        cj = form.c[j]
        if cj:
            total += cj * value
    return total


def verify_point(
    form: ExactForm,
    x: Mapping[int, Fraction],
    int_tol: Fraction,
) -> Optional[str]:
    """Exact feasibility + integrality check of a claimed point.

    Residual tolerances scale with the rhs magnitude (the claimed
    point's continuous coordinates come from a float LP solve; the
    *certificates* elsewhere are what carry the proof, this check only
    pins the incumbent to the model).  Returns a reason, or None.
    """
    for j in range(form.n):
        value = x.get(j, Fraction(0))
        lo, hi = form.lb[j], form.ub[j]
        slack = FEAS_TOL * (
            1
            + max(
                abs(lo) if lo is not None else Fraction(0),
                abs(hi) if hi is not None else Fraction(0),
            )
        )
        if lo is not None and value < lo - slack:
            return f"x{j} below its lower bound"
        if hi is not None and value > hi + slack:
            return f"x{j} above its upper bound"
        if form.integrality[j]:
            nearest = Fraction(round(value))
            if abs(value - nearest) > int_tol:
                return f"x{j} is not integral"
    for row in range(form.a_ub.nrows):
        lhs = Fraction(0)
        for j, a in form.a_ub.row_entries(row):
            value = x.get(j)
            if value is not None:
                lhs += a * value
        rhs = form.b_ub[row]
        if lhs > rhs + FEAS_TOL * (1 + abs(rhs)):
            return f"inequality row {row} violated"
    for row in range(form.a_eq.nrows):
        lhs = Fraction(0)
        for j, a in form.a_eq.row_entries(row):
            value = x.get(j)
            if value is not None:
                lhs += a * value
        rhs = form.b_eq[row]
        if abs(lhs - rhs) > FEAS_TOL * (1 + abs(rhs)):
            return f"equality row {row} violated"
    return None


@dataclass
class ForfeitEntry:
    """One unproven subtree surfaced by the audit."""

    node: str
    cause: str
    box: Dict[str, Dict[str, Optional[float]]]

    def as_dict(self) -> Dict[str, Any]:
        return {"node": self.node, "cause": self.cause, "box": self.box}


@dataclass
class AuditReport:
    """The audit's verdict plus everything needed to act on it."""

    verdict: str
    reason: Optional[str] = None
    line: Optional[int] = None
    claimed_status: Optional[str] = None
    claimed_objective: Optional[float] = None
    certified_objective: Optional[float] = None
    forfeits: List[ForfeitEntry] = field(default_factory=list)
    counts: Dict[str, int] = field(default_factory=dict)
    torn_tail: bool = False

    @property
    def exit_code(self) -> int:
        if self.verdict == VERDICT_CERTIFIED:
            return 0
        if self.verdict == VERDICT_FORFEITURES:
            return 1
        if self.verdict == VERDICT_UNSUPPORTED:
            return 3
        return 2

    def as_dict(self) -> Dict[str, Any]:
        return {
            "verdict": self.verdict,
            "reason": self.reason,
            "line": self.line,
            "claimed_status": self.claimed_status,
            "claimed_objective": self.claimed_objective,
            "certified_objective": self.certified_objective,
            "forfeits": [f.as_dict() for f in self.forfeits],
            "counts": self.counts,
            "torn_tail": self.torn_tail,
        }


class _Replayer:
    """Streams the record sequence through the open-set automaton."""

    def __init__(self, form: ExactForm, header: Mapping[str, Any]) -> None:
        self.form = form
        self.obj_integral = bool(header.get("objective_is_integral", False))
        self.int_tol = _fr(header.get("int_tol", 1e-6))
        root = Box()
        self.open: Dict[str, Box] = {"root": root}
        self.seen_ids: Set[str] = {"root"}
        self.rc_raised_lb: Dict[int, Fraction] = {}
        self.rc_lowered_ub: Dict[int, Fraction] = {}
        self.root_y_ub: Optional[Dict[int, Fraction]] = None
        self.root_y_eq: Optional[Dict[int, Fraction]] = None
        self._root_r: Optional[List[Fraction]] = None
        self._root_bound: Optional[Fraction] = None
        self.forfeits: List[ForfeitEntry] = []
        self.pending_result: Optional[Record] = None
        self.z_star: Optional[Fraction] = None

    # -- shared helpers -------------------------------------------------

    def set_incumbent(self, z_star: Optional[Fraction]) -> None:
        self.z_star = z_star

    def _covers(self, bound: Optional[Fraction]) -> None:
        """A closed subtree's bound must beat the final incumbent."""
        if self.z_star is None:
            raise ProofCheckError(
                "bound certificate with no certified incumbent to beat"
            )
        if bound is None:
            raise ProofCheckError("dual bound is unbounded below")
        if self.obj_integral:
            if not bound > self.z_star - 1:
                raise ProofCheckError("dual bound below threshold")
        elif not bound >= self.z_star - FEAS_TOL:
            raise ProofCheckError("dual bound below threshold")

    def _pop_open(self, record: Record) -> Tuple[str, Box]:
        node = record.get("id")
        if not isinstance(node, str):
            raise ProofCheckError("record has no node id")
        stored = self.open.pop(node, None)
        if stored is None:
            raise ProofCheckError(f"node {node!r} is not open")
        return node, stored

    def _effective_box(self, record: Record, stored: Box) -> Box:
        """Validate the recorded effective box against the stored one.

        The box may only shrink, and every shrink must be exactly a
        certified reduced-cost clip.
        """
        eff = Box.from_record(record, self.form.n)
        form = self.form
        for j in eff.touched(stored):
            elb, blb = eff.lb(form, j), stored.lb(form, j)
            if elb != blb:
                if not _lb_le(blb, elb):
                    raise ProofCheckError(
                        f"node box grew at x{j} lower bound"
                    )
                if self.rc_raised_lb.get(j) != elb:
                    raise ProofCheckError(
                        f"x{j} lower bound tightened without justification"
                    )
            eub, bub = eff.ub(form, j), stored.ub(form, j)
            if eub != bub:
                if not _ub_le(eub, bub):
                    raise ProofCheckError(
                        f"node box grew at x{j} upper bound"
                    )
                if self.rc_lowered_ub.get(j) != eub:
                    raise ProofCheckError(
                        f"x{j} upper bound tightened without justification"
                    )
        return eff

    def _parse_cert_duals(
        self, cert: Mapping[str, Any]
    ) -> Tuple[Dict[int, Fraction], Dict[int, Fraction]]:
        y_ub = parse_dual_vector(
            cert.get("y_ub"), self.form.a_ub.nrows, "inequality"
        )
        y_eq = parse_dual_vector(
            cert.get("y_eq"), self.form.a_eq.nrows, "equality"
        )
        return y_ub, y_eq

    def _check_empty_box(self, box: Box) -> None:
        form = self.form
        for j in set(box.lbd) | set(box.ubd):
            lo, hi = box.lb(form, j), box.ub(form, j)
            if lo is not None and hi is not None and lo > hi:
                return
        raise ProofCheckError(
            "empty-box certificate over a non-empty box"
        )

    # -- record handlers ------------------------------------------------

    def handle(self, record: Record) -> None:
        kind = record.get("kind")
        if self.pending_result is not None and kind != KIND_RESUME:
            raise ProofCheckError("records continue after a result record")
        if kind == KIND_ROOT:
            self._on_root(record)
        elif kind == KIND_RC_FIX:
            self._on_rc_fix(record)
        elif kind == KIND_BRANCH:
            self._on_branch(record)
        elif kind == KIND_PRUNE:
            self._on_prune(record)
        elif kind == KIND_INTEGRAL:
            self._on_integral(record)
        elif kind == KIND_INCUMBENT:
            # Heuristic incumbent: fully verified (feasibility + exact
            # objective) in the collection pass; it attaches to no tree
            # node, so replay has nothing further to check.
            pass
        elif kind == KIND_FORFEIT:
            self._on_forfeit(record)
        elif kind == KIND_RESUME:
            self._on_resume(record)
        elif kind == KIND_RESULT:
            self.pending_result = record
        elif kind == KIND_HEADER:
            raise ProofCheckError("duplicate header record")
        else:
            raise ProofCheckError(f"unknown record kind {kind!r}")

    def _on_root(self, record: Record) -> None:
        self.root_y_ub, self.root_y_eq = self._parse_cert_duals(record)
        self._root_r = None
        self._root_bound = None

    def _root_justification(self) -> Tuple[List[Fraction], Fraction]:
        if self.root_y_ub is None or self.root_y_eq is None:
            raise ProofCheckError(
                "reduced-cost fix without a root dual record"
            )
        if self._root_r is None or self._root_bound is None:
            self._root_r = reduced_cost_vector(
                self.form, self.root_y_ub, self.root_y_eq
            )
            bound = dual_bound(
                self.form,
                self.form.c,
                self.root_y_ub,
                self.root_y_eq,
                list(self.form.lb),
                list(self.form.ub),
            )
            if bound is None:
                raise ProofCheckError("root dual bound is unbounded below")
            self._root_bound = bound
        return self._root_r, self._root_bound

    def _on_rc_fix(self, record: Record) -> None:
        j = int(record["var"])
        if j < 0 or j >= self.form.n or not self.form.integrality[j]:
            raise ProofCheckError(
                f"reduced-cost fix of a non-integer variable {j}"
            )
        side = record.get("side")
        bound = _fr_bound(record.get("bound"))
        if bound is None:
            raise ProofCheckError("reduced-cost fix at an infinite bound")
        r, root_bound = self._root_justification()
        if side == "lb":
            if self.form.lb[j] != bound:
                raise ProofCheckError(
                    f"fix of x{j} does not match the root lower bound"
                )
            if r[j] < 0:
                raise ProofCheckError(
                    f"fix of x{j} at lower bound with negative reduced cost"
                )
            self._covers(root_bound + r[j])
            self.rc_lowered_ub[j] = bound
        elif side == "ub":
            if self.form.ub[j] != bound:
                raise ProofCheckError(
                    f"fix of x{j} does not match the root upper bound"
                )
            if r[j] > 0:
                raise ProofCheckError(
                    f"fix of x{j} at upper bound with positive reduced cost"
                )
            self._covers(root_bound - r[j])
            self.rc_raised_lb[j] = bound
        else:
            raise ProofCheckError(f"unknown reduced-cost fix side {side!r}")

    def _implied_upper(
        self, box: Box, row_kind: str, row: int, var: int
    ) -> Fraction:
        """Exact implied upper bound on ``x_var`` from one row."""
        form = self.form
        if row_kind == "eq":
            matrix, rhs_vec = form.a_eq, form.b_eq
        elif row_kind == "ub":
            matrix, rhs_vec = form.a_ub, form.b_ub
        else:
            raise ProofCheckError(f"unknown tighten row kind {row_kind!r}")
        if row < 0 or row >= matrix.nrows:
            raise ProofCheckError(f"tighten row {row} out of range")
        a_var: Optional[Fraction] = None
        rest = Fraction(0)
        for j, a in matrix.row_entries(row):
            if j == var:
                a_var = a
                continue
            if not a:
                continue
            lo, hi = box.lb(form, j), box.ub(form, j)
            bound = lo if a > 0 else hi
            if bound is None:
                raise ProofCheckError(
                    f"tighten row {row} is unbounded over the box"
                )
            rest += a * bound
        if a_var is None or a_var <= 0:
            raise ProofCheckError(
                f"tighten row {row} has no positive coefficient on x{var}"
            )
        return (rhs_vec[row] - rest) / a_var

    def _on_branch(self, record: Record) -> None:
        node, stored = self._pop_open(record)
        eff = self._effective_box(record, stored)
        form = self.form
        var = int(record["var"])
        if var < 0 or var >= form.n or not form.integrality[var]:
            raise ProofCheckError(
                f"branch on non-integer variable {var}"
            )
        children = record.get("children")
        if not isinstance(children, list) or len(children) != 2:
            raise ProofCheckError("branch must produce exactly two children")
        down_rec, up_rec = children
        down = Box.from_record(down_rec, form.n)
        up = Box.from_record(up_rec, form.n)

        split = down.ub(form, var)
        if split is None or split.denominator != 1:
            raise ProofCheckError(
                f"down-child upper bound on x{var} is not an integer"
            )
        if up.lb(form, var) != split + 1:
            raise ProofCheckError(
                f"children do not split x{var} at adjacent integers"
            )

        expected_down = eff.copy()
        expected_down.ubd[var] = split
        self._require_same_box(down, expected_down, "down")

        expected_up = eff.copy()
        expected_up.lbd[var] = split + 1
        for tighten in record.get("tighten") or []:
            t_var = int(tighten["var"])
            if t_var < 0 or t_var >= form.n:
                raise ProofCheckError(
                    f"tighten of out-of-range variable {t_var}"
                )
            new_ub = _fr(tighten["ub"])
            implied = self._implied_upper(
                expected_up,
                str(tighten.get("row_kind")),
                int(tighten["row"]),
                t_var,
            )
            if implied > new_ub:
                raise ProofCheckError(
                    f"tightening of x{t_var} is not implied by its row"
                )
            expected_up.ubd[t_var] = new_ub
        self._require_same_box(up, expected_up, "up")

        for child_rec, child_box in ((down_rec, down), (up_rec, up)):
            child_id = child_rec.get("id")
            if not isinstance(child_id, str):
                raise ProofCheckError("child node has no id")
            if child_id in self.seen_ids:
                raise ProofCheckError(f"duplicate node id {child_id!r}")
            self.seen_ids.add(child_id)
            self.open[child_id] = child_box
        del node

    def _require_same_box(self, got: Box, expected: Box, which: str) -> None:
        form = self.form
        for j in got.touched(expected):
            if got.lb(form, j) != expected.lb(form, j) or got.ub(
                form, j
            ) != expected.ub(form, j):
                raise ProofCheckError(
                    f"{which}-child box does not match the split at x{j}"
                )

    def _on_prune(self, record: Record) -> None:
        node, stored = self._pop_open(record)
        eff = self._effective_box(record, stored)
        reason = record.get("reason")
        cert = record.get("cert")
        if not isinstance(cert, Mapping):
            raise ProofCheckError(f"prune of {node!r} carries no certificate")
        kind = cert.get("kind")
        if reason == "bound":
            if kind != "duals":
                raise ProofCheckError(
                    f"bound prune with certificate kind {kind!r}"
                )
            y_ub, y_eq = self._parse_cert_duals(cert)
            lb, ub = eff.materialize(self.form)
            self._covers(
                dual_bound(self.form, self.form.c, y_ub, y_eq, lb, ub)
            )
        elif reason in ("infeasible", "rcbox"):
            if kind == "empty_box":
                self._check_empty_box(eff)
            elif kind == "farkas" and reason == "infeasible":
                y_ub, y_eq = self._parse_cert_duals(cert)
                lb, ub = eff.materialize(self.form)
                gap = dual_bound(self.form, None, y_ub, y_eq, lb, ub)
                if gap is None or not gap > 0:
                    raise ProofCheckError(
                        "Farkas certificate does not prove infeasibility"
                    )
            else:
                raise ProofCheckError(
                    f"{reason} prune with certificate kind {kind!r}"
                )
        else:
            raise ProofCheckError(f"unknown prune reason {reason!r}")

    def _on_integral(self, record: Record) -> None:
        node, stored = self._pop_open(record)
        eff = self._effective_box(record, stored)
        form = self.form
        x = parse_point(record.get("x"), form.n)
        # Global feasibility was verified in the collection pass; here
        # the point must also live inside this node's box on every
        # branched variable (exact: branched bounds are integers and
        # integer coordinates were rounded by the writer).
        for j in set(eff.lbd) | set(eff.ubd):
            value = x.get(j, Fraction(0))
            slack = Fraction(0) if form.integrality[j] else FEAS_TOL
            lo, hi = eff.lb(form, j), eff.ub(form, j)
            if lo is not None and value < lo - slack:
                raise ProofCheckError(
                    f"claimed point leaves its node box at x{j}"
                )
            if hi is not None and value > hi + slack:
                raise ProofCheckError(
                    f"claimed point leaves its node box at x{j}"
                )
        cert = record.get("cert")
        if isinstance(cert, Mapping):
            y_ub, y_eq = self._parse_cert_duals(cert)
            lb, ub = eff.materialize(form)
            self._covers(dual_bound(form, form.c, y_ub, y_eq, lb, ub))
        else:
            self.forfeits.append(
                ForfeitEntry(
                    node=node,
                    cause="uncertified_leaf",
                    box=eff.deltas_for_display(),
                )
            )

    def _on_forfeit(self, record: Record) -> None:
        node, stored = self._pop_open(record)
        cause = record.get("cause")
        self.forfeits.append(
            ForfeitEntry(
                node=node,
                cause=cause if isinstance(cause, str) else "unknown",
                box=stored.deltas_for_display(),
            )
        )

    def _on_resume(self, record: Record) -> None:
        self.pending_result = None
        frontier: List[Tuple[str, Box]] = []
        entries = record.get("frontier")
        if not isinstance(entries, list):
            raise ProofCheckError("resume record has no frontier")
        for entry in entries:
            node = entry.get("id")
            if not isinstance(node, str):
                raise ProofCheckError("resume frontier node has no id")
            if node in self.seen_ids:
                raise ProofCheckError(f"duplicate node id {node!r}")
            self.seen_ids.add(node)
            frontier.append((node, Box.from_record(entry, self.form.n)))
        # Nothing open may be lost: every open subtree must be covered
        # by (contained in) a restored frontier node.  The restored
        # frontier is from a checkpoint at or before the log's tip, so
        # open nodes are descendants of (or identical to) its entries.
        for node, box in self.open.items():
            if not any(
                box.contained_in(self.form, fbox) for _, fbox in frontier
            ):
                raise ProofCheckError(
                    f"resume loses open subtree {node!r}"
                )
        self.open = dict(frontier)
        # Forfeited subtrees that the resume re-opens are back in play:
        # the continued search now owes a proof for them again.
        kept: List[ForfeitEntry] = []
        for forfeit in self.forfeits:
            fbox = _box_from_display(forfeit.box, self.form.n)
            if not any(
                fbox.contained_in(self.form, frontier_box)
                for _, frontier_box in frontier
            ):
                kept.append(forfeit)
        self.forfeits = kept


def parse_point(entry: Any, n: int) -> Dict[int, Fraction]:
    """Parse a sparse claimed point ``{"var": value}``."""
    x: Dict[int, Fraction] = {}
    for raw_idx, value in dict(entry or {}).items():
        j = int(raw_idx)
        if j < 0 or j >= n:
            raise ProofCheckError(
                f"claimed point has out-of-range variable {j}"
            )
        x[j] = _fr(value)
    return x


def _box_from_display(
    display: Mapping[str, Mapping[str, Optional[float]]], n: int
) -> Box:
    return Box.from_record(
        {"lb": dict(display.get("lb") or {}), "ub": dict(display.get("ub") or {})},
        n,
    )


def audit_proof(
    path: Union[str, Path],
    expected_fingerprint: Optional[str] = None,
) -> AuditReport:
    """Audit one proof log; never raises on in-band problems.

    ``OSError`` (unreadable file) is the only exception that escapes —
    the CLI maps it to its own exit code.  Everything else becomes a
    verdict.
    """
    read = read_proof_records(path)

    def refuted(reason: str, line: Optional[int] = None) -> AuditReport:
        return AuditReport(
            verdict=VERDICT_REFUTED,
            reason=reason,
            line=line,
            torn_tail=read.torn_tail,
        )

    if read.malformed_line is not None:
        return refuted("malformed record", read.malformed_line)
    if not read.records:
        return refuted("empty proof log")

    counts: Dict[str, int] = {}
    for _, record in read.records:
        kind = record.get("kind")
        key = kind if isinstance(kind, str) and kind in RECORD_KINDS else "?"
        counts[key] = counts.get(key, 0) + 1

    for lineno, record in read.records:
        if not record_checksum_ok(record):
            return refuted("record checksum mismatch", lineno)

    header_line, header = read.records[0]
    if header.get("kind") != KIND_HEADER:
        return refuted("first record is not a header", header_line)
    if header.get("schema") in RETIRED_SCHEMAS:
        return AuditReport(
            verdict=VERDICT_UNSUPPORTED,
            reason=RETIRED_SCHEMAS[header["schema"]],
            line=header_line,
            torn_tail=read.torn_tail,
        )
    if header.get("schema") != PROOF_SCHEMA:
        return refuted(
            f"unknown proof schema {header.get('schema')!r}", header_line
        )
    try:
        form = ExactForm.from_header(header["form"])
    except (ProofCheckError, KeyError, TypeError, ValueError) as exc:
        return refuted(f"malformed embedded form: {exc}", header_line)
    recorded_fp = header.get("fingerprint")
    try:
        actual_fp = form.fingerprint()
    except ProofCheckError as exc:
        return refuted(str(exc), header_line)
    if recorded_fp != actual_fp:
        return refuted("fingerprint mismatch", header_line)
    if expected_fingerprint is not None and recorded_fp != expected_fingerprint:
        return refuted(
            "fingerprint does not match the expected formulation",
            header_line,
        )

    replayer = _Replayer(form, header)

    # Collection pass: certify every claimed integer point globally
    # (bounds, integrality, residuals, exact objective), and derive
    # the final incumbent z* that every prune is checked against.
    z_star: Optional[Fraction] = None
    for lineno, record in read.records[1:]:
        if record.get("kind") not in (KIND_INTEGRAL, KIND_INCUMBENT):
            continue
        try:
            x = parse_point(record.get("x"), form.n)
            reason = verify_point(form, x, replayer.int_tol)
            if reason is not None:
                return refuted(f"claimed point infeasible: {reason}", lineno)
            exact_obj = exact_objective(form, x)
            claimed = _fr(record["objective"])
        except ProofCheckError as exc:
            return refuted(str(exc), lineno)
        except (KeyError, TypeError, ValueError) as exc:
            return refuted(f"malformed integral record: {exc}", lineno)
        if abs(exact_obj - claimed) > FEAS_TOL * (1 + abs(exact_obj)):
            return refuted(
                "recorded objective disagrees with the claimed point", lineno
            )
        if z_star is None or exact_obj < z_star:
            z_star = exact_obj
    replayer.set_incumbent(z_star)

    for lineno, record in read.records[1:]:
        try:
            replayer.handle(record)
        except ProofCheckError as exc:
            return refuted(exc.reason, lineno)
        except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
            return refuted(
                f"malformed record ({type(exc).__name__}: {exc})", lineno
            )

    result = replayer.pending_result
    if result is None:
        return refuted("no result record (log ends mid-run)")
    if replayer.open:
        node = sorted(replayer.open)[0]
        return refuted(f"unclosed subtree {node!r}")

    claimed_status = result.get("status")
    status = claimed_status if isinstance(claimed_status, str) else None
    raw_obj = result.get("objective")
    claimed_obj: Optional[float] = (
        float(raw_obj) if isinstance(raw_obj, (int, float)) else None
    )

    report = AuditReport(
        verdict=VERDICT_CERTIFIED,
        claimed_status=status,
        claimed_objective=claimed_obj,
        certified_objective=None if z_star is None else float(z_star),
        forfeits=replayer.forfeits,
        counts=counts,
        torn_tail=read.torn_tail,
    )

    if status == "infeasible":
        if z_star is not None:
            report.verdict = VERDICT_REFUTED
            report.reason = (
                "claimed infeasible but the log certifies a feasible point"
            )
            return report
    elif claimed_obj is not None:
        if z_star is None:
            report.verdict = VERDICT_REFUTED
            report.reason = "no certified incumbent backs the claimed result"
            return report
        if abs(z_star - _fr(claimed_obj)) > FEAS_TOL * (1 + abs(z_star)):
            report.verdict = VERDICT_REFUTED
            report.reason = (
                "claimed objective does not match the certified incumbent"
            )
            return report
    elif status == "optimal":
        # A limit stop may honestly claim nothing, but an optimality
        # claim without an objective is not a claim at all.
        report.verdict = VERDICT_REFUTED
        report.reason = "claimed optimal without an objective"
        return report

    if replayer.forfeits:
        report.verdict = VERDICT_FORFEITURES
    return report
