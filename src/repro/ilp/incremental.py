"""Warm-started incremental LP kernel for the branch-and-bound hot loop.

Branch-and-bound nodes are thousands of *near-identical* LPs: the same
matrices with only variable-bound changes.  The stateless per-node
path (:func:`~repro.ilp.scipy_backend.solve_lp_scipy`) builds its
HiGHS model once per form too, but hands it to a fresh ``Highs``
object on every node, so each solve starts cold.  This module keeps
one object per form instead:

* **Persistent model** — :class:`IncrementalLPSolver` binds to one
  compiled :class:`~repro.ilp.standard_form.StandardForm` and keeps
  every derived buffer alive across calls.  The HiGHS model is built
  *once* and each node mutates column bounds only, so HiGHS's dual
  simplex warm-starts from the parent basis (the classic B&B re-solve
  trick).  The model comes from the builder both paths share
  (:func:`repro.ilp.highs.build_lp`).  The bindings come from a
  standalone ``highspy`` when one is
  installed and otherwise from the copy SciPy vendors as
  ``scipy.optimize._highspy._core``, so no new dependency is needed.
  A version guard checks every binding method the kernel calls; if
  none passes, the kernel solves each node through
  :func:`~repro.ilp.scipy_backend.solve_lp_scipy` instead, and records
  why.
* **Array-backed results** — values come back as a
  :class:`~repro.ilp.solution.ValueVector` over the solver's own
  vector (no per-node ``{idx: float}`` allocation), and OPTIMAL
  results carry the row duals (``dual_ub`` / ``dual_eq``) so branch
  and bound can emit proof-log certificates.  Both engines return the
  same dual contract — including after a permanent
  highs→linprog demotion, which re-solves the crashing node on the
  fallback path rather than returning a dual-less result.

The kernel is a drop-in LP backend (same
``(form, lb_override, ub_override) -> LPResult`` contract), so it
slots into :class:`~repro.ilp.resilience.ResilientLPBackend` chains
unchanged.  :meth:`kernel_telemetry` reports the kernel name, call
counts and warm-start hits for the ``repro.solve_telemetry/v11``
artifact.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import SolverError, TransientSolverError
from repro.ilp.highs import build_lp, read_optimal
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import LPResult, SolveStatus
from repro.ilp.standard_form import StandardForm

#: Module-level names the kernel takes from a HiGHS binding ...
_REQUIRED_NAMES = (
    "Highs", "HighsLp", "MatrixFormat", "HighsStatus", "HighsModelStatus",
)
#: ... and every ``Highs`` method it calls.
_REQUIRED_METHODS = (
    "setOptionValue", "passModel", "changeColsBounds", "run",
    "getSolution", "getModelStatus", "getInfo",
)


def _import_highspy():
    import highspy  # noqa: PLC0415

    return highspy


def _vendored_highs():
    """SciPy's bundled HiGHS bindings, under the ``highspy`` names."""
    from scipy.optimize._highspy import _core  # noqa: PLC0415

    return SimpleNamespace(
        vendored=True,
        Highs=_core._Highs,
        HighsLp=_core.HighsLp,
        MatrixFormat=_core.MatrixFormat,
        HighsStatus=_core.HighsStatus,
        HighsModelStatus=_core.HighsModelStatus,
    )


_VENDORED_SOURCE = ("scipy.optimize._highspy", _vendored_highs)

#: Candidate bindings in preference order: a standalone ``highspy``
#: install, then the copy SciPy vendors (scipy 1.17 ships it).
_HIGHS_SOURCES = (("highspy", _import_highspy), _VENDORED_SOURCE)

#: ``(binding or None, reason it is None)`` once probed; None before.
_binding: "Optional[Tuple[object, Optional[str]]]" = None
#: The same for the vendored copy alone, probed only when a standalone
#: ``highspy`` heads :data:`_binding`.
_vendored_binding: "Optional[Tuple[object, Optional[str]]]" = None


def _missing_api(module) -> "Optional[str]":
    """The first required name ``module`` lacks, or None if complete."""
    for name in _REQUIRED_NAMES:
        if not hasattr(module, name):
            return name
    for name in _REQUIRED_METHODS:
        if not hasattr(module.Highs, name):
            return f"Highs.{name}"
    return None


def _probe_highs(sources) -> "Tuple[object, Optional[str]]":
    reasons = []
    for source, load in sources:
        try:
            module = load()
        except Exception as exc:
            reasons.append(f"{source}: {exc}")
            continue
        missing = _missing_api(module)
        if missing is None:
            return module, None
        reasons.append(f"{source} lacks {missing}")
    return None, "no usable HiGHS binding (" + "; ".join(reasons) + ")"


def _load_highspy():
    """The first HiGHS binding that passes the version guard, or None.

    Probed once per process.  A binding missing any attribute the
    kernel calls is skipped, so an incompatible scipy or ``highspy``
    release demotes the kernel to ``solve_lp_scipy`` rather than failing
    mid-search; :func:`_highs_unavailable_reason` says why.
    """
    global _binding
    if _binding is None:
        _binding = _probe_highs(_HIGHS_SOURCES)
    return _binding[0]


def _highs_unavailable_reason() -> "Optional[str]":
    _load_highspy()
    return _binding[1]


def _cold_highs():
    """The binding :func:`~repro.ilp.scipy_backend.solve_lp_scipy`
    solves through, or None when it must call ``linprog``.

    Always SciPy's vendored copy, the library ``linprog`` itself calls,
    so a cold per-node solve lands on ``linprog``'s vertex bit for bit.
    None whenever the kernel's probe found no usable binding: the
    vendored copy is one of its sources, so it failed too.
    """
    global _vendored_binding
    module = _load_highspy()
    if module is None or getattr(module, "vendored", False):
        return module
    if _vendored_binding is None:
        _vendored_binding = _probe_highs((_VENDORED_SOURCE,))
    return _vendored_binding[0]


def have_highspy() -> bool:
    """Whether a warm-start HiGHS binding (standalone or vendored) loads."""
    return _load_highspy() is not None


class IncrementalLPSolver:
    """Persistent-model, warm-started LP relaxation solver.

    Parameters
    ----------
    form:
        Standard form to bind to immediately; when omitted, the kernel
        binds lazily on the first call (and transparently re-binds if a
        different form is ever passed — each bind resets the model and
        its basis).  When no HiGHS binding passes the version guard or
        the model build fails, every node goes to
        :func:`~repro.ilp.scipy_backend.solve_lp_scipy` and
        ``kernel_telemetry()["demoted"]`` records why.
    """

    def __init__(self, form: "Optional[StandardForm]" = None) -> None:
        self._form: "Optional[StandardForm]" = None
        self._highs = None
        self._highs_cols: "Optional[np.ndarray]" = None
        self._have_basis = False
        self._demoted_reason: "Optional[str]" = None
        # Telemetry counters.
        self.calls = 0
        self.lp_solves = 0
        self.warm_start_hits = 0
        self.rebinds = 0
        if form is not None:
            self._bind(form)

    # ------------------------------------------------------------------

    @property
    def kernel_name(self) -> str:
        """Which engine actually solves: highs warm-start or linprog."""
        if self._highs is not None:
            return "incremental-highs"
        return "incremental-linprog"

    @property
    def form(self) -> "Optional[StandardForm]":
        return self._form

    def _bind(self, form: StandardForm) -> None:
        """(Re)compile per-form state; called once per model in practice."""
        self._form = form
        self._highs = None
        self._have_basis = False
        self.rebinds += 1
        if _load_highspy() is None:
            self._demoted_reason = _highs_unavailable_reason()
            return
        try:
            self._build_highs_model(form)
        except Exception as exc:
            self._demoted_reason = f"highs model build failed: {exc}"

    def _build_highs_model(self, form: StandardForm) -> None:
        """Pass ``form``'s :func:`~repro.ilp.highs.build_lp` model to a
        persistent ``Highs`` object (once).

        The simplex solver is pinned so every re-solve after a bounds
        mutation warm-starts from the retained basis.
        """
        highspy = _load_highspy()
        h = highspy.Highs()
        h.setOptionValue("output_flag", False)
        # Warm starting needs a basis; keep HiGHS on (dual) simplex.
        h.setOptionValue("solver", "simplex")
        lp = build_lp(highspy, form)
        status = h.passModel(lp)
        if status != highspy.HighsStatus.kOk:
            raise SolverError(f"highspy passModel returned {status}")
        self._highs = h
        self._highs_cols = np.arange(form.num_vars, dtype=np.int32)

    # ------------------------------------------------------------------

    def __call__(
        self,
        form: StandardForm,
        lb_override: "Optional[np.ndarray]" = None,
        ub_override: "Optional[np.ndarray]" = None,
    ) -> LPResult:
        """Solve the LP relaxation of ``form`` with bound overrides.

        Same contract as
        :func:`~repro.ilp.scipy_backend.solve_lp_scipy`: integrality is
        ignored; the overrides carry the branching fixings.
        """
        if form is not self._form:
            self._bind(form)
        self.calls += 1
        lb = form.lb if lb_override is None else lb_override
        ub = form.ub if ub_override is None else ub_override
        if np.any(lb > ub + 1e-12):
            # Contradictory fixation: provably infeasible, no LP needed.
            return LPResult(status=SolveStatus.INFEASIBLE)
        self.lp_solves += 1
        if self._highs is not None:
            try:
                return self._solve_highs(lb, ub)
            except SolverError:
                raise
            except Exception as exc:
                # Any binding-level surprise demotes the kernel for the
                # rest of the run instead of killing the search.
                self._highs = None
                self._have_basis = False
                self._demoted_reason = f"highs solve failed: {exc}"
        return solve_lp_scipy(form, lb, ub)

    def _solve_highs(self, lb, ub) -> LPResult:
        """Mutate column bounds on the persistent model and re-run.

        HiGHS retains the previous optimal basis on the model, so the
        dual simplex re-solve after a bounds-only change warm-starts
        from the parent node's basis.
        """
        highspy = _load_highspy()
        h = self._highs
        n = int(self._highs_cols.shape[0])
        h.changeColsBounds(
            n,
            self._highs_cols,
            np.asarray(lb, dtype=float),
            np.asarray(ub, dtype=float),
        )
        if self._have_basis:
            self.warm_start_hits += 1
        run_status = h.run()
        if run_status != highspy.HighsStatus.kOk:
            self._have_basis = False
            raise TransientSolverError(
                f"highspy run returned {run_status}",
                backend=self.kernel_name,
                raw_status=-1,
            )
        model_status = h.getModelStatus()
        if model_status == highspy.HighsModelStatus.kOptimal:
            self._have_basis = True
            # Row duals come back stacked in stack_rows order
            # (inequalities first, then equalities); the reader splits
            # them into the (dual_ub, dual_eq) contract of the cold path.
            return read_optimal(h, self._form)
        if model_status == highspy.HighsModelStatus.kInfeasible:
            self._have_basis = True
            return LPResult(status=SolveStatus.INFEASIBLE)
        if model_status == highspy.HighsModelStatus.kUnbounded:
            self._have_basis = True
            return LPResult(status=SolveStatus.UNBOUNDED)
        self._have_basis = False
        raise TransientSolverError(
            f"highspy model status {model_status}",
            backend=self.kernel_name,
            raw_status=-1,
        )

    # ------------------------------------------------------------------

    def kernel_telemetry(self) -> "Dict[str, object]":
        """Counters for the ``solve.kernel`` telemetry block (v9)."""
        return {
            "name": self.kernel_name,
            "highs": self._highs is not None,
            "calls": self.calls,
            "lp_solves": self.lp_solves,
            "warm_start_hits": self.warm_start_hits,
            "rebinds": self.rebinds,
            "demoted": self._demoted_reason,
        }

