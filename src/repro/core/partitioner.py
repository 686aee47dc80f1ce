"""The end-to-end flow: the paper's Figure 2 as a public API.

:class:`TemporalPartitioner` wires together the whole pipeline:

1. heuristically estimate the number of segments ``N`` (list
   scheduling based, :mod:`repro.schedule.estimator`) unless given;
2. compute ASAP/ALAP mobility ranges (inside
   :class:`~repro.core.spec.ProblemSpec`);
3. formulate the 0-1 model (:mod:`repro.core.formulation`);
4. solve it — with the in-repo branch and bound under a selectable
   branching rule, or with SciPy's HiGHS MILP;
5. decode and *verify* the design.

Every stage's statistics are kept on the returned
:class:`PartitionOutcome`, so the experiment script can print the
paper's Var/Const/RunTime/Feasible columns directly.

Graceful degradation
--------------------
An irrecoverable exact solve — LP backend chain exhausted, the
solver's failure budget tripped, a decode/verify inconsistency, or a
search limit expiring truly empty-handed — never raises out of
:meth:`TemporalPartitioner.partition_spec`.  Instead the flow falls
back to the heuristic baselines (:func:`~repro.baselines.level_partition`
then :func:`~repro.baselines.greedy_partition` + list scheduler),
verifies the fallback design with the same independent
:func:`~repro.core.verify.verify_design`, and returns a
:class:`PartitionOutcome` explicitly marked ``degraded=True`` with the
cause and the fallback name in telemetry — a usable answer with honest
provenance, exactly the production posture the ROADMAP asks for.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass
from typing import Dict, Optional, Union

from repro.baselines import greedy_partition, level_partition
from repro.errors import (
    CheckpointError,
    DecodeError,
    ReproError,
    SolverError,
    VerificationError,
)
from repro.graph.taskgraph import TaskGraph
from repro.ilp.analysis.diagnostics import InfeasibilityCertificate
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.branching import BranchingRule, make_rule
from repro.ilp.milp_backend import solve_milp_scipy
from repro.ilp.resilience import FaultPlan
from repro.ilp.solution import MilpResult, SolveStats, SolveStatus, relative_gap
from repro.library.catalogs import default_library, mix_from_string
from repro.library.components import Allocation, ComponentLibrary
from repro.schedule.estimator import estimate_num_segments
from repro.target.fpga import DEFAULT_DEVICE, FPGADevice, device_catalog
from repro.target.memory import ScratchMemory
from repro.core import leafsolve, parallel_support, probe
from repro.core.decode import decode_solution
from repro.core.formulation import FormulationOptions, build_model, model_size_report
from repro.core.precheck import precheck_spec
from repro.core.result import PartitionedDesign
from repro.core.spec import ProblemSpec
from repro.core.verify import verify_design


@dataclass(frozen=True)
class PartitionOutcome:
    """Everything produced by one partitioning run.

    ``design`` is present for OPTIMAL runs and for FEASIBLE runs (a
    search limit expired but an incumbent was in hand — ``gap`` then
    says how far from proven-optimal it might be); it has always passed
    :func:`~repro.core.verify.verify_design`.

    ``degraded`` marks outcomes where the exact solve irrecoverably
    failed: when a heuristic baseline rescued the run, ``fallback``
    names it (``"level"`` or ``"greedy"``) and ``design`` is its
    verified output; when even the baselines gave up, ``design`` is
    ``None`` but the run still returns (never raises).
    ``degradation_cause`` says why the exact path was abandoned.
    """

    status: SolveStatus
    spec: ProblemSpec
    design: "Optional[PartitionedDesign]"
    objective: "Optional[float]"
    model_stats: "Dict[str, object]"
    solve_stats: SolveStats
    wall_time_s: float
    bound: "Optional[float]" = None
    gap: "Optional[float]" = None
    certificate: "Optional[InfeasibilityCertificate]" = None
    degraded: bool = False
    fallback: "Optional[str]" = None
    degradation_cause: "Optional[str]" = None

    @property
    def feasible(self) -> bool:
        """The paper's "Feasible" column: did an implementation exist?"""
        return self.design is not None

    @property
    def hit_limit(self) -> bool:
        """Whether a time/node limit cut the search short.

        True for FEASIBLE (incumbent in hand) as well as bare
        TIMEOUT/NODE_LIMIT outcomes — the paper's ">7200" notion.
        Certificate rejections (precheck or presolve) are proofs, not
        limits, and an ``lp_failure_limit`` abort is a fault, not a
        limit (it shows up in ``degraded`` instead).
        """
        return self.solve_stats.stop_reason not in (
            "exhausted", "precheck_infeasible", "presolve_infeasible",
            "lp_failure_limit",
        )

    def summary_row(self) -> "Dict[str, object]":
        """One row in the shape of the paper's result tables."""
        return {
            "graph": self.spec.graph.name,
            "tasks": len(self.spec.graph.tasks),
            "opers": self.spec.graph.num_operations,
            "N": self.spec.n_partitions,
            "L": self.spec.relaxation,
            "vars": self.model_stats["vars"],
            "consts": self.model_stats["constraints"],
            "runtime_s": round(self.wall_time_s, 3),
            "status": self.status.value,
            "feasible": self.feasible,
            "objective": self.objective,
            "gap": self.gap,
            "degraded": self.degraded,
            "fallback": self.fallback,
            "degradation_cause": self.degradation_cause,
        }

    def telemetry(self) -> "Dict[str, object]":
        """Per-run solve-telemetry record (see DESIGN.md for the schema)."""
        return {
            "schema": "repro.solve_telemetry/v12",
            "graph": self.spec.graph.name,
            "n_partitions": self.spec.n_partitions,
            "relaxation": self.spec.relaxation,
            "device": self.spec.device.name,
            "status": self.status.value,
            "feasible": self.feasible,
            "hit_limit": self.hit_limit,
            "objective": self.objective,
            "bound": self.bound,
            "gap": self.gap,
            "wall_time_s": self.wall_time_s,
            "degraded": self.degraded,
            "fallback": self.fallback,
            "degradation_cause": self.degradation_cause,
            "model": dict(self.model_stats),
            "solve": self.solve_stats.as_dict(),
            "certificate": (
                None if self.certificate is None else self.certificate.as_dict()
            ),
        }


class TemporalPartitioner:
    """Combined temporal partitioning and synthesis, end to end.

    Parameters
    ----------
    library:
        Component library (defaults to the XC4000-class catalog); used
        for FU-mix parsing and the segment estimator.
    device:
        Target FPGA (defaults to ``xc4010``).
    memory:
        Scratch memory; defaults to unbounded-for-the-spec (the
        objective still minimizes traffic).
    options:
        Formulation options (tightened Glover model by default).
    branching:
        Branching-rule name (``"paper"``, ``"first"``,
        ``"most-fractional"``, ``"pseudo-random"``) or a rule instance.
    backend:
        ``"bnb"`` for the in-repo branch and bound (default),
        ``"milp"`` for SciPy HiGHS.
    time_limit_s / node_limit:
        Search limits passed to the backend.  The time limit covers
        the whole :meth:`partition_spec` call: presolve is skipped once
        it has run out and starts no pass after it, and the solver gets
        what precheck, model build and presolve left of it.  Expiry
        with an incumbent yields a FEASIBLE outcome carrying the proven
        bound and gap.
    plain_search:
        When True, run the branch and bound *without* its SOS1
        propagation and exact leaf sub-solve — the raw 1998-style
        search Tables 1-2 measure.
        Also disables presolve (the 1998 flow had none), its LPs go
        to the bare SciPy backend instead of the validating
        retry/fallback chain
        (:class:`~repro.ilp.resilience.ResilientLPBackend`) every
        other ``"bnb"`` solve uses, and solver faults raise instead
        of degrading to the heuristic baselines (the cross-check
        suites want the crash).
    presolve:
        When True (default), run the structural prechecks
        (:mod:`repro.core.precheck`, eqs. 3 and 11 plus cycle
        detection) before formulating, and the static presolve pass
        (:mod:`repro.ilp.analysis`) right after.  A certificate ends
        the run with an INFEASIBLE outcome carrying it — no branch and
        bound is built, no LP is ever solved.  Only
        the ``"bnb"`` backend presolves the model; prechecks apply to
        both backends.
    on_node / on_incumbent:
        Optional progress callbacks forwarded to the branch and bound
        (see :class:`~repro.ilp.branch_bound.BranchAndBoundConfig`);
        the CLI's ``--verbose-solve`` live trace is built on these.
        Ignored by the ``"milp"`` backend.
    callback_every:
        Node-callback decimation factor (1 = every node).
    chaos:
        Optional :class:`~repro.ilp.resilience.FaultPlan`: wrap the
        LP backend(s) in seeded fault injection — the CLI's
        ``--chaos-*`` surface.  Implies infeasible double-checking on
        the resilient chain.  Only meaningful with ``backend="bnb"``.
    proof_path:
        When set (``bnb`` backend only), the branch and bound appends a
        certificate for every tree event to this ``repro.bnb_proof/v1``
        JSONL artifact, independently verifiable with ``repro audit``
        (see :mod:`repro.ilp.certify` and DESIGN.md §14).  Proof mode
        ignores the node prober and runs the exact leaf sub-solve only
        as a primal heuristic, once per subtree (neither carries dual
        evidence, so neither may close a node), so node counts differ
        from an unlogged run; statuses and objectives do not.  The
        ``solve.proof`` telemetry block summarizes the artifact.
    checkpoint_path / checkpoint_every:
        Forwarded to the branch and bound: periodic atomic
        serialization of the search state, and — when the file already
        exists and matches the model — automatic resume from it.
    heuristics:
        When True (``bnb`` backend only), enable the primal heuristics
        (:mod:`repro.ilp.heuristics`): LP-guided diving at the root and
        every :data:`~repro.ilp.branch_bound.DIVE_EVERY` nodes, plus
        1-opt incumbent polishing.  Every heuristic point is audited
        (decode + :func:`~repro.core.verify.verify_design`) before it
        may become the incumbent; the ``solve.heuristics`` telemetry block counts
        dives, polishes, and audit rejections.
    """

    def __init__(
        self,
        library: "Optional[ComponentLibrary]" = None,
        device: "Optional[FPGADevice]" = None,
        memory: "Optional[ScratchMemory]" = None,
        options: "Optional[FormulationOptions]" = None,
        branching: "Union[str, BranchingRule]" = "paper",
        backend: str = "bnb",
        time_limit_s: "Optional[float]" = None,
        node_limit: "Optional[int]" = None,
        plain_search: bool = False,
        presolve: bool = True,
        on_node=None,
        on_incumbent=None,
        callback_every: int = 1,
        chaos: "Optional[FaultPlan]" = None,
        checkpoint_path: "Optional[str]" = None,
        checkpoint_every: int = 256,
        proof_path: "Optional[str]" = None,
        heuristics: bool = False,
    ) -> None:
        if backend not in ("bnb", "milp"):
            raise ReproError(f"unknown backend {backend!r}; use 'bnb' or 'milp'")
        if proof_path is not None and backend != "bnb":
            raise ReproError(
                "proof_path requires backend='bnb' (the milp backend is "
                "a single HiGHS call with no tree to certify)"
            )
        if heuristics and backend != "bnb":
            raise ReproError(
                "heuristics require backend='bnb' (the milp "
                "backend is a single opaque HiGHS call)"
            )
        self.library = library if library is not None else default_library()
        self.device = device if device is not None else device_catalog()[DEFAULT_DEVICE]
        self.memory = memory
        self.options = options if options is not None else FormulationOptions()
        self.branching: BranchingRule = (
            make_rule(branching) if isinstance(branching, str) else branching
        )
        self.backend = backend
        self.time_limit_s = time_limit_s
        self.node_limit = node_limit
        self.plain_search = plain_search
        self.presolve = presolve
        self.on_node = on_node
        self.on_incumbent = on_incumbent
        self.callback_every = callback_every
        self.chaos = chaos
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.proof_path = proof_path
        self.heuristics = heuristics

    # ------------------------------------------------------------------

    def make_spec(
        self,
        graph: TaskGraph,
        allocation: "Union[Allocation, str]",
        n_partitions: "Optional[int]" = None,
        relaxation: int = 0,
    ) -> ProblemSpec:
        """Steps 1-2 of the flow: resolve inputs into a ProblemSpec."""
        if isinstance(allocation, str):
            allocation = mix_from_string(allocation, self.library)
        memory = self.memory
        if memory is None:
            memory = ScratchMemory.unbounded_for(graph.total_bandwidth())
        if n_partitions is None:
            n_partitions = estimate_num_segments(graph, self.library, self.device)
        return ProblemSpec.create(
            graph=graph,
            allocation=allocation,
            device=self.device,
            memory=memory,
            n_partitions=n_partitions,
            relaxation=relaxation,
        )

    def partition(
        self,
        graph: TaskGraph,
        allocation: "Union[Allocation, str]",
        n_partitions: "Optional[int]" = None,
        relaxation: int = 0,
    ) -> PartitionOutcome:
        """Run the full flow on a specification.

        Returns a :class:`PartitionOutcome`; infeasibility and timeouts
        are *statuses* on the outcome, not exceptions (matching how the
        paper's tables report them).  Only malformed inputs raise.
        """
        spec = self.make_spec(graph, allocation, n_partitions, relaxation)
        return self.partition_spec(spec)

    def partition_spec(self, spec: ProblemSpec) -> PartitionOutcome:
        """Steps 3-5 of the flow, on an already-built spec."""
        start = time.monotonic()
        certificates = []
        if self.presolve and not self.plain_search:
            certificates = precheck_spec(spec)
        model, space = build_model(spec, self.options)
        model_stats = model_size_report(model, space)
        if certificates:
            return self._certified_infeasible(
                spec, model_stats, start, certificates[0],
                SolveStats(stop_reason="precheck_infeasible"),
            )
        config = presolved = None
        if self.backend == "bnb":
            # Past the deadline presolve would still copy the model only
            # to run no pass.
            if self.presolve and not self.plain_search and self._time_left(start) != 0.0:
                # Non-eliminating, so the variable indices the prober,
                # leaf solver and branching metadata use stay valid.
                from repro.ilp.analysis.presolve import presolve

                deadline = None if self.time_limit_s is None else start + self.time_limit_s
                reduced = presolve(model, eliminate=False, deadline=deadline)
                presolved = reduced.stats.as_dict()
                if reduced.certificate is not None:
                    return self._certified_infeasible(
                        spec, model_stats, start, reduced.certificate,
                        SolveStats(
                            stop_reason="presolve_infeasible", presolve=presolved
                        ),
                    )
                model = reduced.model
            config = self._bnb_config(spec, space)
        allow_degrade = not self.plain_search

        try:
            result = self._solve(model, config, start)
        except SolverError as exc:
            if not allow_degrade:
                raise
            return self._degraded_outcome(
                spec, model_stats, start,
                cause="solver_error", detail=str(exc),
                solve_stats=SolveStats(stop_reason="solver_error"),
            )
        result.stats.presolve = presolved

        design: "Optional[PartitionedDesign]" = None
        objective: "Optional[float]" = None
        if result.has_solution:
            try:
                design = decode_solution(spec, space, result)
                objective = design.communication_cost()
                verify_design(design, expected_objective=result.objective)
            except (DecodeError, VerificationError) as exc:
                # The solver's answer failed the independent audit —
                # never ship it; fall back instead of propagating.
                if not allow_degrade:
                    raise
                cause = (
                    "decode_error" if isinstance(exc, DecodeError)
                    else "verification_error"
                )
                return self._degraded_outcome(
                    spec, model_stats, start, cause=cause, detail=str(exc),
                    solve_stats=result.stats, bound=result.bound,
                )

        if allow_degrade and design is None and result.status in (
            SolveStatus.ERROR, SolveStatus.TIMEOUT, SolveStatus.NODE_LIMIT
        ):
            cause = (
                "lp_failure_limit"
                if result.stats.stop_reason == "lp_failure_limit"
                else "search_empty_handed"
            )
            return self._degraded_outcome(
                spec, model_stats, start, cause=cause,
                solve_stats=result.stats, status=result.status,
                bound=result.bound,
            )

        return PartitionOutcome(
            status=result.status,
            spec=spec,
            design=design,
            objective=objective,
            model_stats=model_stats,
            solve_stats=result.stats,
            wall_time_s=time.monotonic() - start,
            bound=result.bound,
            gap=result.gap,
        )

    def _certified_infeasible(
        self,
        spec: ProblemSpec,
        model_stats: "Dict[str, object]",
        start: float,
        certificate: InfeasibilityCertificate,
        stats: SolveStats,
    ) -> PartitionOutcome:
        """INFEASIBLE outcome for a precheck or presolve certificate."""
        stats.wall_time_s = time.monotonic() - start
        return PartitionOutcome(
            status=SolveStatus.INFEASIBLE,
            spec=spec,
            design=None,
            objective=None,
            model_stats=model_stats,
            solve_stats=stats,
            wall_time_s=stats.wall_time_s,
            certificate=certificate,
        )

    def _degraded_outcome(
        self,
        spec: ProblemSpec,
        model_stats: "Dict[str, object]",
        start: float,
        cause: str,
        solve_stats: SolveStats,
        detail: "Optional[str]" = None,
        status: SolveStatus = SolveStatus.ERROR,
        bound: "Optional[float]" = None,
    ) -> PartitionOutcome:
        """Heuristic-baseline rescue: the never-raise last line of defense.

        Tries :func:`~repro.baselines.level_partition` then
        :func:`~repro.baselines.greedy_partition`, verifies whichever
        succeeds with the same independent audit as the exact path, and
        returns it as a FEASIBLE-but-``degraded`` outcome.  When even
        the baselines come up empty the outcome keeps the exact path's
        failure status with ``design=None`` — still a return, never a
        raise.  A proven ``bound`` inherited from the aborted exact
        search still yields an honest ``gap`` for the fallback design.
        """
        design: "Optional[PartitionedDesign]" = None
        fallback: "Optional[str]" = None
        for name, baseline in (("level", level_partition),
                               ("greedy", greedy_partition)):
            try:
                candidate = baseline(spec)
                if candidate is None:
                    continue
                verify_design(candidate)
            except ReproError:
                continue
            design, fallback = candidate, name
            break
        objective = design.communication_cost() if design is not None else None
        gap = (
            relative_gap(objective, bound)
            if objective is not None and bound is not None
            else None
        )
        degradation_cause = cause if not detail else f"{cause}: {detail[:200]}"
        return PartitionOutcome(
            status=SolveStatus.FEASIBLE if design is not None else status,
            spec=spec,
            design=design,
            objective=objective,
            model_stats=model_stats,
            solve_stats=solve_stats,
            wall_time_s=time.monotonic() - start,
            bound=bound,
            gap=gap,
            degraded=True,
            fallback=fallback,
            degradation_cause=degradation_cause,
        )

    # ------------------------------------------------------------------

    def _time_left(self, start: float) -> "Optional[float]":
        """What set-up since ``start`` left of ``time_limit_s`` (never
        negative); ``None`` without a limit."""
        if self.time_limit_s is None:
            return None
        return max(self.time_limit_s - (time.monotonic() - start), 0.0)

    def _bnb_config(self, spec: ProblemSpec, space) -> BranchAndBoundConfig:
        """The branch-and-bound configuration of one solve of ``spec``.

        The node prober and the leaf solver are off under
        ``plain_search``.  The factories are looked up on their modules
        at call time, so a wrapped one (as ``bench/spans.py`` installs)
        takes effect.
        """
        node_prober = leaf_solver = None
        if not self.plain_search:
            node_prober = probe.make_slot_prober(spec, space)
            leaf_solver = leafsolve.make_leaf_solver(spec, space)
        return BranchAndBoundConfig(
            node_limit=self.node_limit,
            objective_is_integral=True,
            propagate_sos1=not self.plain_search,
            node_prober=node_prober,
            leaf_solver=leaf_solver,
            on_node=self.on_node,
            on_incumbent=self.on_incumbent,
            callback_every=self.callback_every,
            lp_backend=parallel_support.make_lp_backend(
                chaos=self.chaos, plain_search=self.plain_search
            ),
            checkpoint_path=self.checkpoint_path,
            checkpoint_every=self.checkpoint_every,
            heuristics=self.heuristics,
            incumbent_auditor=parallel_support.make_incumbent_auditor(spec, space),
            proof_path=self.proof_path,
        )

    def _solve(self, model, config, start: float) -> MilpResult:
        """Solve the model: one HiGHS call when ``config`` is None, else
        the branch and bound under ``config``.  Either gets the time
        left of ``time_limit_s`` since ``start``.
        """
        if config is None:
            time_left = self._time_left(start)
            if time_left == 0.0:
                # HiGHS rejects a zero time limit: the limit already
                # expired, so no search runs at all.
                return MilpResult(
                    status=SolveStatus.TIMEOUT,
                    stats=SolveStats(stop_reason="time_limit"),
                )
            return solve_milp_scipy(model, time_limit_s=time_left)
        solver = BranchAndBound(model, rule=self.branching, config=config)
        # Set after the solver compiled the model: set-up counts too.
        config.time_limit_s = self._time_left(start)
        if self.checkpoint_path is not None and os.path.exists(self.checkpoint_path):
            try:
                return solver.resume(self.checkpoint_path)
            except CheckpointError as exc:
                # Truncated, corrupt, foreign-schema, or
                # fingerprint-mismatched checkpoint: a fresh solve is
                # always safe (periodic saves overwrite the bad file),
                # but silent fallback would hide that hours of saved
                # search state were just discarded — say so.
                warnings.warn(
                    f"ignoring unusable checkpoint "
                    f"{self.checkpoint_path} ({exc.cause}): {exc}; "
                    f"solving from scratch",
                    RuntimeWarning,
                    stacklevel=2,
                )
                solver = BranchAndBound(model, rule=self.branching, config=config)
        return solver.solve()
