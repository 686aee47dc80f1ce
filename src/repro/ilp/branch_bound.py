"""Branch-and-bound over LP relaxations with pluggable branching rules.

This mirrors the solution machinery of the paper's Section 8: depth-
first search; at each node the LP relaxation is solved, a fractional
0-1 variable is chosen by the configured
:class:`~repro.ilp.branching.BranchingRule`, and the preferred branch
(by default the one setting the variable to 1) is explored first.  The
first integer-feasible solution found becomes the incumbent; because no
variable is ever *forced* (both branches stay in the tree), the final
answer is globally optimal — exactly the paper's argument for why its
guidance heuristic preserves optimality, unlike Gebotys' critical-path
pre-assignment.

Bounding uses the fact (true of the paper's objective, eq. 14, whose
coefficients are integer bandwidths and which evaluates integrally at
every integer-feasible point) that objectives may be integral: set
``objective_is_integral`` in the config and nodes whose LP bound cannot
beat the incumbent by at least 1 are pruned.

Two optional accelerations beyond what ``lp_solve`` offered in 1998
(both default-off so the paper's raw search behaviour remains
measurable; the production :class:`~repro.core.partitioner.TemporalPartitioner`
turns them on):

* **SOS1 propagation** (``propagate_sos1``) — when an up-branch sets a
  variable of a registered exactly-one group (a task's ``y[t, *]``
  row) to 1, its group peers' upper bounds drop to 0 in that child.
* **Leaf sub-solve** (``leaf_solver``) — the formulation's objective
  is a function of the group-0 (``y``) variables alone, so once every
  group-0 variable is *bound-fixed* the node is a pure
  scheduling-feasibility problem; it is decided exactly by one call to
  the problem-specific leaf solver instead of by further in-tree
  branching.  Nodes whose LP comes back group-0-integral but
  not bound-fixed are driven to fixation by branching on an unfixed
  group-0 variable (a valid space partition even at integral LP
  values).

Telemetry and deadline robustness
---------------------------------
Every run produces a structured :class:`~repro.ilp.solution.SolveStats`
record: node outcomes bucketed by cause (branched / pruned-by-bound /
pruned-infeasible / integral / leaf-solved), LP calls and cumulative LP
time, SOS1-propagation and leaf-subsolve hit counts, and the incumbent
improvement event log ``(wall_time, objective, bound)``.  Progress
callbacks (``on_node``, ``on_incumbent``) expose the same events live.

Deadline expiry is a first-class outcome, not an error path.  Each open
node carries the LP bound it inherited from its parent, so at any
moment the minimum over the open set is a *proven* global lower bound.
The limits hold: the search stops at the first node boundary past
``time_limit_s`` or ``node_limit``, and no leaf sub-solve is given
more time than remains.  With an incumbent in hand a limit stop
returns status FEASIBLE plus that bound and the relative gap; with
none it returns a bare TIMEOUT or NODE_LIMIT, which the partitioner
degrades to its heuristic baselines.

Resilience
----------
LP backend faults are survivable outcomes too (see
:mod:`repro.ilp.resilience`).  A backend call that raises
:class:`~repro.errors.SolverError` does not kill the search: the node
is **blind-branched** — split on an unfixed integer variable without a
bound, inheriting the parent's proven bound — so no subtree is lost
and no wrong bound ever prunes.  A fully-fixed node whose LP fails is
decided by the exact leaf sub-solve; only if that also fails is the
node *dropped*, which forfeits the optimality proof (the final status
honestly downgrades from OPTIMAL to FEASIBLE, or to ERROR when no
incumbent exists).  :data:`LP_FAILURE_LIMIT` bounds how much failure
the search tolerates before aborting with stop reason
``lp_failure_limit`` — the partitioner's cue to degrade to a heuristic
baseline.

Checkpoint/resume: with ``checkpoint_path`` set, the open-node
frontier, incumbent, and counters are serialized atomically every
``checkpoint_every`` nodes (and on every limit stop); :meth:`resume`
restores that state and continues the identical search — the paper's
">7200 s" runs restart where they died instead of from scratch.
"""

from __future__ import annotations

import math
import os
import time
import warnings
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.errors import SolverError
from repro.ilp.branching import BranchDecision, BranchingRule, PaperBranching
from repro.ilp.model import Model
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import (
    IncumbentEvent,
    LPResult,
    MilpResult,
    NodeEvent,
    SolveStats,
    SolveStatus,
    plain_values,
    relative_gap,
)
from repro.ilp.standard_form import StandardForm, compile_standard_form

#: Time limit of one leaf sub-solve; a time-limited search caps it
#: further at the time that remains.
SUBSOLVE_TIME_LIMIT_S = 30.0

#: Node interval between LP-guided dives (the root always dives).
DIVE_EVERY = 512

#: How close to an integer an LP value must be to count as integral.
INT_TOL = 1e-6

#: Total LP backend failures (calls raising
#: :class:`~repro.errors.SolverError`) tolerated before the search
#: aborts with stop reason ``lp_failure_limit`` — the
#: graceful-degradation cue.  Failures below the limit are survived by
#: blind branching (see module docstring).
LP_FAILURE_LIMIT = 64


@dataclass
class BranchAndBoundConfig:
    """Tuning knobs of the search.

    Parameters
    ----------
    time_limit_s:
        Wall-clock limit; on expiry the best incumbent (if any) is
        returned with status FEASIBLE plus the proven bound and gap.
        The paper's ">7200" rows are exactly this outcome.
    node_limit:
        Maximum number of explored nodes (safety valve for the
        deliberately-bad baselines).
    objective_is_integral:
        Enables the stronger "must improve by >= 1" pruning threshold.
    lp_backend:
        LP relaxation solver; default SciPy HiGHS.  Any callable with
        the ``(form, lb_override, ub_override) -> LPResult`` contract
        is drop-in compatible.
    propagate_sos1:
        Fix SOS1 peers to 0 on up-branches (needs groups registered on
        the model; harmless otherwise).
    node_prober:
        Optional ``f(lb, ub) -> bool`` called on every node before its
        LP; returning True *proves* the node infeasible and prunes it.
        The temporal-partitioning flow plugs in the slot-counting
        prober (:func:`repro.core.probe.make_slot_prober`).
    leaf_solver:
        Optional ``f(lb, ub, budget_s) -> (kind, payload)`` deciding a
        group-0-fixed leaf exactly with a problem-specific compact
        model (:func:`repro.core.leafsolve.make_leaf_solver`).  Given
        one, the search stops branching once every group-0 variable is
        bound-fixed and hands the node to it (see module docstring);
        this requires the group-0 variables to determine the objective,
        which the temporal-partitioning formulation does by
        construction.  Without one every node is decided in the tree.
    on_node:
        Optional callback receiving a
        :class:`~repro.ilp.solution.NodeEvent` after every
        ``callback_every``-th explored node (live progress traces).
    on_incumbent:
        Optional callback receiving each
        :class:`~repro.ilp.solution.IncumbentEvent` as the incumbent
        improves.
    callback_every:
        Node-callback decimation factor (1 = every node).
    checkpoint_path:
        When set, the search state is serialized (atomically) to this
        path every ``checkpoint_every`` explored nodes and on every
        limit stop, so a killed process can :meth:`~BranchAndBound.resume`.
    checkpoint_every:
        Node interval between periodic checkpoint saves.
    heuristics:
        Enable the in-tree primal heuristics
        (:mod:`repro.ilp.heuristics`): LP-guided diving at the root
        and every :data:`DIVE_EVERY` nodes, and 1-opt incumbent
        polishing whenever the incumbent improves.  Heuristic
        incumbents feed the ordinary incumbent machinery (so bound
        pruning fires earlier) and are audited before adoption;
        counters land in ``SolveStats.heuristics``.
    incumbent_auditor:
        Optional ``f(values: Dict[int, float]) -> bool`` run on every
        *heuristic* incumbent before adoption (the partitioner plugs
        in decode + ``verify_design``); a rejected point is discarded
        and counted, never adopted.
    proof_path:
        When set, every tree event is appended (with its certificate)
        to this ``repro.bnb_proof/v1`` JSONL artifact, independently
        re-verifiable with ``repro audit`` (see
        :mod:`repro.ilp.certify`).  Proof mode ignores the node prober
        and demotes the leaf sub-solve to a primal heuristic, run once
        per subtree (neither carries LP dual evidence, so neither may
        close a node), and only applies SOS1 propagations that
        pre-validate in exact arithmetic.
    """

    time_limit_s: Optional[float] = None
    node_limit: Optional[int] = None
    objective_is_integral: bool = False
    lp_backend: Callable[..., LPResult] = solve_lp_scipy
    propagate_sos1: bool = False
    node_prober: "Optional[Callable]" = None
    leaf_solver: "Optional[Callable]" = None
    on_node: "Optional[Callable[[NodeEvent], None]]" = None
    on_incumbent: "Optional[Callable[[IncumbentEvent], None]]" = None
    callback_every: int = 1
    checkpoint_path: "Optional[str]" = None
    checkpoint_every: int = 256
    heuristics: bool = False
    incumbent_auditor: "Optional[Callable[[Dict[int, float]], bool]]" = None
    proof_path: "Optional[str]" = None


#: Zeroed ``SolveStats.heuristics`` telemetry block.
_HEUR_ZERO: "Dict[str, int]" = {
    "dives": 0,
    "dive_lp_solves": 0,
    "dive_leaf_solves": 0,
    "dive_incumbents": 0,
    "polish_calls": 0,
    "polish_lp_solves": 0,
    "polish_leaf_solves": 0,
    "polish_incumbents": 0,
    "audit_rejects": 0,
}


@dataclass
class _Node:
    """One open node: bound overrides plus bookkeeping.

    ``bound`` is the LP objective of the parent (a valid lower bound on
    every solution in this subtree); the root starts at ``-inf`` until
    its own LP is solved.
    """

    lb: "np.ndarray"
    ub: "np.ndarray"
    depth: int
    bound: float = -math.inf
    pid: "Optional[str]" = None  # proof-log node id (proof mode only)
    #: An ancestor already ran the leaf MILP sub-solve as a primal
    #: heuristic (proof mode): re-running it deeper in the same subtree
    #: cannot improve the incumbent, so it is skipped.
    subsolved: bool = False


class BranchAndBound:
    """Branch-and-bound solver for a 0-1 mixed-integer linear model.

    Parameters
    ----------
    model:
        The model to solve (minimization).
    rule:
        Branching rule; defaults to the paper's heuristic.
    config:
        Search configuration.
    """

    def __init__(
        self,
        model: Model,
        rule: "Optional[BranchingRule]" = None,
        config: "Optional[BranchAndBoundConfig]" = None,
    ) -> None:
        self.rule = rule if rule is not None else PaperBranching()
        self.config = config if config is not None else BranchAndBoundConfig()
        self.model = model
        self.form: StandardForm = compile_standard_form(model)
        self._int_indices = np.array(model.integer_indices(), dtype=int)
        self._group0: "List[int]" = [
            v.index
            for v in model.variables
            if v.is_integer and v.branch_group == 0
        ]
        self._group0_set: "Set[int]" = set(self._group0)
        self._sos1_of: "Dict[int, List[int]]" = {}
        for group in model.sos1_groups:
            for idx in group:
                self._sos1_of.setdefault(idx, []).extend(
                    peer for peer in group if peer != idx
                )
        # Per-run state, (re)initialized by solve().
        self._start = 0.0
        self._deadline = math.inf
        self._started = False
        self._stats = SolveStats()
        self._stack: "List[_Node]" = []
        self._incumbent_values: "Optional[Dict[int, float]]" = None
        self._incumbent_obj = math.inf
        # Primal-heuristic state (repro.ilp.heuristics).
        self._heur: "Dict[str, int]" = dict(_HEUR_ZERO)
        self._in_polish = False
        # Resilience state.
        self._exactness_lost = False
        self._lp_failure_abort = False
        self._checkpoint_saves = 0
        self._checkpoint_nodes = 0
        self._resumed = False
        self._resume_payload: "Optional[Dict[str, object]]" = None
        self._elapsed_base = 0.0
        # Proven global lower bound for the polish gate: the root LP
        # objective, or the restored frontier's least bound on resume.
        self._root_bound: "Optional[float]" = None
        # Proof logging state (see repro.ilp.certify).
        self._proof: "Optional[object]" = None
        self._pid_prefix = "m"
        self._node_seq = 0

    # ------------------------------------------------------------------

    def solve(self) -> MilpResult:
        """Run the search and return the result.

        Status semantics:

        * OPTIMAL — incumbent proved optimal (tree exhausted);
        * INFEASIBLE — tree exhausted without any integer solution;
        * FEASIBLE — a limit expired but an incumbent (with a proven
          bound and gap) is attached;
        * TIMEOUT / NODE_LIMIT — the limit expired with no incumbent.
        """
        self._prepare_run()
        return self._finish_run(self._search())

    def _search(self) -> "Optional[SolveStatus]":
        """The depth-first loop of the paper's Section 8.

        Pops and processes nodes until the stack is empty (``None`` is
        returned) or a limit fires (its status is returned).
        """
        while self._stack:
            limit_status = self._limit_status()
            if limit_status is not None:
                return limit_status
            self._process_node(self._stack.pop())
            self._maybe_checkpoint()
        return None

    def _limit_status(self) -> "Optional[SolveStatus]":
        """The stop rule :meth:`_search` checks before each node.

        ERROR once LP failures reached :data:`LP_FAILURE_LIMIT`, TIMEOUT once
        ``time_limit_s`` is spent, NODE_LIMIT once ``node_limit`` nodes
        were explored; ``None`` while the search may go on.
        """
        if self._lp_failure_abort:
            return SolveStatus.ERROR
        if self._time_remaining() <= 0.0:
            return SolveStatus.TIMEOUT
        node_limit = self.config.node_limit
        if node_limit is not None and self._stats.nodes_explored >= node_limit:
            return SolveStatus.NODE_LIMIT
        return None

    def _finish_run(
        self, limit_status: "Optional[SolveStatus]"
    ) -> MilpResult:
        """Endgame of :meth:`solve`: final-checkpoint persistence (or
        stale-checkpoint removal) and result assembly."""
        if limit_status is not None and self.config.checkpoint_path:
            # The stop a checkpoint exists for: persist the final
            # frontier so a restart continues instead of redoing.
            self.save_checkpoint(self.config.checkpoint_path)
        elif self.config.checkpoint_path:
            # Search ran to completion: a leftover periodic checkpoint
            # would only make the next run resume a finished search.
            try:
                os.remove(self.config.checkpoint_path)
            except OSError:
                pass

        result = self._finish(limit_status)
        if self._proof is not None:
            # Nodes still open at a limit stop are honestly forfeited
            # (after the checkpoint snapshot above, so a resumed run's
            # frontier re-covers them and the audit drops the forfeit).
            for open_node in self._stack:
                self._proof.emit_forfeit(
                    self._node_pid(open_node), "open_at_stop",
                    open_node.lb, open_node.ub,
                )
            self._proof.emit_result(
                result.status.value,
                result.objective,
                result.bound,
                self._exactness_lost,
            )
            self._stats.proof = {
                "path": self.config.proof_path,
                "fingerprint": self._proof.fingerprint,
                "records": dict(self._proof.counts),
                "forfeits": int(self._proof.forfeit_count),
            }
            self._close_proof()
        return result

    def _prepare_run(self) -> None:
        """(Re)initialize per-run state for a fresh search: clock
        started, counters zeroed, the root node on the stack, any
        pending resume payload consumed.
        """
        self._start = time.monotonic()
        limit = self.config.time_limit_s
        self._deadline = math.inf if limit is None else self._start + limit
        self._started = True
        self._stats = SolveStats()
        self._incumbent_values = None
        self._incumbent_obj = math.inf
        self._exactness_lost = False
        self._lp_failure_abort = False
        self._checkpoint_saves = 0
        self._elapsed_base = 0.0
        self._root_bound = None
        self._heur = dict(_HEUR_ZERO)
        self._in_polish = False
        self._setup_proof()
        self._stack = [
            _Node(self.form.lb.copy(), self.form.ub.copy(), depth=0, pid="root")
        ]
        if self._resume_payload is not None:
            self._restore_from_checkpoint(self._resume_payload)
            self._resume_payload = None
        self._checkpoint_nodes = self._stats.nodes_explored

    # ------------------------------------------------------------------
    # proof logging plumbing (see repro.ilp.certify)

    def _setup_proof(self) -> None:
        """Attach the proof sink for this run, if any."""
        self._node_seq = 0
        self._pid_prefix = "m"
        if not self.config.proof_path:
            self._proof = None
            return
        from repro.ilp.certify.proof import ProofWriter

        self._proof = ProofWriter(
            self.config.proof_path,
            self.form,
            objective_is_integral=self.config.objective_is_integral,
            int_tol=INT_TOL,
            resume=self._resume_payload is not None,
        )

    def _close_proof(self) -> None:
        if self._proof is not None:
            self._proof.close()
        self._proof = None

    def _next_pid(self) -> str:
        self._node_seq += 1
        return f"{self._pid_prefix}{self._node_seq}"

    def _node_pid(self, node: "_Node") -> str:
        if node.pid is None:  # pragma: no cover - defensive
            node.pid = self._next_pid()
        return node.pid

    def _values_array(self, values: "Dict[int, float]") -> "np.ndarray":
        arr = np.zeros(self.form.num_vars)
        for idx, val in values.items():
            arr[int(idx)] = float(val)
        return arr

    def _emit_infeasible_proof(self, node: "_Node") -> None:
        """Certify an LP-infeasible prune.

        An exactly-empty box is self-evident; otherwise a Farkas
        certificate is extracted with one phase-1 elastic LP (the
        subtree is forfeited when none can be found).
        """
        pid = self._node_pid(node)
        if bool(np.any(node.lb > node.ub)):
            self._proof.emit_prune_infeasible(pid, node.lb, node.ub)
            return
        from repro.ilp.certify.certificates import extract_farkas

        cert = extract_farkas(self.form, node.lb, node.ub)
        if cert is None:
            self._proof.emit_prune_infeasible(pid, node.lb, node.ub)
            return
        self._proof.emit_prune_infeasible(
            pid, node.lb, node.ub, y_ub=cert[0], y_eq=cert[1]
        )

    # ------------------------------------------------------------------
    # node processing

    def _process_node(self, node: _Node) -> None:
        """Explore one node: prune, update the incumbent, or branch."""
        stats = self._stats
        stats.nodes_explored += 1
        stats.max_depth = max(stats.max_depth, node.depth)

        try:
            # The prober's closures carry no checkable certificate, so
            # proof mode ignores it and lets the LP decide.
            if (
                self._proof is None
                and self.config.node_prober is not None
                and self.config.node_prober(node.lb, node.ub)
            ):
                stats.prober_hits += 1
                stats.nodes_pruned_infeasible += 1
                return

            lp_start = time.monotonic()
            try:
                lp = self.config.lp_backend(self.form, node.lb, node.ub)
            except SolverError as exc:
                stats.lp_solves += 1
                stats.lp_time_s += time.monotonic() - lp_start
                self._lp_failed(node, exc)
                return
            stats.lp_solves += 1
            stats.lp_time_s += time.monotonic() - lp_start

            if lp.status is SolveStatus.INFEASIBLE:
                stats.nodes_pruned_infeasible += 1
                if self._proof is not None:
                    self._emit_infeasible_proof(node)
                return
            if lp.status is SolveStatus.UNBOUNDED:
                raise SolverError(
                    "LP relaxation unbounded; 0-1 models must be box-bounded"
                )
            assert lp.values is not None and lp.objective is not None

            if node.depth == 0:
                self._root_bound = float(lp.objective)

            if lp.objective >= self._prune_threshold(self._incumbent_obj):
                stats.nodes_pruned_bound += 1
                if self._proof is not None:
                    self._proof.emit_prune_bound(
                        self._node_pid(node), node.lb, node.ub,
                        lp.dual_ub, lp.dual_eq, self._incumbent_obj,
                    )
                return

            fractional = self._fractional_indices(lp.values)
            if not fractional:
                # Integer feasible: new incumbent (strictly better, else
                # the bound test above would have pruned).
                stats.nodes_integral += 1
                rounded = self._round_integers(lp.values)
                objective = lp.objective
                if self._proof is not None:
                    # The record's objective is the *exact* value of the
                    # rounded point; adopting it as the incumbent keeps
                    # the final claim bit-identical to the certificate.
                    objective = self._proof.emit_integral(
                        self._node_pid(node), node.lb, node.ub,
                        self._values_array(rounded), lp.objective,
                        lp.dual_ub, lp.dual_eq, self._incumbent_obj,
                    )
                self._new_incumbent(objective, rounded)
                return

            if self.config.heuristics and (
                node.depth == 0
                or stats.nodes_explored % DIVE_EVERY == 0
            ):
                if self._try_dive(node, lp):
                    # The dive's incumbent closed this very node: its
                    # own LP bound now prunes it (certified in proof
                    # mode by the ordinary bound-prune record).
                    return

            decision = self._decide(node, lp.values, fractional)
            if decision is None and self._proof is not None:
                # Proof mode: the MILP sub-solve yields no replayable
                # subtree certificate, so it is demoted to a primal
                # heuristic — run once per subtree, certify any
                # improving point as a global incumbent record, and keep
                # branching inside the logged tree (the new incumbent
                # lets ordinary bound pruning close the subtree).
                if not node.subsolved:
                    node.subsolved = True
                    kind, payload = self._leaf_subsolve(node)
                    improving = False
                    if kind == "optimal":
                        sub_obj, sub_values = payload
                        if sub_obj < self._prune_threshold(
                            self._incumbent_obj
                        ):
                            emitted = self._proof.emit_incumbent(
                                self._values_array(sub_values), sub_obj
                            )
                            if emitted is not None:
                                improving = True
                                self._new_incumbent(emitted, sub_values)
                                if lp.objective >= self._prune_threshold(
                                    self._incumbent_obj
                                ):
                                    # Its own LP bound closes this node.
                                    stats.nodes_pruned_bound += 1
                                    self._proof.emit_prune_bound(
                                        self._node_pid(node),
                                        node.lb, node.ub,
                                        lp.dual_ub, lp.dual_eq,
                                        self._incumbent_obj,
                                    )
                                    return
                    if not improving and kind in ("optimal", "infeasible"):
                        # The sub-solve proved this subtree worthless but
                        # left no replayable certificate.  Defer it to
                        # the bottom of the stack: by the time it comes
                        # back the incumbent found elsewhere usually
                        # bound-prunes it in one certified record,
                        # instead of enumerating an LP-feasible but
                        # integer-infeasible region node by node.
                        self._stack.insert(0, node)
                        return
                decision = self.rule.select(self.model, lp.values, fractional)
            elif decision is None:
                # Leaf: every group-0 variable bound-fixed.
                kind, payload = self._leaf_subsolve(node)
                if kind == "optimal":
                    stats.nodes_leaf_solved += 1
                    sub_obj, sub_values = payload
                    if sub_obj < self._prune_threshold(self._incumbent_obj):
                        self._new_incumbent(sub_obj, sub_values)
                    return
                if kind == "infeasible":
                    stats.nodes_leaf_solved += 1
                    return
                # Sub-solve timed out: stay exact by branching normally.
                decision = self.rule.select(self.model, lp.values, fractional)

            stats.nodes_branched += 1
            self._push_children(node, decision, lp.values, lp.objective)
        finally:
            self._emit_node_event(node)

    # ------------------------------------------------------------------
    # primal heuristics (repro.ilp.heuristics)

    def _adopt_heuristic_incumbent(
        self, objective: float, values: "Dict[int, float]", counter: str
    ) -> bool:
        """Audit, (proof-mode) certify, and adopt a heuristic point.

        The configured auditor sees every heuristic point first; in
        proof mode the point must additionally pass the sink's exact
        feasibility pre-validation (an unverifiable point is never
        written and never adopted).  Returns True when the point became
        the incumbent.
        """
        auditor = self.config.incumbent_auditor
        if auditor is not None and not auditor(values):
            self._heur["audit_rejects"] += 1
            return False
        if self._proof is not None:
            emitted = self._proof.emit_incumbent(
                self._values_array(values), objective
            )
            if emitted is None:
                self._heur["audit_rejects"] += 1
                return False
            objective = emitted
        if objective >= self._prune_threshold(self._incumbent_obj):
            return False
        self._heur[counter] += 1
        self._new_incumbent(objective, values)
        return True

    def _try_dive(self, node: _Node, lp: LPResult) -> bool:
        """LP-guided dive from this node's fractional point.

        Returns True when the dive produced an incumbent whose prune
        threshold now closes this very node (the caller then emits the
        certified bound prune and returns).
        """
        from repro.ilp.heuristics import lp_dive

        dived = lp_dive(self, node, lp)
        if dived is None:
            return False
        obj, values = dived
        if obj >= self._prune_threshold(self._incumbent_obj):
            return False
        if not self._adopt_heuristic_incumbent(
            obj, values, "dive_incumbents"
        ):
            return False
        if lp.objective >= self._prune_threshold(self._incumbent_obj):
            self._stats.nodes_pruned_bound += 1
            if self._proof is not None:
                self._proof.emit_prune_bound(
                    self._node_pid(node), node.lb, node.ub,
                    lp.dual_ub, lp.dual_eq, self._incumbent_obj,
                )
            return True
        return False

    def _maybe_polish(self) -> None:
        """1-opt polish around a fresh incumbent (re-entrancy guarded:
        an adopted polished point triggers :meth:`_new_incumbent` again
        but never a second polish pass from inside the first)."""
        if not self.config.heuristics or self._in_polish:
            return
        if (
            self._root_bound is not None
            and self._prune_threshold(self._incumbent_obj)
            <= self._root_bound
        ):
            return  # no integer point can beat the incumbent at all
        from repro.ilp.heuristics import polish_incumbent

        self._in_polish = True
        try:
            polished = polish_incumbent(self)
            if polished is not None:
                self._adopt_heuristic_incumbent(
                    polished[0], polished[1], "polish_incumbents"
                )
        finally:
            self._in_polish = False

    # ------------------------------------------------------------------
    # resilience: LP failure survival

    def _lp_failed(self, node: _Node, exc: SolverError) -> None:
        """Survive an LP backend failure on one node.

        The node's LP bound is unknowable, but its *subtree* is not
        lost: blind-branch it (split an unfixed integer variable with
        no pruning, children inherit the parent's proven bound).  A
        fully-fixed node is decided by the exact leaf sub-solve; if
        that fails too the node is dropped and the optimality proof is
        forfeited.  At :data:`LP_FAILURE_LIMIT` total failures the search
        aborts — at that point the backend chain is evidently dead and
        further blind branching only multiplies unresolvable nodes.
        """
        stats = self._stats
        stats.lp_failures += 1
        if stats.lp_failures >= LP_FAILURE_LIMIT:
            self._lp_failure_abort = True
            self._exactness_lost = True
            stats.nodes_dropped += 1
            if self._proof is not None:
                self._proof.emit_forfeit(
                    self._node_pid(node), "dropped", node.lb, node.ub
                )
            return
        self._branch_blind(node)

    def _branch_blind(self, node: _Node) -> None:
        """Branch a node whose LP failed, without a bound.

        Domain-splits the first unfixed integer variable (in branching
        priority order); both children stay in the tree with the
        parent's inherited bound, so exactness is preserved — only
        pruning power is lost on this node.
        """
        stats = self._stats
        unfixed = [
            int(idx) for idx in self._int_indices
            if node.lb[int(idx)] < node.ub[int(idx)]
        ]
        if not unfixed:
            try:
                kind, payload = self._leaf_subsolve(node)
            except SolverError:
                kind, payload = "failed", None
            if kind == "optimal":
                stats.nodes_leaf_solved += 1
                sub_obj, sub_values = payload
                if sub_obj < self._prune_threshold(self._incumbent_obj):
                    if self._proof is not None:
                        # MILP sub-solve: the point is checkable, the
                        # optimality of the subtree is not (no duals) —
                        # recorded without a certificate, which the
                        # audit counts as a forfeited subtree.
                        sub_obj = self._proof.emit_integral(
                            self._node_pid(node), node.lb, node.ub,
                            self._values_array(sub_values), sub_obj,
                            None, None, self._incumbent_obj,
                        )
                    self._new_incumbent(sub_obj, sub_values)
                elif self._proof is not None:
                    self._proof.emit_forfeit(
                        self._node_pid(node), "uncertified_leaf",
                        node.lb, node.ub,
                    )
                return
            if kind == "infeasible":
                stats.nodes_leaf_solved += 1
                if self._proof is not None:
                    self._proof.emit_forfeit(
                        self._node_pid(node), "uncertified_leaf",
                        node.lb, node.ub,
                    )
                return
            # Exact decision unavailable: drop the node, forfeiting
            # the optimality proof (never a wrong answer, an honest
            # downgrade from OPTIMAL to FEASIBLE/ERROR).
            stats.nodes_dropped += 1
            self._exactness_lost = True
            if self._proof is not None:
                self._proof.emit_forfeit(
                    self._node_pid(node), "dropped", node.lb, node.ub
                )
            return
        pick = min(
            unfixed,
            key=lambda idx: (self.model.variables[idx].branch_key, idx),
        )
        mid = math.floor((node.lb[pick] + node.ub[pick]) / 2.0)
        down = _Node(node.lb.copy(), node.ub.copy(), node.depth + 1,
                     bound=node.bound, subsolved=node.subsolved)
        up = _Node(node.lb.copy(), node.ub.copy(), node.depth + 1,
                   bound=node.bound, subsolved=node.subsolved)
        down.ub[pick] = mid
        up.lb[pick] = mid + 1
        stats.nodes_branched += 1
        stats.blind_branches += 1
        if self._proof is not None:
            down.pid = self._next_pid()
            up.pid = self._next_pid()
            self._proof.emit_branch(
                self._node_pid(node), node.lb, node.ub, pick,
                [(down.pid, down.lb, down.ub), (up.pid, up.lb, up.ub)],
                [],
            )
        self._stack.append(down)
        self._stack.append(up)

    # ------------------------------------------------------------------
    # checkpoint / resume

    def checkpoint(self) -> "Dict[str, object]":
        """Snapshot the resumable search state as a JSON-safe dict."""
        from repro.ilp.resilience.checkpoint import (
            CHECKPOINT_SCHEMA,
            form_fingerprint,
            frontier_to_json,
            values_to_json,
        )

        incumbent = None
        if self._incumbent_values is not None:
            incumbent = {
                "objective": self._incumbent_obj,
                "values": values_to_json(self._incumbent_values),
            }
        # Before solve() the clock has never been started; subtracting
        # the 0.0 placeholder would record the host's monotonic epoch
        # (hours or days) as elapsed search time.
        elapsed = 0.0
        if self._started:
            elapsed = self._elapsed_base + (time.monotonic() - self._start)
        return {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": form_fingerprint(self.form),
            "elapsed_s": elapsed,
            "incumbent": incumbent,
            "frontier": frontier_to_json(self._stack, self.form.lb, self.form.ub),
            "stats": self._stats.as_dict(),
            "exactness_lost": self._exactness_lost,
        }

    def save_checkpoint(self, path: "str") -> None:
        """Atomically write the current search state to ``path``."""
        from repro.ilp.resilience.checkpoint import write_checkpoint_atomic

        write_checkpoint_atomic(path, self.checkpoint())
        self._checkpoint_saves += 1

    def resume(self, checkpoint: "Dict[str, object] | str") -> MilpResult:
        """Continue a search from a checkpoint (dict or file path).

        The checkpoint's model fingerprint must match this solver's
        compiled form (the same model), else a
        :class:`~repro.errors.SolverError` is raised.  The time budget
        (``time_limit_s``) applies to *this* process run; the
        checkpoint's elapsed time accumulates only into the reported
        ``wall_time_s`` telemetry.
        """
        from repro.ilp.resilience.checkpoint import (
            read_checkpoint,
            sweep_checkpoint_temps,
        )

        if isinstance(checkpoint, (str, bytes)) or hasattr(checkpoint, "__fspath__"):
            swept = sweep_checkpoint_temps(checkpoint)
            if swept:
                warnings.warn(
                    f"swept {swept} stale checkpoint temp file(s) left by a "
                    f"crashed write into quarantine before resuming",
                    RuntimeWarning,
                    stacklevel=2,
                )
            checkpoint = read_checkpoint(checkpoint)
        self._resume_payload = checkpoint
        return self.solve()

    def _restore_from_checkpoint(self, payload: "Dict[str, object]") -> None:
        """Replace the fresh-root state inside :meth:`solve` with the saved one."""
        from repro.ilp.resilience.checkpoint import (
            form_fingerprint,
            values_from_json,
        )

        from repro.errors import CheckpointError

        saved = payload.get("fingerprint")
        actual = form_fingerprint(self.form)
        if saved != actual:
            raise CheckpointError(
                f"checkpoint fingerprint {str(saved)[:12]}... does not match "
                f"this model ({actual[:12]}...); refusing to resume",
                cause="bad-fingerprint",
            )
        try:
            stack = self._decode_frontier(payload.get("frontier", []))
            incumbent = payload.get("incumbent")
            incumbent_obj = incumbent_values = None
            if incumbent is not None:
                incumbent_obj = float(incumbent["objective"])
                incumbent_values = values_from_json(incumbent["values"])
            stats = SolveStats.from_dict(payload.get("stats", {}))
        except (KeyError, TypeError, ValueError, AttributeError, IndexError) as exc:
            # A schema-valid header over a mangled body (hand-edited,
            # bit-rotted, wrong-version writer): typed, not a KeyError.
            raise CheckpointError(
                f"checkpoint body is malformed "
                f"({type(exc).__name__}: {exc}); refusing to resume",
                cause="malformed",
            ) from exc
        self._stack = stack
        if incumbent is not None:
            self._incumbent_obj = incumbent_obj
            self._incumbent_values = incumbent_values
        # The restored frontier's least inherited bound is a proven
        # global lower bound, at least as tight as the root LP's.
        self._root_bound = self._open_bound()
        stats.stop_reason = "exhausted"
        stats.best_bound = None
        stats.gap = None
        self._stats = stats
        self._exactness_lost = bool(payload.get("exactness_lost", False))
        self._elapsed_base = float(payload.get("elapsed_s", 0.0))
        self._resumed = True
        if self._proof is not None:
            epoch = self._proof.resume_epoch
            # Namespace this epoch's ids: frontier nodes get e{k}f{i},
            # nodes branched after the resume get e{k}m{n} — disjoint
            # from every earlier epoch's id space.
            self._pid_prefix = f"e{epoch}m"
            self._node_seq = 0
            for i, restored in enumerate(self._stack):
                restored.pid = f"e{epoch}f{i}"
            self._proof.emit_resume(
                [(n.pid, n.lb, n.ub) for n in self._stack]
            )

    def _decode_frontier(self, entries) -> "List[_Node]":
        """Checkpoint-codec frontier entries as open nodes, order kept."""
        from repro.ilp.resilience.checkpoint import decode_node

        nodes = []
        for entry in entries:
            lb, ub, depth, bound = decode_node(
                entry, self.form.lb, self.form.ub
            )
            nodes.append(_Node(lb, ub, depth, bound=bound))
        return nodes

    def _maybe_checkpoint(self) -> None:
        """Save once ``checkpoint_every`` nodes were explored since the
        last save (or since the run started)."""
        path = self.config.checkpoint_path
        if not path:
            return
        explored = self._stats.nodes_explored
        every = max(1, self.config.checkpoint_every)
        if explored - self._checkpoint_nodes >= every:
            self.save_checkpoint(path)
            self._checkpoint_nodes = explored

    # ------------------------------------------------------------------
    # incumbent / bound / event bookkeeping

    def _new_incumbent(self, objective: float, values: "Dict[int, float]") -> None:
        self._incumbent_obj = objective
        self._incumbent_values = values
        self._stats.incumbent_updates += 1
        event = IncumbentEvent(
            wall_time_s=time.monotonic() - self._start,
            objective=objective,
            bound=self._open_bound(),
        )
        self._stats.incumbent_events.append(event)
        if self.config.on_incumbent is not None:
            self.config.on_incumbent(event)
        self._maybe_polish()

    def _open_bound(self) -> "Optional[float]":
        """Best proven global lower bound from the open-node set.

        Every open node carries its parent's LP objective, a valid
        lower bound for its subtree; optimality can only hide in open
        subtrees, so their minimum bounds the global optimum.  With the
        tree exhausted the incumbent itself is the bound.  ``None``
        while no finite bound exists (root LP not yet solved).
        """
        if not self._stack:
            if math.isfinite(self._incumbent_obj):
                return self._incumbent_obj
            return None
        bound = min(node.bound for node in self._stack)
        if math.isfinite(self._incumbent_obj):
            bound = min(bound, self._incumbent_obj)
        return bound if math.isfinite(bound) else None

    def _emit_node_event(self, node: _Node) -> None:
        if self.config.on_node is None:
            return
        if self._stats.nodes_explored % max(1, self.config.callback_every):
            return
        self.config.on_node(
            NodeEvent(
                wall_time_s=time.monotonic() - self._start,
                nodes_explored=self._stats.nodes_explored,
                depth=node.depth,
                open_nodes=len(self._stack),
                incumbent_objective=(
                    None
                    if self._incumbent_values is None
                    else self._incumbent_obj
                ),
                best_bound=self._open_bound(),
            )
        )

    def _finish(self, limit_status: "Optional[SolveStatus]") -> MilpResult:
        """Assemble the result and final telemetry for any stop cause."""
        stats = self._stats
        stats.wall_time_s = self._elapsed_base + (time.monotonic() - self._start)
        stats.resilience = self._resilience_block()
        if self.config.heuristics:
            stats.heuristics = dict(self._heur)
        kernel_fn = getattr(self.config.lp_backend, "kernel_telemetry", None)
        if callable(kernel_fn):
            stats.kernel = kernel_fn()
        has_incumbent = self._incumbent_values is not None

        if limit_status is None:
            stats.stop_reason = "exhausted"
            if self._exactness_lost:
                # Some node was dropped unresolved: the tree is done
                # but the proof is not.  An incumbent is still a
                # genuine feasible solution — just not provably
                # optimal, and the "infeasible" conclusion would be
                # unsound.
                if not has_incumbent:
                    return MilpResult(status=SolveStatus.ERROR, stats=stats)
                return MilpResult(
                    status=SolveStatus.FEASIBLE,
                    objective=self._incumbent_obj,
                    values=self._incumbent_values,
                    stats=stats,
                )
            if not has_incumbent:
                return MilpResult(status=SolveStatus.INFEASIBLE, stats=stats)
            stats.best_bound = self._incumbent_obj
            stats.gap = 0.0
            return MilpResult(
                status=SolveStatus.OPTIMAL,
                objective=self._incumbent_obj,
                values=self._incumbent_values,
                stats=stats,
                bound=self._incumbent_obj,
                gap=0.0,
            )

        if limit_status is SolveStatus.ERROR:
            stats.stop_reason = "lp_failure_limit"
        elif limit_status is SolveStatus.TIMEOUT:
            stats.stop_reason = "time_limit"
        else:
            stats.stop_reason = "node_limit"
        bound = self._open_bound()
        stats.best_bound = bound
        if not has_incumbent:
            return MilpResult(status=limit_status, stats=stats, bound=bound)
        gap = None if bound is None else relative_gap(self._incumbent_obj, bound)
        stats.gap = gap
        return MilpResult(
            status=SolveStatus.FEASIBLE,
            objective=self._incumbent_obj,
            values=self._incumbent_values,
            stats=stats,
            bound=bound,
            gap=gap,
        )

    def _resilience_block(self) -> "Optional[Dict[str, object]]":
        """The ``solve.resilience`` telemetry block, or None when inert.

        Present whenever any resilience machinery was engaged: a
        resilience-aware backend (anything exposing
        ``resilience_telemetry()``), an LP failure, a dropped node,
        a checkpoint event, or a resume.
        """
        backend = None
        telemetry_fn = getattr(self.config.lp_backend, "resilience_telemetry", None)
        if callable(telemetry_fn):
            backend = telemetry_fn()
        stats = self._stats
        if (
            backend is None
            and not stats.lp_failures
            and not stats.nodes_dropped
            and not self._checkpoint_saves
            and not self._resumed
        ):
            return None
        return {
            "lp_failures": stats.lp_failures,
            "blind_branches": stats.blind_branches,
            "nodes_dropped": stats.nodes_dropped,
            "exactness_lost": self._exactness_lost,
            "checkpoints_saved": self._checkpoint_saves,
            "resumed": self._resumed,
            "backend": backend,
        }

    # ------------------------------------------------------------------
    # branching machinery

    def _decide(
        self, node: _Node, values, fractional
    ) -> "Optional[BranchDecision]":
        """Pick the branching decision, or None to trigger a leaf sub-solve."""
        if self.config.leaf_solver is None or not self._group0:
            return self.rule.select(self.model, values, fractional)

        frac0 = [idx for idx in fractional if idx in self._group0_set]
        if frac0:
            return self.rule.select(self.model, values, fractional)

        unfixed0 = [
            idx for idx in self._group0 if node.lb[idx] != node.ub[idx]
        ]
        if unfixed0:
            # Group-0 integral in the LP but not yet decided by bounds.
            # Branch on the variable the LP set to 1 (keep/exclude
            # dichotomy): the up-child keeps the LP's assignment (and
            # SOS1 propagation fixes the whole row), the down-child
            # excludes exactly that choice.  Branching on a 0-valued
            # peer instead would enumerate 0-fixings one at a time and
            # blow the tree up from ~k^tasks to ~2^(tasks*k).
            ones = [idx for idx in unfixed0 if values[idx] >= 0.5]
            pool = ones if ones else unfixed0
            pick = min(
                pool,
                key=lambda idx: (
                    self.model.variables[idx].branch_key,
                    idx,
                ),
            )
            return BranchDecision(pick, up_first=True)
        return None  # every group-0 variable bound-fixed: sub-solve

    def _push_children(self, node, decision, values, lp_bound: float) -> None:
        """Split the node on the decided variable.

        For a fractional value the children are the classic
        ``<= floor`` / ``>= ceil`` pair.  For an *integral* value v
        (leaf-fixation branching on an LP-integral variable) the split
        is keep/exclude: one child pins ``>= v`` (v >= 1) or ``<= 0``
        (v == 0), the other excludes v — naive floor/ceil would leave
        one child's bounds unchanged and loop forever.

        Children inherit this node's LP objective as their subtree
        bound (the telemetry layer's source of proven global bounds).
        """
        idx = decision.var_index
        value = values[idx]
        if node.lb[idx] == node.ub[idx]:  # pragma: no cover - defensive
            raise SolverError(f"branching on a fixed variable {idx}")
        down = _Node(
            node.lb.copy(), node.ub.copy(), node.depth + 1,
            bound=lp_bound, subsolved=node.subsolved,
        )
        up = _Node(
            node.lb.copy(), node.ub.copy(), node.depth + 1,
            bound=lp_bound, subsolved=node.subsolved,
        )
        if abs(value - round(value)) > INT_TOL:
            down.ub[idx] = math.floor(value)
            up.lb[idx] = math.ceil(value)
        else:
            v = round(value)
            if v >= 1:
                down.ub[idx] = v - 1
                up.lb[idx] = v
            else:
                down.ub[idx] = 0
                up.lb[idx] = 1
        tightens: "List[tuple]" = []
        if up.lb[idx] >= 1.0 and self.config.propagate_sos1:
            for peer in self._sos1_of.get(idx, ()):
                if up.ub[peer] > 0.0:
                    if self._proof is not None:
                        # Only propagate what the checker can re-derive
                        # from a recorded constraint row by exact
                        # interval arithmetic over the current up-box.
                        just = self._proof.justify_tighten(
                            up.lb, up.ub, peer, 0.0
                        )
                        if just is None:
                            continue
                        up.ub[peer] = 0.0
                        tightens.append((int(peer), 0.0, just[0], just[1]))
                    else:
                        up.ub[peer] = 0.0
                    self._stats.sos1_propagations += 1
        if self._proof is not None:
            down.pid = self._next_pid()
            up.pid = self._next_pid()
            self._proof.emit_branch(
                self._node_pid(node), node.lb, node.ub, idx,
                [(down.pid, down.lb, down.ub), (up.pid, up.lb, up.ub)],
                tightens,
            )
        # LIFO stack: push the non-preferred branch first so the
        # preferred one is explored first.
        if decision.up_first:
            self._stack.append(down)
            self._stack.append(up)
        else:
            self._stack.append(up)
            self._stack.append(down)

    def _leaf_subsolve(self, node: _Node):
        """Decide a fixed leaf exactly with one call.

        The configured ``leaf_solver`` decides it; without one (a fully
        fixed node whose LP failed, see :meth:`_branch_blind`) one
        HiGHS MILP call on the full model with the node's bounds does.
        Returns ``("optimal", (obj, values))``, ``("infeasible", None)``
        or ``("timeout", None)`` — the caller falls back to in-tree
        branching on a timeout so the search stays exact.  The budget
        never exceeds the time that remains; with none left no solver
        is called at all.
        """
        from repro.ilp.milp_backend import solve_milp_scipy

        budget = min(SUBSOLVE_TIME_LIMIT_S, self._time_remaining())
        if budget <= 0.0:
            return "timeout", None
        self._stats.leaf_subsolve_calls += 1
        if self.config.leaf_solver is not None:
            return self.config.leaf_solver(node.lb, node.ub, budget)
        sub_form = StandardForm(
            c=self.form.c,
            a_ub=self.form.a_ub,
            b_ub=self.form.b_ub,
            a_eq=self.form.a_eq,
            b_eq=self.form.b_eq,
            lb=node.lb,
            ub=node.ub,
            integrality=self.form.integrality,
        )
        result = solve_milp_scipy(sub_form, time_limit_s=budget)
        if result.status is SolveStatus.OPTIMAL:
            return "optimal", (result.objective, plain_values(result.values))
        if result.status is SolveStatus.INFEASIBLE:
            return "infeasible", None
        return "timeout", None

    # ------------------------------------------------------------------
    # helpers

    def _time_remaining(self) -> float:
        """Seconds left before this run's deadline; inf without a time
        limit."""
        return self._deadline - time.monotonic()

    def _prune_threshold(self, incumbent_obj: float) -> float:
        """LP bounds at or above this value cannot improve the incumbent."""
        if incumbent_obj is math.inf:
            return math.inf
        if self.config.objective_is_integral:
            # A better integer solution improves by at least 1.
            return incumbent_obj - 1.0 + 1e-6
        return incumbent_obj - 1e-9

    def _fractional_indices(self, values: "Dict[int, float]") -> "List[int]":
        tol = INT_TOL
        result: "List[int]" = []
        for idx in self._int_indices:
            v = values[int(idx)]
            if abs(v - round(v)) > tol:
                result.append(int(idx))
        return result

    def _round_integers(self, values: "Dict[int, float]") -> "Dict[int, float]":
        rounded = plain_values(values)
        for idx in self._int_indices:
            rounded[int(idx)] = float(round(values[int(idx)]))
        return rounded
