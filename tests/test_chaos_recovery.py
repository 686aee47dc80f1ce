"""Chaos suite: seeded fault injection against the full stack.

Marked ``chaos`` so CI can run it as its own job (``pytest -m chaos``);
it is cheap enough to stay in tier-1 as well.  The properties:

* every fault class, injected into the primary backend, ends at the
  fault-free optimum — the fallback chain absorbs the damage;
* the fault sequence is a pure function of the seed, so chaos runs are
  exactly reproducible;
* a kill + resume (checkpoint) under chaos still reproduces the
  fault-free optimum;
* a permanently dead backend chain degrades to a *verified* heuristic
  design with the cause recorded in telemetry v3 — never a crash.
"""

import os

import pytest

from repro.errors import TransientSolverError
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.resilience import (
    FAULT_KINDS,
    FaultInjectingBackend,
    FaultPlan,
    ResilientLPBackend,
)
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.simplex import solve_lp_simplex
from repro.ilp.solution import SolveStatus
from repro.core import parallel_support
from repro.core.partitioner import TemporalPartitioner

pytestmark = pytest.mark.chaos


def tree_model():
    """A knapsack with a real search tree (~23 nodes, optimum -56)."""
    model = Model("tree")
    weights = [3, 5, 7, 11, 13, 17, 19, 23]
    values = [5, 8, 11, 15, 17, 20, 24, 29]
    xs = [model.add_binary(f"x{i}") for i in range(8)]
    model.add(lin_sum(w * x for w, x in zip(weights, xs)) <= 40)
    model.set_objective(lin_sum(-v * x for v, x in zip(values, xs)))
    return model


def chaos_backend(plan):
    """Resilient chain with fault injection on the primary backend."""
    return ResilientLPBackend(
        backends=[
            ("chaos[scipy-highs]", FaultInjectingBackend(solve_lp_scipy, plan)),
            ("simplex", solve_lp_simplex),
        ],
        double_check_infeasible=True,
        sleep=lambda s: None,
    )


class TestEveryFaultClassRecovers:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_bnb_reaches_fault_free_optimum(self, kind):
        baseline = BranchAndBound(tree_model()).solve()
        plan = FaultPlan(kinds=(kind,), rate=0.4, seed=13, slow_s=0.0)
        config = BranchAndBoundConfig(lp_backend=chaos_backend(plan))
        chaotic = BranchAndBound(tree_model(), config=config).solve()
        assert chaotic.status is SolveStatus.OPTIMAL
        assert chaotic.objective == pytest.approx(baseline.objective)

    def test_all_classes_at_once(self):
        baseline = BranchAndBound(tree_model()).solve()
        plan = FaultPlan(kinds=FAULT_KINDS, rate=0.5, seed=99, slow_s=0.0)
        config = BranchAndBoundConfig(lp_backend=chaos_backend(plan))
        chaotic = BranchAndBound(tree_model(), config=config).solve()
        assert chaotic.status is SolveStatus.OPTIMAL
        assert chaotic.objective == pytest.approx(baseline.objective)


class TestChaosDeterminism:
    def test_same_seed_same_run(self):
        records = []
        for _ in range(2):
            plan = FaultPlan(kinds=FAULT_KINDS, rate=0.5, seed=7, slow_s=0.0)
            backend = chaos_backend(plan)
            result = BranchAndBound(
                tree_model(), config=BranchAndBoundConfig(lp_backend=backend)
            ).solve()
            block = result.stats.resilience["backend"]
            records.append(
                (
                    result.objective,
                    result.stats.nodes_explored,
                    block["injector"]["injected"],
                    block["injector"]["by_kind"],
                )
            )
        assert records[0] == records[1]


class TestChaosKillAndResume:
    def test_resumed_chaotic_search_reproduces_optimum(self, tmp_path):
        baseline = BranchAndBound(tree_model()).solve()
        path = str(tmp_path / "chaos_ck.json")

        plan = FaultPlan(kinds=("raise", "perturb"), rate=0.3, seed=21)
        interrupted = BranchAndBound(
            tree_model(),
            config=BranchAndBoundConfig(
                lp_backend=chaos_backend(plan),
                node_limit=5, checkpoint_path=path, checkpoint_every=1,
            ),
        ).solve()
        assert interrupted.status is not SolveStatus.OPTIMAL
        assert os.path.exists(path)

        # The "restarted process": fresh solver, fresh injector state.
        plan2 = FaultPlan(kinds=("raise", "perturb"), rate=0.3, seed=22)
        resumed = BranchAndBound(
            tree_model(),
            config=BranchAndBoundConfig(lp_backend=chaos_backend(plan2)),
        ).resume(path)
        assert resumed.status is SolveStatus.OPTIMAL
        assert resumed.objective == pytest.approx(baseline.objective)


class TestPipelineUnderChaos:
    def test_partitioner_chaos_matches_fault_free(self, chain3_graph, big_device):
        fault_free = TemporalPartitioner(device=big_device).partition(
            chain3_graph, "1A+1M+1S", n_partitions=2, relaxation=2
        )
        plan = FaultPlan(kinds=FAULT_KINDS, rate=0.3, seed=5, slow_s=0.0)
        chaotic = TemporalPartitioner(device=big_device, chaos=plan).partition(
            chain3_graph, "1A+1M+1S", n_partitions=2, relaxation=2
        )
        assert chaotic.status is fault_free.status
        assert chaotic.objective == fault_free.objective
        assert not chaotic.degraded

    def test_dead_chain_degrades_to_verified_design(
        self, monkeypatch, chain3_graph, big_device
    ):
        def dead(form, lb, ub):
            raise TransientSolverError("permanently down", backend="dead")

        monkeypatch.setattr(
            parallel_support,
            "make_lp_backend",
            lambda **kwargs: ResilientLPBackend(backends=[("dead", dead)]),
        )
        tp = TemporalPartitioner(device=big_device)
        outcome = tp.partition(
            chain3_graph, "1A+1M+1S", n_partitions=2, relaxation=2
        )
        assert outcome.degraded is True
        assert outcome.fallback in ("level", "greedy")
        # The design exists and already passed verify_design.
        assert outcome.design is not None
        assert outcome.status is SolveStatus.FEASIBLE
        record = outcome.telemetry()
        assert record["schema"] == "repro.solve_telemetry/v11"
        assert record["degraded"] is True
        assert record["degradation_cause"] is not None
        row = outcome.summary_row()
        assert row["degraded"] is True and row["fallback"] == outcome.fallback

    def test_chaos_on_all_backends_never_raises(self, chain3_graph, big_device):
        plan = FaultPlan(
            kinds=("raise", "fatal"), rate=0.8, seed=3, targets="all"
        )
        tp = TemporalPartitioner(device=big_device, chaos=plan)
        outcome = tp.partition(
            chain3_graph, "1A+1M+1S", n_partitions=2, relaxation=2
        )
        # Recovery or degradation are both acceptable; an exception is not.
        if outcome.degraded:
            assert outcome.design is None or outcome.fallback is not None
        else:
            assert outcome.status in (
                SolveStatus.OPTIMAL, SolveStatus.FEASIBLE
            )
