"""Chaos suite: seeded fault injection against the full stack.

Marked ``chaos`` so CI can run it as its own job (``pytest -m chaos``);
it is cheap enough to stay in tier-1 as well.  The properties:

* every fault class, injected into the primary backend, ends at the
  fault-free optimum — the fallback chain absorbs the damage;
* the fault sequence is a pure function of the seed and the injector's
  name, so chaos runs are exactly reproducible and each chain slot
  draws its own faults;
* a kill + resume (checkpoint) under chaos still reproduces the
  fault-free optimum;
* a permanently dead backend chain degrades to a *verified* heuristic
  design with the cause recorded in telemetry v3 — never a crash.
"""

import json
import os

import pytest

from repro.cli import main
from repro.errors import SolverError, TransientSolverError
from repro.graph.generators import paper_graph
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.resilience import (
    FAULT_KINDS,
    FaultInjectingBackend,
    FaultPlan,
    ResilientLPBackend,
)
from repro.ilp import highs
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import LPResult, SolveStatus
from repro.ilp.standard_form import compile_standard_form
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
            ("scipy-highs", solve_lp_scipy),
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


class TestSlotFaultStreams:
    """Each chain slot draws its own fault sequence, a pure function of
    (seed, rate, kinds, slot)."""

    def test_stream_is_pinned_per_name(self):
        plan = FaultPlan(kinds=("infeasible",), rate=0.5, seed=3)
        calls = {}
        for name in ("chaos[incremental]", "chaos[scipy-highs]"):
            chaos = FaultInjectingBackend(
                lambda form, lb, ub: LPResult(status=SolveStatus.INFEASIBLE),
                plan, name=name,
            )
            for _ in range(12):
                chaos(None)
            calls[name] = [record.call for record in chaos.log]
        # Literal values: string seeds go through SHA-512, so these
        # hold under every PYTHONHASHSEED.
        assert calls == {
            "chaos[incremental]": [4, 6, 9, 12],
            "chaos[scipy-highs]": [1, 4, 7, 8, 9],
        }

    @pytest.mark.skipif(
        not highs.have_highspy(), reason="needs the kernel slot"
    )
    def test_every_wrapped_slot_draws_its_own_stream(self):
        plan = FaultPlan(
            kinds=FAULT_KINDS, rate=0.5, seed=3, slow_s=0.0, targets="all",
        )
        backend = parallel_support.make_lp_backend(chaos=plan)
        form = compile_standard_form(tree_model())
        logs = []
        for slot in backend._slots:
            for _ in range(30):
                try:
                    slot.fn(form, form.lb, form.ub)
                except SolverError:
                    pass
            logs.append([(record.call, record.kind) for record in slot.fn.log])
        assert len(logs) >= 2
        assert len({tuple(log) for log in logs}) == len(logs)

    def test_all_backends_chaos_keeps_the_optimum(self, capsys):
        """Seed 3 once drew the same spurious INFEASIBLE in both slots,
        and the double-check confirmed it on a spec whose optimum is 0."""
        spec = ["--paper-graph", "1", "--mix", "2A+2M+1S", "-N", "3",
                "-L", "1", "--json"]
        assert main(spec) == 0
        fault_free = json.loads(capsys.readouterr().out)
        assert main(spec + [
            "--chaos-faults", "raise,fatal,nan,perturb,infeasible",
            "--chaos-rate", "0.3", "--chaos-seed", "3",
            "--chaos-all-backends",
        ]) == 0
        chaotic = json.loads(capsys.readouterr().out)
        assert (chaotic["status"], chaotic["objective"]) == (
            fault_free["status"], fault_free["objective"],
        ) == ("optimal", 0)
        assert chaotic["degraded"] is False


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

    def test_one_slot_chain_without_binding_keeps_the_optimum(
        self, monkeypatch
    ):
        """Without SciPy's HiGHS binding the chain is ``scipy-highs``
        alone; seed 0 injects spurious INFEASIBLEs that only asking
        the same slot again can overrule."""
        fault_free = TemporalPartitioner().partition(
            paper_graph(1), "2A+2M+1S", n_partitions=3, relaxation=1
        )
        monkeypatch.setattr(highs, "_binding", (None, "no binding (stub)"))
        plan = FaultPlan(
            kinds=("raise", "fatal", "nan", "perturb", "infeasible"),
            rate=0.3, seed=0,
        )
        chaotic = TemporalPartitioner(chaos=plan).partition(
            paper_graph(1), "2A+2M+1S", n_partitions=3, relaxation=1
        )
        assert chaotic.solve_stats.kernel is None
        assert chaotic.status is fault_free.status is SolveStatus.OPTIMAL
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
        assert record["schema"] == "repro.solve_telemetry/v12"
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
