"""Property tests for the primal heuristics.

Two invariants the heuristics machinery must uphold:

* **Answer preservation** — enabling heuristics never changes the
  solved status or the optimal objective, only (possibly) the path the
  search takes to it.
* **Heuristic soundness** — incumbents produced by diving/polishing
  are real designs: the end-to-end pipeline's `verify_design` accepts
  them and the in-solver auditor never has to reject one.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.generators import RandomGraphConfig, random_task_graph
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.expr import lin_sum
from repro.ilp.model import Model
from repro.ilp.solution import SolveStatus
from repro.target.fpga import FPGADevice
from repro.target.memory import ScratchMemory
from repro.core.partitioner import TemporalPartitioner
from repro.core.verify import verify_design


@st.composite
def random_01_model(draw):
    """Random small 0/1 knapsack-style model."""
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    coef = st.integers(-3, 3)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-2, 5)) for _ in range(m)]
    return c, rows, rhs


def build_01(c, rows, rhs):
    model = Model("heuristics-prop")
    xs = [model.add_binary(f"x{i}") for i in range(len(c))]
    for row, b in zip(rows, rhs):
        model.add(lin_sum(k * x for k, x in zip(row, xs)) <= b)
    model.set_objective(lin_sum(k * x for k, x in zip(c, xs)))
    return model


@given(random_01_model())
@settings(max_examples=40, deadline=None)
def test_property_heuristics_preserve_optimum(problem):
    """heuristics-on solves ≡ the plain solve, always."""
    plain = BranchAndBound(build_01(*problem)).solve()
    tuned = BranchAndBound(
        build_01(*problem),
        config=BranchAndBoundConfig(heuristics=True),
    ).solve()
    assert tuned.status == plain.status
    if plain.status is SolveStatus.OPTIMAL:
        assert tuned.objective == pytest.approx(plain.objective, abs=1e-6)


def _partitioner(**kwargs) -> TemporalPartitioner:
    return TemporalPartitioner(
        device=FPGADevice("prop", capacity=150, alpha=0.7),
        memory=ScratchMemory(12),
        backend="bnb",
        time_limit_s=60,
        **kwargs,
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_property_heuristic_incumbents_are_real_designs(seed):
    """Dive/polish incumbents survive the independent verifier."""
    graph = random_task_graph(
        RandomGraphConfig(n_tasks=3, n_ops=5, seed=seed, cluster_skew=0.5)
    )
    plain = _partitioner().partition(
        graph, "1A+1M+1S", n_partitions=2, relaxation=2
    )
    tuned = _partitioner(heuristics=True).partition(
        graph, "1A+1M+1S", n_partitions=2, relaxation=2
    )
    assert tuned.status == plain.status
    heur = tuned.solve_stats.heuristics
    assert heur is not None
    assert heur["audit_rejects"] == 0
    if plain.status is SolveStatus.OPTIMAL:
        assert tuned.objective == pytest.approx(plain.objective)
        verify_design(tuned.design, expected_objective=tuned.objective)


def test_dive_collapses_a_table_row_to_one_node():
    """Pin the headline win: a root dive closes t3-g1-N2-L2 at node 1."""
    from repro.reporting.experiments import run_row, table_rows

    row = next(r for r in table_rows("t3") if r.key == "t3-g1-N2-L2")
    result = run_row(row, time_limit_s=60, heuristics=True)
    solve = result["telemetry"]["solve"]
    assert result["status"] == "optimal"
    assert solve["nodes_explored"] == 1
    heur = solve["heuristics"]
    assert heur["dive_incumbents"] >= 1
    assert heur["audit_rejects"] == 0
