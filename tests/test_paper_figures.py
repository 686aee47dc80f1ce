"""Figures 3 and 4 of the paper, as exact checks.

Figure 3 walks a 3-task / 3-partition example: with tasks mapped
t1->p1, t2->p2, t3->p3, the variables w[2,t1,t2], w[2,t1,t3],
w[3,t1,t3] and w[3,t2,t3] are 1, and each cut's memory constraint
sums the bandwidths of the dependencies alive across it (the t1->t3
edge is counted at both cuts).

Figure 4 takes one dependency t1 -> t2 over N = 4 partitions and the
variable w[3,t1,t2]: three placements make no product term 1, yet the
compact eq-31 definition alone tolerates w = 1.  Each is cut off by
one tightening family, already in the LP relaxation:

1. t1 -> p1, t2 -> p2  (both before the cut)  -> eq 29;
2. t1 -> p3, t2 -> p4  (both at/after the cut) -> eq 28;
3. t1 -> p2, t2 -> p2  (same partition)        -> eq 30.

``scripts/run_experiments.py`` cites these test ids in EXPERIMENTS.md.
"""

import pytest

from repro.core.constraints import partitioning, tightening
from repro.core.formulation import build_model
from repro.core.spec import ProblemSpec
from repro.core.variables import build_variables
from repro.graph.builders import TaskGraphBuilder
from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.model import Model
from repro.ilp.scipy_backend import solve_lp_scipy
from repro.ilp.solution import SolveStatus
from repro.ilp.standard_form import compile_standard_form
from repro.library.catalogs import mix_from_string
from repro.target.fpga import FPGADevice
from repro.target.memory import ScratchMemory


def figure3_spec():
    b = TaskGraphBuilder("fig3")
    b.task("t1").op("m1", "mul").op("m2", "mul")
    b.task("t2").op("a1", "add").op("a2", "add").chain("a1", "a2")
    b.task("t3").op("m3", "mul").op("m4", "mul").chain("m3", "m4")
    b.data_edge("t1.m1", "t2.a1", width=3)
    b.data_edge("t2.a2", "t3.m3", width=2)
    b.data_edge("t1.m2", "t3.m4", width=4)
    return ProblemSpec.create(
        graph=b.build(),
        allocation=mix_from_string("1A+1M"),
        device=FPGADevice("fig3", capacity=130, alpha=0.7),
        memory=ScratchMemory(12),
        n_partitions=3,
        relaxation=3,
    )


def test_figure3_w_values_and_cut_sums():
    model, space = build_model(figure3_spec())
    # Force the figure's mapping: t1 -> 1, t2 -> 2, t3 -> 3.
    for task, p_fixed in (("t1", 1), ("t2", 2), ("t3", 3)):
        model.add(space.y[(task, p_fixed)].to_expr() == 1)
    result = BranchAndBound(
        model,
        config=BranchAndBoundConfig(objective_is_integral=True, time_limit_s=60),
    ).solve()
    assert result.status is SolveStatus.OPTIMAL

    def w(p, t1, t2):
        return round(result.values[space.w[(p, t1, t2)].index])

    # The figure's four live w variables...
    assert w(2, "t1", "t2") == 1
    assert w(2, "t1", "t3") == 1
    assert w(3, "t1", "t3") == 1
    assert w(3, "t2", "t3") == 1
    # ...and the two that stay 0.
    assert w(3, "t1", "t2") == 0
    assert w(2, "t2", "t3") == 0
    # Cut sums: 3 + 4 = 7 across cut 2;  4 + 2 = 6 across cut 3.
    cut2 = 3 * w(2, "t1", "t2") + 4 * w(2, "t1", "t3") + 2 * w(2, "t2", "t3")
    cut3 = 3 * w(3, "t1", "t2") + 4 * w(3, "t1", "t3") + 2 * w(3, "t2", "t3")
    assert cut2 == 7
    assert cut3 == 6
    # Objective = total transfer = 7 + 6.
    assert result.objective == 13


def figure4_spec():
    b = TaskGraphBuilder("fig4")
    b.task("t1").op("a1", "add")
    b.task("t2").op("a2", "add")
    b.data_edge("t1.a1", "t2.a2", width=1)
    return ProblemSpec.create(
        graph=b.build(),
        allocation=mix_from_string("1A"),
        device=FPGADevice("fig4", capacity=100, alpha=0.7),
        memory=ScratchMemory(10),
        n_partitions=4,
        relaxation=3,
    )


def max_w_under(placement, with_cuts: bool) -> float:
    """LP-maximize w[3,t1,t2] under eq 31 (+ eqs 28-30 when asked)."""
    spec = figure4_spec()
    model = Model("fig4")
    space = build_variables(model, spec)
    partitioning.add_uniqueness(model, spec, space)
    partitioning.add_temporal_order(model, spec, space)
    tightening.add_tight_w_definition(model, spec, space)
    if with_cuts:
        tightening.add_w_source_cut(model, spec, space)
        tightening.add_w_sink_cut(model, spec, space)
        tightening.add_w_colocation_cut(model, spec, space)
    for task, p in placement.items():
        model.add(space.y[(task, p)].to_expr() == 1)
    model.set_objective(-1 * space.w[(3, "t1", "t2")])  # maximize w
    lp = solve_lp_scipy(compile_standard_form(model))
    assert lp.status is SolveStatus.OPTIMAL
    return -lp.objective


CASES = [
    ("t2-before-cut", {"t1": 1, "t2": 2}),  # eq 29
    ("t1-after-cut", {"t1": 3, "t2": 4}),  # eq 28
    ("colocated", {"t1": 2, "t2": 2}),  # eq 30
]


@pytest.mark.parametrize("placement", [c[1] for c in CASES], ids=[c[0] for c in CASES])
def test_figure4_cuts_remove_spurious_w(placement):
    # eq 31 alone tolerates the spurious w = 1; the cuts forbid it.
    assert max_w_under(placement, with_cuts=False) == pytest.approx(1.0, abs=1e-6)
    assert max_w_under(placement, with_cuts=True) == pytest.approx(0.0, abs=1e-6)


def test_figure4_legitimate_crossing_survives():
    # t1 -> p1, t2 -> p4 genuinely crosses cut 3: w must be allowed 1.
    assert max_w_under({"t1": 1, "t2": 4}, with_cuts=True) == pytest.approx(1.0, abs=1e-6)
