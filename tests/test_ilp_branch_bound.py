"""Tests for branch and bound, branching rules, and the MILP backend.

The headline property test: on random small 0-1 models, our branch and
bound (under *every* branching rule) and SciPy's HiGHS MILP agree on
feasibility and optimal objective value.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp.branch_bound import BranchAndBound, BranchAndBoundConfig
from repro.ilp.branching import (
    FirstFractionalBranching,
    MostFractionalBranching,
    PaperBranching,
    PseudoRandomBranching,
    make_rule,
)
from repro.ilp.expr import lin_sum
from repro.ilp.milp_backend import solve_milp_scipy
from repro.ilp.model import Model
from repro.ilp.solution import SolveStatus


def knapsack_model():
    """max 5a+4b+3c s.t. 2a+3b+c <= 3  =>  optimum value 8 (a, c)."""
    model = Model("knap")
    a = model.add_binary("a")
    b = model.add_binary("b")
    c = model.add_binary("c")
    model.add(2 * a + 3 * b + c <= 3)
    model.set_objective(-5 * a - 4 * b - 3 * c)
    return model


RULES = [
    PaperBranching(),
    FirstFractionalBranching(),
    MostFractionalBranching(),
    PseudoRandomBranching(seed=7),
]


class TestBranchAndBound:
    @pytest.mark.parametrize("rule", RULES, ids=lambda r: type(r).__name__)
    def test_knapsack_all_rules(self, rule):
        result = BranchAndBound(knapsack_model(), rule=rule).solve()
        assert result.status is SolveStatus.OPTIMAL
        assert result.objective == pytest.approx(-8.0)

    def test_matches_scipy_milp(self):
        ours = BranchAndBound(knapsack_model()).solve()
        scipys = solve_milp_scipy(knapsack_model())
        assert ours.objective == pytest.approx(scipys.objective)

    def test_infeasible_model(self):
        model = Model("inf")
        x = model.add_binary("x")
        model.add(x >= 1)
        model.add(x <= 0)
        model.set_objective(x + 0)
        result = BranchAndBound(model).solve()
        assert result.status is SolveStatus.INFEASIBLE
        assert not result.has_solution

    def test_node_limit(self):
        model = knapsack_model()
        config = BranchAndBoundConfig(node_limit=1)
        result = BranchAndBound(model, config=config).solve()
        assert result.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)

    def test_time_limit_without_rescue_returns_timeout(self):
        model = knapsack_model()
        config = BranchAndBoundConfig(time_limit_s=0.0)
        result = BranchAndBound(model, config=config).solve()
        assert result.status is SolveStatus.TIMEOUT
        assert not result.has_solution
        assert result.stats.nodes_explored == 0

    def test_integral_objective_pruning(self):
        config = BranchAndBoundConfig(objective_is_integral=True)
        result = BranchAndBound(knapsack_model(), config=config).solve()
        assert result.objective == pytest.approx(-8.0)

    def test_mixed_integer_continuous(self):
        model = Model("mix")
        x = model.add_binary("x")
        t = model.add_var("t", 0.0, 10.0)
        model.add(t <= 4 * x + 1)
        model.set_objective(-1 * t + 2 * x)
        # x=0: t<=1 -> obj -1;  x=1: t<=5 -> obj -3.  Optimum -3.
        result = BranchAndBound(model).solve()
        assert result.objective == pytest.approx(-3.0)
        assert result.values[x.index] == 1.0

    def test_stats_populated(self):
        result = BranchAndBound(knapsack_model()).solve()
        assert result.stats.nodes_explored >= 1
        assert result.stats.lp_solves == result.stats.nodes_explored
        assert result.stats.wall_time_s >= 0.0


class TestBranchingRules:
    def test_paper_rule_uses_metadata(self):
        model = Model("m")
        lo = model.add_binary("lo", branch_group=0, branch_key=(0, 1))
        hi = model.add_binary("hi", branch_group=0, branch_key=(1, 0))
        later = model.add_binary("later", branch_group=1, branch_key=(0,))
        decision = PaperBranching().select(
            model, {0: 0.5, 1: 0.5, 2: 0.5}, [later.index, hi.index, lo.index]
        )
        assert decision.var_index == lo.index
        assert decision.up_first is True

    def test_first_fractional(self):
        model = knapsack_model()
        decision = FirstFractionalBranching().select(model, {0: 0.5}, [2, 0])
        assert decision.var_index == 0
        assert decision.up_first is False

    def test_most_fractional(self):
        model = knapsack_model()
        values = {0: 0.9, 1: 0.45, 2: 0.2}
        decision = MostFractionalBranching().select(model, values, [0, 1, 2])
        assert decision.var_index == 1

    def test_pseudo_random_deterministic(self):
        a = PseudoRandomBranching(seed=3)
        b = PseudoRandomBranching(seed=3)
        model = knapsack_model()
        values = {0: 0.5, 1: 0.5, 2: 0.5}
        picks_a = [a.select(model, values, [0, 1, 2]).var_index for _ in range(5)]
        picks_b = [b.select(model, values, [0, 1, 2]).var_index for _ in range(5)]
        assert picks_a == picks_b

    def test_registry(self):
        assert isinstance(make_rule("paper"), PaperBranching)
        with pytest.raises(ValueError, match="unknown branching rule"):
            make_rule("nope")


@st.composite
def random_01_model(draw):
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 5))
    coef = st.integers(-3, 3)
    c = [draw(coef) for _ in range(n)]
    rows = [[draw(coef) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(-2, 5)) for _ in range(m)]
    return c, rows, rhs


def build_01(c, rows, rhs):
    model = Model("prop")
    xs = [model.add_binary(f"x{i}") for i in range(len(c))]
    for row, b in zip(rows, rhs):
        model.add(lin_sum(k * x for k, x in zip(row, xs)) <= b)
    model.set_objective(lin_sum(k * x for k, x in zip(c, xs)))
    return model


@given(random_01_model(), st.sampled_from(["paper", "first", "most-fractional"]))
@settings(max_examples=60, deadline=None)
def test_property_bnb_matches_scipy_milp(problem, rule_name):
    c, rows, rhs = problem
    ours = BranchAndBound(build_01(c, rows, rhs), rule=make_rule(rule_name)).solve()
    scipys = solve_milp_scipy(build_01(c, rows, rhs))
    assert (ours.status is SolveStatus.OPTIMAL) == (
        scipys.status is SolveStatus.OPTIMAL
    )
    if ours.status is SolveStatus.OPTIMAL:
        assert ours.objective == pytest.approx(scipys.objective, abs=1e-6)
        model = build_01(c, rows, rhs)
        assert not model.check_feasible(ours.values, tol=1e-6)
