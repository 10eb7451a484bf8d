"""Tests for the MILP builder over HiGHS."""

import pytest

from repro.core.errors import PlanningError
from repro.planner.milp_model import MilpModel


class TestModel:
    def test_simple_lp(self):
        model = MilpModel()
        x = model.add_var("x", lower=0, upper=10)
        model.set_objective({x: -1.0})  # maximize x
        model.add_constraint({x: 1.0}, upper=4.0)
        solution = model.solve()
        assert solution.value("x") == pytest.approx(4.0)

    def test_binary_knapsack(self):
        model = MilpModel()
        items = [("a", 10, 5), ("b", 6, 4), ("c", 5, 3)]
        for name, _, _ in items:
            model.add_binary(name)
        model.add_constraint({n: w for n, _, w in items}, upper=7.0)
        model.set_objective({n: -v for n, v, _ in items})
        solution = model.solve()
        chosen = {n for n, _, _ in items if solution.binary(n)}
        assert chosen == {"b", "c"}  # value 11 beats 10

    def test_equality_constraint(self):
        model = MilpModel()
        model.add_binary("a")
        model.add_binary("b")
        model.add_equality({"a": 1.0, "b": 1.0}, 1.0)
        model.set_objective({"a": 1.0, "b": 2.0})
        solution = model.solve()
        assert solution.binary("a") and not solution.binary("b")

    def test_infeasible_raises(self):
        model = MilpModel()
        model.add_binary("a")
        model.add_equality({"a": 1.0}, 2.0)
        with pytest.raises(PlanningError):
            model.solve()

    def test_duplicate_variable_rejected(self):
        model = MilpModel()
        model.add_var("x")
        with pytest.raises(PlanningError):
            model.add_var("x")

    def test_constant_infeasible_constraint(self):
        model = MilpModel()
        model.add_var("x")
        with pytest.raises(PlanningError):
            model.add_constraint({"x": 0.0}, lower=1.0)

    def test_empty_coefficients_skipped(self):
        model = MilpModel()
        model.add_var("x", lower=0, upper=1)
        model.add_constraint({"x": 0.0}, upper=5.0)  # dropped silently
        model.set_objective({"x": 1.0})
        assert model.solve().value("x") == pytest.approx(0.0)
