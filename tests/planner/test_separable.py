"""The per-query optima against the joint MILP.

``PlanILP.solve()`` first solves each query alone, with the rows that
couple queries (per-stage budgets, the table total, C5 and the header
budget) dropped, and returns that plan when it places on one switch.
Dropping rows relaxes the MILP, so whenever the per-query plan is returned
its objective must equal the joint MILP's.
"""

import pytest

from repro.core.errors import PlanningError
from repro.evaluation.workloads import build_workload
from repro.planner import PlanningMode, QueryPlanner
from repro.planner.ilp import PlanILP
from repro.queries.library import QUERY_LIBRARY, build_queries
from repro.switch.config import SwitchConfig

THREE = ("ddos", "newly_opened_tcp_conns", "superspreader")

TRAINING = {
    "three-3k": (THREE, 3_000),
    "three-60k": (THREE, 60_000),
    "all11-3k": (tuple(QUERY_LIBRARY), 3_000),
}


def _planner(names, pps) -> QueryPlanner:
    trace = build_workload(list(names), duration=3, pps=pps, seed=7).trace
    training = trace.time_range(trace.start_ts, trace.start_ts + 3.0)
    return QueryPlanner(build_queries(list(names), window=3.0), training, window=3.0)


@pytest.fixture(scope="module", params=list(TRAINING))
def planner(request):
    return _planner(*TRAINING[request.param])


class TestAgainstTheJointMilp:
    @pytest.mark.parametrize("mode", [m.value for m in PlanningMode])
    def test_objective_equals_the_joint_milp(self, planner, mode):
        costs = planner.costs()
        config = planner.config
        plan = PlanILP(costs, config, mode=mode).solve()
        joint = PlanILP(costs, config, mode=mode)._milp_plan()
        assert "fallback" not in joint.solver_info
        assert plan.solver_info["objective"] == pytest.approx(
            joint.solver_info["objective"], abs=1e-6
        )
        planner.verify(plan)


class TestStructure:
    def test_three_queries_plan_without_the_milp(self):
        """No budget of the paper's switch binds for the smoke workload."""
        planner = _planner(THREE, 3_000)
        plan = planner.plan("sonata")
        assert plan.solver_info["solver"] == "separable"
        assert plan.solver_info["variables"] == 0

    @pytest.mark.parametrize("cap", [1, 2])
    def test_delay_cap_bounds_the_path(self, cap):
        costs = _planner(THREE, 3_000).costs()
        config = SwitchConfig.paper_default()
        max_delay = {qid: cap for qid in costs}
        plan = PlanILP(costs, config, max_delay=max_delay).solve()
        joint = PlanILP(costs, config, max_delay=max_delay)._milp_plan()
        assert plan.solver_info["solver"] == "separable"
        assert all(len(qp.path) <= cap for qp in plan.query_plans.values())
        assert plan.solver_info["objective"] == pytest.approx(
            joint.solver_info["objective"], abs=1e-6
        )

    def test_unreachable_delay_cap_raises(self):
        """fix_ref needs every level; a cap below that leaves no path, so
        planning raises before any solve rather than return a plan that
        breaks the cap."""
        planner = _planner(THREE, 3_000)
        costs = planner.costs()
        capped = {qid: 1 for qid, qc in costs.items() if len(qc.levels) > 1}
        assert capped
        ilp = PlanILP(
            costs, SwitchConfig.paper_default(), mode="fix_ref", max_delay=capped,
        )
        with pytest.raises(PlanningError, match="max_delay"):
            ilp.solve()
        assert ilp.model.n_vars == 0  # no MILP was built
