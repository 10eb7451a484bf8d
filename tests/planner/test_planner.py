"""Tests for the planner facade: modes, ordering invariants, verification."""

import pytest

from repro.core.errors import PlanningError
from repro.evaluation.workloads import build_workload
from repro.obs import NULL_OBS, Observability
from repro.packets import Trace, attacks
from repro.planner import QueryPlanner, PlanningMode
from repro.planner.refinement import RefinementSpec
from repro.queries.library import build_queries, build_query
from repro.switch.config import SwitchConfig

VICTIM = 0x0A000001


@pytest.fixture(scope="module")
def planner(request):
    backbone = request.getfixturevalue("backbone_medium")
    attack = attacks.syn_flood(VICTIM, start=0.0, duration=12.0, pps=100, seed=2)
    trace = Trace.merge([backbone, attack])
    queries = build_queries(["newly_opened_tcp_conns", "superspreader"])
    return QueryPlanner(queries, trace, window=3.0, time_limit=20)


@pytest.fixture(scope="module")
def plans(planner):
    return {
        mode.value: planner.plan(mode) for mode in PlanningMode
    }


class TestModeInvariants:
    def test_mode_ordering(self, plans):
        """The Table 4 systems must be ordered as Figure 7 shows."""
        assert plans["sonata"].est_total_tuples <= plans["max_dp"].est_total_tuples
        assert plans["max_dp"].est_total_tuples <= plans["filter_dp"].est_total_tuples
        assert (
            plans["filter_dp"].est_total_tuples <= plans["all_sp"].est_total_tuples
        )
        assert plans["sonata"].est_total_tuples <= plans["fix_ref"].est_total_tuples

    def test_all_sp_runs_nothing_on_switch(self, plans):
        assert all(not inst.on_switch for inst in plans["all_sp"].all_instances())

    def test_filter_dp_cuts_are_filters_only(self, plans):
        from repro.core.operators import Filter

        for inst in plans["filter_dp"].all_instances():
            for op in inst.augmented.operators[: inst.cut]:
                assert isinstance(op, Filter)

    def test_max_dp_no_refinement(self, plans):
        for qplan in plans["max_dp"].query_plans.values():
            assert qplan.path == (32,)

    def test_fix_ref_uses_all_levels(self, plans):
        for qplan in plans["fix_ref"].query_plans.values():
            assert qplan.path == (8, 16, 24, 32)

    def test_sonata_paths_end_at_native(self, plans):
        for qplan in plans["sonata"].query_plans.values():
            assert qplan.path[-1] == 32

    def test_plans_install_cleanly(self, planner, plans):
        for plan in plans.values():
            planner.verify(plan)  # must not raise


class TestSolvers:
    def test_ilp_not_worse_than_greedy(self, planner):
        for mode in ("sonata", "max_dp", "fix_ref"):
            ilp = planner.plan(mode, solver="ilp")
            greedy = planner.plan(mode, solver="greedy")
            assert ilp.est_total_tuples <= greedy.est_total_tuples * 1.001

    def test_greedy_plans_install(self, planner):
        plan = planner.plan("sonata", solver="greedy")
        planner.verify(plan)

    def test_unknown_solver_rejected(self, planner):
        with pytest.raises(PlanningError):
            planner.plan("sonata", solver="quantum")

    def test_unknown_mode_rejected(self, planner):
        with pytest.raises(ValueError):
            planner.plan("bogus")


class TestDelayBound:
    def test_max_delay_limits_path(self, request):
        backbone = request.getfixturevalue("backbone_medium")
        attack = attacks.syn_flood(VICTIM, duration=12.0, pps=100, seed=2)
        trace = Trace.merge([backbone, attack])
        query = build_query("newly_opened_tcp_conns", qid=1)
        planner = QueryPlanner(
            [query], trace, window=3.0, max_delay={1: 2}, time_limit=20
        )
        plan = planner.plan("sonata")
        assert plan.query_plans[1].detection_delay_windows <= 2


class TestRefinementOverride:
    def test_forced_spec_respected(self, request):
        backbone = request.getfixturevalue("backbone_medium")
        query = build_query("newly_opened_tcp_conns", qid=1)
        planner = QueryPlanner(
            [query],
            backbone,
            window=3.0,
            refinement_specs={1: RefinementSpec("ipv4.dIP", (24, 32))},
            time_limit=20,
        )
        plan = planner.plan("fix_ref")
        assert plan.query_plans[1].path == (24, 32)


class TestJoinConstraint:
    def test_subqueries_share_refinement_path(self, request):
        """§4.2: joined sub-queries must use the same refinement plan."""
        backbone = request.getfixturevalue("backbone_medium")
        attack = attacks.slowloris(VICTIM, duration=12.0, n_connections=900, seed=3)
        trace = Trace.merge([backbone, attack])
        query = build_query("slowloris", qid=1)
        planner = QueryPlanner([query], trace, window=3.0, time_limit=20)
        plan = planner.plan("sonata")
        qplan = plan.query_plans[1]
        for r_prev, r_level in qplan.transitions():
            instances = qplan.instances_for(r_prev, r_level)
            # both sub-queries present at every transition of the path
            assert {inst.subid for inst in instances} == {0, 1}


class TestEmptyInput:
    def test_no_queries_rejected(self, backbone_small):
        with pytest.raises(PlanningError):
            QueryPlanner([], backbone_small)


class TestEightLevelPlanning:
    def test_paper_level_count_tractable(self, request):
        """The paper plans with eight refinement levels; the ILP must stay
        solvable at that size on a single query."""
        import time

        backbone = request.getfixturevalue("backbone_medium")
        attack = attacks.syn_flood(VICTIM, duration=12.0, pps=100, seed=2)
        trace = Trace.merge([backbone, attack])
        query = build_query("newly_opened_tcp_conns", qid=1)
        planner = QueryPlanner(
            [query], trace, window=3.0, max_levels=8, time_limit=30
        )
        start = time.perf_counter()
        plan = planner.plan("sonata")
        elapsed = time.perf_counter() - start
        assert plan.query_plans[1].path[-1] == 32
        assert elapsed < 60


class TestRateSweep:
    """The three smoke queries plan and install at every training rate.

    At 10k-30k pps the sized ``ddos`` register exceeds the switch's
    single-register cap; the planner must steer around it rather than hand
    the switch a plan it refuses.
    """

    THREE = ["ddos", "newly_opened_tcp_conns", "superspreader"]

    @pytest.mark.parametrize("pps", [3_000, 10_000, 20_000, 30_000, 60_000])
    def test_plan_installs(self, pps):
        trace = build_workload(self.THREE, duration=9, pps=pps, seed=7).trace
        training = trace.time_range(trace.start_ts, trace.start_ts + 3.0)
        planner = QueryPlanner(build_queries(self.THREE, window=3.0), training, window=3.0)
        plan = planner.plan("sonata")  # verify_install: raises if it does not fit
        assert "fallback" not in plan.solver_info
        cap = planner.config.max_single_register_bits
        assert all(
            t.register_bits <= cap for inst in plan.all_instances() for t in inst.tables
        )

    CONFIGS = {
        "paper_default": SwitchConfig.paper_default(),
        "strawman": SwitchConfig.strawman(),
        "phv64": SwitchConfig(phv_header_bits=64),
        "phv32": SwitchConfig(phv_header_bits=32),
        "phv8": SwitchConfig(phv_header_bits=8),
        "one_table_per_stage": SwitchConfig(stateless_actions_per_stage=1),
    }

    @pytest.fixture(scope="class", params=[3_000, 20_000])
    def training(self, request):
        trace = build_workload(self.THREE, duration=6, pps=request.param, seed=7).trace
        return trace.time_range(trace.start_ts, trace.start_ts + 3.0)

    @pytest.mark.parametrize("solver", ["ilp", "greedy"])
    @pytest.mark.parametrize("switch", list(CONFIGS))
    def test_plan_installs_or_names_the_budget(self, training, switch, solver):
        """Every switch envelope either plans a set of instances that
        installs, or fails with a typed error naming the budget to raise."""
        config = self.CONFIGS[switch]
        queries = build_queries(self.THREE, window=3.0)
        planner = QueryPlanner(queries, training, config=config, window=3.0)
        try:
            plan = planner.plan("sonata", solver=solver)
        except PlanningError as exc:
            assert any(name in str(exc) for name in SwitchConfig.__dataclass_fields__)
            return
        planner.verify(plan)
        if switch.startswith("phv") and solver == "ilp":
            greedy = planner.plan("sonata", solver="greedy")
            assert plan.est_total_tuples <= greedy.est_total_tuples + 1e-6


class TestPlannerObservability:
    def test_solve_span_carries_the_milp_size(self, synflood_trace):
        obs = Observability()
        query = build_query("newly_opened_tcp_conns", qid=1, Th=10)
        planner = QueryPlanner([query], synflood_trace, window=3.0, obs=obs)
        plan = planner.plan("sonata")
        greedy = planner.plan("sonata", solver="greedy")
        ilp_span, greedy_span = obs.tracer.spans_named("planner.solve")
        assert ilp_span.attrs["milp_vars"] == plan.solver_info["variables"]
        assert ilp_span.attrs["milp_constraints"] == plan.solver_info["constraints"]
        assert "milp_vars" not in greedy_span.attrs
        assert "variables" not in greedy.solver_info

    def test_solve_span_names_the_path_taken(self, synflood_trace):
        """separable, milp or greedy; a binding budget is an event."""
        obs = Observability()
        query = build_query("newly_opened_tcp_conns", qid=1, Th=10)
        for config in (SwitchConfig.paper_default(), SwitchConfig(phv_header_bits=32)):
            QueryPlanner([query], synflood_trace, config=config, window=3.0, obs=obs).plan()
        QueryPlanner([query], synflood_trace, window=3.0, obs=obs).plan(solver="greedy")
        assert [s.attrs["solved_by"] for s in obs.tracer.spans_named("planner.solve")] == [
            "separable",
            "milp",
            "greedy",
        ]
        (declined,) = obs.tracer.events_named("planner.separable_declined")
        assert "phv_header_bits" in declined.attrs["budget"]

    def test_disabled_observability_records_nothing(self, synflood_trace):
        query = build_query("newly_opened_tcp_conns", qid=1, Th=10)
        config = SwitchConfig(phv_header_bits=32)
        plan = QueryPlanner([query], synflood_trace, config=config, window=3.0, obs=NULL_OBS).plan()
        assert plan.solver_info["solver"] == "milp"
        assert NULL_OBS.tracer.spans == [] and NULL_OBS.tracer.events == []
        assert NULL_OBS.snapshot().samples == []
