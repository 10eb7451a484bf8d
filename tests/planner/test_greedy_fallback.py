"""Tests for the greedy heuristic and the MILP -> greedy fallback path."""

import dataclasses

import pytest

from repro.core.errors import PlanningError, ResourceExhaustedError
from repro.evaluation.workloads import build_workload
from repro.packets import Trace, attacks
from repro.planner import QueryPlanner
from repro.planner.ilp import PlanILP
from repro.planner.refinement import ROOT_LEVEL
from repro.queries.library import build_queries
from repro.switch.config import SwitchConfig
from repro.switch.simulator import PISASwitch

VICTIM = 0x0A000001


@pytest.fixture(scope="module")
def costs(request):
    backbone = request.getfixturevalue("backbone_medium")
    attack = attacks.syn_flood(VICTIM, duration=12.0, pps=100, seed=2)
    trace = Trace.merge([backbone, attack])
    queries = build_queries(
        ["newly_opened_tcp_conns", "superspreader", "ddos", "port_scan"]
    )
    planner = QueryPlanner(queries, trace, window=3.0)
    return planner.costs()


class TestFallback:
    def test_zero_time_limit_falls_back_to_greedy(self, costs):
        """An impossible MILP budget must still yield a feasible plan. One
        stateful action per stage over three stages binds, so the MILP
        runs (the per-query optima do not place)."""
        config = SwitchConfig(stages=3, stateful_actions_per_stage=1)
        ilp = PlanILP(
            costs,
            config,
            mode="sonata",
            time_limit=1e-3,  # HiGHS cannot find an incumbent this fast
        )
        plan = ilp.solve()
        assert "stateful_actions_per_stage" in plan.solver_info["separable_declined"]
        assert plan.solver_info.get("fallback", "").startswith("greedy")
        assert plan.query_plans  # feasible plan for every query
        _install(plan, config)  # and it installs cleanly

    def test_generous_limit_uses_milp(self, costs):
        ilp = PlanILP(
            costs,
            SwitchConfig(stages=3, stateful_actions_per_stage=1),
            mode="max_dp",
            time_limit=60,
        )
        plan = ilp.solve()
        assert plan.solver_info["solver"] == "milp"
        assert "fallback" not in plan.solver_info
        assert plan.solver_info["status"] == 0

    def test_unplaceable_milp_stages_fall_back_to_greedy(self, costs, monkeypatch):
        """Stages the ledger cannot place reach the greedy fallback, which
        names the table and the budget, instead of raising."""
        config = SwitchConfig(stages=3, stateful_actions_per_stage=1)
        decode = PlanILP._decode

        def every_table_at_stage_0(self, solution):
            choices, fixed = decode(self, solution)
            return choices, {key: dict.fromkeys(f, 0) for key, f in fixed.items()}

        monkeypatch.setattr(PlanILP, "_decode", every_table_at_stage_0)
        plan = PlanILP(costs, config, mode="sonata").solve()
        reason = plan.solver_info["fallback"]
        assert reason.startswith("greedy (MILP stages do not place")
        assert "table " in reason and "(C4)" in reason
        _install(plan, config)


THREE = ["ddos", "newly_opened_tcp_conns", "superspreader"]


@pytest.fixture(scope="module", params=[3_000, 20_000])
def three_costs(request):
    trace = build_workload(THREE, duration=6, pps=request.param, seed=7).trace
    training = trace.time_range(trace.start_ts, trace.start_ts + 3.0)
    return QueryPlanner(build_queries(THREE, window=3.0), training, window=3.0).costs()


class TestTableSlotSweep:
    """The MILP counts table slots over the whole switch, so its stages can
    leave one stage a slot short. Planning then falls back to greedy."""

    @pytest.mark.parametrize("stages", [4, 8, 16])
    @pytest.mark.parametrize("slots", range(1, 7))
    def test_ilp_never_raises_where_greedy_installs(self, three_costs, stages, slots):
        config = SwitchConfig(stages=stages, stateless_actions_per_stage=slots)
        greedy = PlanILP(three_costs, config).greedy()
        _install(greedy, config)
        plan = PlanILP(three_costs, config, mode="sonata").solve()
        _install(plan, config)
        if "fallback" not in plan.solver_info:
            assert plan.est_total_tuples <= greedy.est_total_tuples + 1e-6



class TestDelayCap:
    """fix_ref refines through every level, so a ``max_delay`` below the
    level count leaves no path: planning raises instead of returning a
    greedy plan that breaks the cap."""

    def test_fix_ref_cap_below_levels_raises(self, three_costs):
        config = SwitchConfig.paper_default()
        cap = {qid: 1 for qid in three_costs}
        with pytest.raises(PlanningError, match=r"q\d+: .*max_delay=1"):
            PlanILP(three_costs, config, mode="fix_ref", max_delay=cap).solve()
        with pytest.raises(PlanningError, match="max_delay=1"):
            PlanILP(three_costs, config, mode="fix_ref", max_delay=cap).greedy()

    def test_fix_ref_cap_at_levels_plans(self, three_costs):
        config = SwitchConfig.paper_default()
        cap = {qid: len(qc.levels) for qid, qc in three_costs.items()}
        for plan in (
            PlanILP(three_costs, config, mode="fix_ref", max_delay=cap).solve(),
            PlanILP(three_costs, config, mode="fix_ref", max_delay=cap).greedy(),
        ):
            for qid, qp in plan.query_plans.items():
                assert len(qp.path) <= cap[qid]
            _install(plan, config)


def _install(plan, config):
    plan.install(PISASwitch(config))


class TestGreedyInstall:
    def test_only_a_refused_install_downgrades_a_cut(self, costs, monkeypatch):
        """A bug inside ``install`` must surface, not pass as a full switch."""
        def broken(self, *args, **kwargs):
            raise TypeError("bug inside install")

        monkeypatch.setattr(PISASwitch, "install", broken)
        with pytest.raises(TypeError, match="bug inside install"):
            PlanILP(costs, SwitchConfig.paper_default()).greedy()


JOINS = ["syn_flood", "incomplete_flows", "slowloris"]


@pytest.fixture(scope="module")
def join_costs():
    trace = build_workload(JOINS, duration=6, pps=3_000, seed=7).trace
    training = trace.time_range(trace.start_ts, trace.start_ts + 3.0)
    return QueryPlanner(build_queries(JOINS, window=3.0), training, window=3.0).costs()


class TestGreedyRanking:
    """The greedy heuristic ranks each query's choices with the separable
    solver's pricing, so where no switch budget binds it plans the same."""

    @pytest.mark.parametrize("stages", [1, 2, 4, 16])
    @pytest.mark.parametrize("qid", [1, 2, 3])
    def test_one_join_query_matches_the_separable_optimum(self, join_costs, qid, stages):
        costs = {qid: join_costs[qid]}
        config = dataclasses.replace(SwitchConfig.paper_default(), stages=stages)
        optimum = PlanILP(costs, config).solve()
        assert optimum.solver_info["solver"] == "separable"
        greedy = PlanILP(costs, config).greedy()
        assert greedy.query_plans[qid].path == optimum.query_plans[qid].path
        assert greedy.est_total_tuples == optimum.est_total_tuples
        _install(greedy, config)

    def test_a_query_no_choice_installs_runs_at_the_stream_processor(
        self, join_costs, monkeypatch
    ):
        def full(self, key, *args, **kwargs):
            raise ResourceExhaustedError(f"{key}: full")

        monkeypatch.setattr(PISASwitch, "install", full)
        plan = PlanILP(join_costs, SwitchConfig.paper_default()).greedy()
        for qid, qplan in plan.query_plans.items():
            assert qplan.path == (join_costs[qid].native_level,)
            assert not any(inst.on_switch for inst in qplan.instances)

    def test_a_refused_choice_leaves_nothing_installed(self, join_costs, monkeypatch):
        """Refining paths fail after their first transition installed; the
        greedy takes them back off the switch before the next choice."""
        live = set()
        install, uninstall = PISASwitch.install, PISASwitch.uninstall

        def only_from_the_root(self, key, *args, **kwargs):
            if f"@{ROOT_LEVEL}-" not in key:
                raise ResourceExhaustedError(f"{key}: refused")
            live.add(key)
            return install(self, key, *args, **kwargs)

        def tracked_uninstall(self, key):
            live.discard(key)
            uninstall(self, key)

        config = SwitchConfig.paper_default()
        optimum = PlanILP(join_costs, config).solve()
        assert any(len(qplan.path) > 1 for qplan in optimum.query_plans.values())
        monkeypatch.setattr(PISASwitch, "install", only_from_the_root)
        monkeypatch.setattr(PISASwitch, "uninstall", tracked_uninstall)
        plan = PlanILP(join_costs, config).greedy()
        assert live == {inst.key for inst in plan.all_instances() if inst.on_switch}
        assert all(len(qplan.path) == 1 for qplan in plan.query_plans.values())
