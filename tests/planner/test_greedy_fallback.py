"""Tests for the MILP -> greedy fallback path."""

import pytest

from repro.packets import Trace, attacks
from repro.planner import QueryPlanner
from repro.planner.ilp import PlanILP
from repro.queries.library import build_queries
from repro.switch.config import SwitchConfig

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
        """An impossible MILP budget must still yield a feasible plan."""
        ilp = PlanILP(
            costs,
            SwitchConfig(stages=2),
            mode="sonata",
            time_limit=1e-3,  # HiGHS cannot find an incumbent this fast
        )
        plan = ilp.solve()
        assert plan.solver_info.get("fallback", "").startswith("greedy")
        assert plan.query_plans  # feasible plan for every query
        # And it installs cleanly.
        from repro.switch.simulator import PISASwitch

        switch = PISASwitch(SwitchConfig(stages=2))
        for inst in plan.all_instances():
            if inst.on_switch:
                switch.install(
                    inst.key, inst.compiled, inst.cut,
                    sized_tables=inst.tables,
                    stage_assignment=inst.stage_assignment,
                )

    def test_generous_limit_uses_milp(self, costs):
        ilp = PlanILP(
            costs, SwitchConfig.paper_default(), mode="max_dp", time_limit=60
        )
        plan = ilp.solve()
        assert "fallback" not in plan.solver_info
        assert plan.solver_info["status"] == 0


class TestGreedyInstall:
    def test_only_a_refused_install_downgrades_a_cut(self, costs, monkeypatch):
        """A bug inside ``install`` must surface, not pass as a full switch."""
        from repro.planner.planner import GreedyPlanner
        from repro.switch.simulator import PISASwitch

        def broken(self, *args, **kwargs):
            raise TypeError("bug inside install")

        monkeypatch.setattr(PISASwitch, "install", broken)
        with pytest.raises(TypeError, match="bug inside install"):
            GreedyPlanner(costs, SwitchConfig.paper_default()).solve()
