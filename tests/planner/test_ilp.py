"""Tests for the planning ILP against hand-checkable scenarios."""

import pytest

from repro.core.errors import PlanningError
from repro.packets import Trace, attacks
from repro.planner.costs import CostEstimator
from repro.planner.ilp import PlanILP
from repro.planner.refinement import RefinementSpec
from repro.queries.library import build_query
from repro.switch.config import KB, SwitchConfig
from repro.switch.simulator import PISASwitch

VICTIM = 0x0A000001


@pytest.fixture(scope="module")
def costs(request):
    backbone = request.getfixturevalue("backbone_medium")
    attack = attacks.syn_flood(VICTIM, start=0.0, duration=12.0, pps=100, seed=2)
    trace = Trace.merge([backbone, attack])
    query = build_query("newly_opened_tcp_conns", qid=1, Th=120)
    return CostEstimator(
        [query],
        trace,
        window=3.0,
        refinement_specs={1: RefinementSpec("ipv4.dIP", (8, 16, 32))},
    ).estimate()


class TestSection33Scenario:
    """The paper's §3.3 walk-through: a rich switch runs Query 1 fully."""

    def test_rich_switch_full_on_switch(self, costs):
        plan = PlanILP(costs, SwitchConfig.paper_default(), mode="max_dp").solve()
        inst = plan.query_plans[1].instances[0]
        assert inst.cut == inst.compiled.compilable_operators
        # only the aggregated, thresholded keys go up
        assert plan.est_total_tuples < 100

    def test_tiny_register_budget_forces_partition(self, costs):
        """If B is too small for the reduce, the cut moves before it."""
        config = SwitchConfig(
            stages=16,
            stateful_actions_per_stage=8,
            register_bits_per_stage=100,  # can't hold any register
            max_single_register_bits=100,
        )
        plan = PlanILP(costs, config, mode="max_dp").solve()
        inst = plan.query_plans[1].instances[0]
        assert inst.cut < inst.compiled.compilable_operators
        assert not any(t.stateful for t in inst.tables)

    def test_refinement_beats_no_refinement_when_constrained(self, costs):
        """§4.2: with scarce memory, zooming wins (the *->8->32 example)."""
        config = SwitchConfig(
            stages=16,
            stateful_actions_per_stage=8,
            register_bits_per_stage=40 * KB,
            max_single_register_bits=40 * KB,
        )
        sonata = PlanILP(costs, config, mode="sonata").solve()
        max_dp = PlanILP(costs, config, mode="max_dp").solve()
        assert sonata.est_total_tuples < max_dp.est_total_tuples
        assert len(sonata.query_plans[1].path) > 1  # actually refined

    def test_stage_assignment_respects_order(self, costs):
        plan = PlanILP(costs, SwitchConfig.paper_default(), mode="sonata").solve()
        for inst in plan.all_instances():
            if not inst.on_switch or inst.stage_assignment is None:
                continue
            stages = [inst.stage_assignment[t.name] for t in inst.tables]
            assert stages == sorted(stages)
            assert len(set(stages)) == len(stages)

    def test_single_stage_switch(self, costs):
        """With one stage, at most one table fits per instance."""
        config = SwitchConfig(stages=1)
        plan = PlanILP(costs, config, mode="sonata").solve()
        for inst in plan.all_instances():
            assert len(inst.tables) <= 1

    def test_impossible_metadata_budget_pins_to_sp(self, costs):
        config = SwitchConfig(metadata_bits=1)
        plan = PlanILP(costs, config, mode="sonata").solve()
        assert all(not inst.on_switch for inst in plan.all_instances())

    def test_objective_reported(self, costs):
        """No budget binds on the paper's switch: the per-query optima are
        the plan, with the joint MILP's objective and no MILP built. A
        binding header budget builds and solves the MILP."""
        config = SwitchConfig.paper_default()
        plan = PlanILP(costs, config, mode="sonata").solve()
        joint = PlanILP(costs, config, mode="sonata")._milp_plan()
        assert plan.solver_info["solver"] == "separable"
        assert plan.solver_info["status"] == 0
        assert plan.solver_info["objective"] == pytest.approx(
            joint.solver_info["objective"], abs=1e-6
        )
        assert plan.solver_info["variables"] == plan.solver_info["constraints"] == 0

        plan = PlanILP(costs, SwitchConfig(phv_header_bits=32), mode="sonata").solve()
        assert plan.solver_info["solver"] == "milp"
        assert "phv_header_bits" in plan.solver_info["separable_declined"]
        assert plan.solver_info["status"] == 0
        assert plan.solver_info["variables"] > 0
        assert plan.solver_info["constraints"] > 0


def _install(plan, config):
    return plan.install(PISASwitch(config))


class TestStageEncoding:
    def test_stage_binaries_only_for_stateful_tables(self, costs):
        ilp = PlanILP(costs, SwitchConfig.paper_default(), mode="sonata")
        ilp.build()
        for qid, qc in costs.items():
            for (r1, r2), per_sub in qc.transitions.items():
                for subid, tc in per_sub.items():
                    for j, table in enumerate(tc.sized_tables):
                        assert ilp.model.has_var(
                            ilp._xv(qid, subid, r1, r2, j, 0)
                        ) == table.stateful

    def test_every_installed_table_gets_a_stage(self, costs):
        plan = PlanILP(costs, SwitchConfig.paper_default(), mode="sonata").solve()
        for inst in plan.all_instances():
            if inst.on_switch:
                assert set(inst.stage_assignment) == {t.name for t in inst.tables}

    def test_register_over_the_single_cap_is_not_planned(self, costs):
        """A cut whose register exceeds the single-register cap is pinned
        to 0, so the plan installs instead of failing on the switch."""
        biggest = max(
            t.register_bits
            for qc in costs.values()
            for per_sub in qc.transitions.values()
            for tc in per_sub.values()
            for t in tc.sized_tables
        )
        config = SwitchConfig(max_single_register_bits=biggest - 1)
        plan = PlanILP(costs, config, mode="max_dp").solve()
        for inst in plan.all_instances():
            assert all(t.register_bits < biggest for t in inst.tables)
        _install(plan, config)

    @pytest.mark.parametrize("stages", [2, 4, 16])
    def test_one_table_per_stage_installs_or_names_the_budget(self, costs, stages):
        config = SwitchConfig(stages=stages, stateless_actions_per_stage=1)
        try:
            plan = PlanILP(costs, config, mode="sonata").solve()
        except PlanningError as exc:
            assert "stateless_actions_per_stage" in str(exc)
            return
        _install(plan, config)
