"""Property test: the ILP matches brute-force enumeration on small instances.

Hypothesis rewrites a single query's per-cut tuple costs, then compares the
ILP's chosen plan cost against exhaustive enumeration of (refinement path,
cut per transition) under a resource-rich switch. Any gap means a bug in
the flow-conservation or objective encoding.

A second reference covers tight switches (2–7 stages, 1–2 stateful
actions, small register budgets): it enumerates every (path, cut per
transition) of two queries and checks each candidate's feasibility with an
exhaustive backtracking stage placement and the parser's header budget,
so the stage encoding (chain offsets, the gap between stateful tables, the
pinned cuts) and the header rows must lose no plan the switch could
install.

Each check runs twice: through ``solve()``, which returns the per-query
optima when no switch budget binds, and through the joint MILP alone
(``_milp_plan()``), so the MILP encoding stays covered where the per-query
optima install.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation.workloads import build_workload
from repro.packets import attacks
from repro.planner.costs import CostEstimator, CutCost
from repro.planner.ilp import _EPS_LEVEL, _EPS_SHALLOW_CUT, PlanILP
from repro.planner.refinement import ROOT_LEVEL, RefinementSpec
from repro.queries.library import build_query
from repro.switch.config import KB, SwitchConfig
from repro.switch.parser import ParserConfig
from repro.switch.simulator import PISASwitch

VICTIM = 0x0A000001
LEVELS = (8, 16, 32)


def _base_costs():
    backbone = attacks.syn_flood(VICTIM, duration=6.0, pps=400, seed=3)
    query = build_query("newly_opened_tcp_conns", qid=1, Th=10)
    estimator = CostEstimator(
        [query],
        backbone,
        window=6.0,
        refinement_specs={1: RefinementSpec("ipv4.dIP", LEVELS)},
    )
    return estimator.estimate()


_BASE = _base_costs()


def _paths():
    inner = [r for r in LEVELS if r != 32]
    for mask in range(1 << len(inner)):
        yield tuple(r for i, r in enumerate(inner) if mask & (1 << i)) + (32,)


def _both_entries(costs, config, **kwargs):
    """The plans of ``solve()`` and of the joint MILP alone."""
    return [
        PlanILP(costs, config, **kwargs).solve(),
        PlanILP(costs, config, **kwargs)._milp_plan(),
    ]


def _installs(plan, config: SwitchConfig) -> None:
    plan.install(PISASwitch(config))


def _brute_force(costs) -> float:
    qc = costs[1]
    best = float("inf")
    for path in _paths():
        total = 0.0
        prev = ROOT_LEVEL
        for level in path:
            tc = qc.transitions[(prev, level)][0]
            per_cut = []
            for cut in tc.cut_options():
                if cut == 0:
                    per_cut.append(qc.window_packets)
                else:
                    per_cut.append(tc.cost_of(cut).n_tuples)
            total += min(per_cut)
            prev = level
        best = min(best, total)
    return best


class TestOptimality:
    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=0, max_value=100_000),
            min_size=24,
            max_size=24,
        )
    )
    def test_ilp_matches_brute_force(self, raw_costs):
        qc = _BASE[1]
        # Rewrite every cut's tuple cost from the hypothesis sample.
        values = iter(raw_costs)
        for per_sub in qc.transitions.values():
            for tc in per_sub.values():
                tc.cuts = [
                    CutCost(
                        cut=c.cut,
                        n_tuples=(
                            qc.window_packets if c.cut == 0 else next(values)
                        ),
                        metadata_bits=c.metadata_bits,
                    )
                    for c in tc.cuts
                ]
        expected = _brute_force(_BASE)
        for plan in _both_entries(
            _BASE, SwitchConfig.paper_default(), mode="sonata", time_limit=30
        ):
            assert plan.est_total_tuples <= expected + 1e-6
            # The ILP can't beat exhaustive search either.
            assert plan.est_total_tuples >= expected - 1e-6


# -- tight switches: the stage-placement encoding against exhaustive search --

TIGHT_LEVELS = (16, 32)


def _tight_costs():
    """ddos and superspreader: two stateful tables three tables apart."""
    workload = build_workload(["ddos", "superspreader"], duration=3, pps=1000, seed=7)
    queries = [build_query("ddos", qid=1), build_query("superspreader", qid=2)]
    estimator = CostEstimator(
        queries,
        workload.trace,
        window=3.0,
        refinement_specs={
            1: RefinementSpec("ipv4.dIP", TIGHT_LEVELS),
            2: RefinementSpec("ipv4.sIP", TIGHT_LEVELS),
        },
    )
    return estimator.estimate()


_TIGHT = _tight_costs()


def _query_options(qc):
    """Every (path, cut per transition) of one query, with its objective
    terms as the ILP counts them, its tuple cost and installed instances."""
    for path in ((32,), (16, 32)):
        per_transition = []
        prev = ROOT_LEVEL
        for level in path:
            (tc,) = qc.transitions[(prev, level)].values()
            per_transition.append(tc)
            prev = level
        for cuts in itertools.product(*(tc.cut_options() for tc in per_transition)):
            tuples = 0.0
            objective = _EPS_LEVEL * len(path)
            installed = []
            for tc, cut in zip(per_transition, cuts):
                cost = qc.window_packets if cut == 0 else tc.cost_of(cut).n_tuples
                tuples += cost
                objective += cost + _EPS_SHALLOW_CUT * (max(tc.cut_options()) - cut)
                if cut > 0:
                    fields = {
                        name
                        for op in tc.compiled.subquery.operators[:cut]
                        for name in op.input_fields()
                    }
                    installed.append(
                        (tc.tables_for_cut(cut), tc.cost_of(cut).metadata_bits, fields)
                    )
            yield objective, tuples, installed


def _placeable(chains: list[list], config: SwitchConfig) -> bool:
    """Exhaustive backtracking: does some stage assignment fit every chain?"""
    count = [0] * config.stages
    stateful = [0] * config.stages
    bits = [0] * config.stages

    def fits(index: int) -> bool:
        if index == len(chains):
            return True
        tables = chains[index]
        for stages in itertools.combinations(range(config.stages), len(tables)):
            placed = []
            for table, s in zip(tables, stages):
                count[s] += 1
                if table.stateful:
                    stateful[s] += 1
                    bits[s] += table.register_bits
                placed.append((table, s))
            ok = all(
                count[s] <= config.stateless_actions_per_stage
                and stateful[s] <= config.stateful_actions_per_stage
                and bits[s] <= config.register_bits_per_stage
                for s in stages
            )
            if ok and fits(index + 1):
                return True
            for table, s in placed:
                count[s] -= 1
                if table.stateful:
                    stateful[s] -= 1
                    bits[s] -= table.register_bits
        return False

    return fits(0)


def _feasible(installed, config: SwitchConfig) -> bool:
    if sum(meta for _, meta, _ in installed) > config.metadata_bits:
        return False
    parser = ParserConfig()
    parser.require(set().union(*(fields for _, _, fields in installed)))
    if parser.extracted_bits > config.phv_header_bits:
        return False
    tables = [t for chain, _, _ in installed for t in chain]
    if any(
        t.stateful and t.register_bits > config.max_single_register_bits
        for t in tables
    ):
        return False
    return _placeable([chain for chain, _, _ in installed], config)


def _tight_brute_force(costs, config: SwitchConfig) -> tuple[float, float]:
    """(objective, tuples) of the best feasible plan, by full enumeration."""
    candidates = sorted(
        (
            (oa + ob, ta + tb, ia + ib)
            for oa, ta, ia in _query_options(costs[1])
            for ob, tb, ib in _query_options(costs[2])
        ),
        key=lambda c: c[0],
    )
    for objective, tuples, installed in candidates:
        if _feasible(installed, config):
            return objective, tuples
    raise AssertionError("all-SP is always feasible")


TIGHT_CONFIGS = [
    SwitchConfig(
        stages=stages,
        stateful_actions_per_stage=actions,
        register_bits_per_stage=bits,
        max_single_register_bits=cap,
    )
    for stages in (2, 3, 4, 7)
    for actions in (1, 2)
    # The second pair's cap admits the (0,16) distinct register but not
    # the (0,32) one.
    for bits, cap in ((700 * KB, 700 * KB), (1_300 * KB, 640 * KB))
]


class TestTightSwitchOptimality:
    @pytest.mark.parametrize(
        "config",
        TIGHT_CONFIGS,
        ids=lambda c: (
            f"S{c.stages}A{c.stateful_actions_per_stage}"
            f"B{c.register_bits_per_stage}cap{c.max_single_register_bits}"
        ),
    )
    def test_ilp_matches_exhaustive_placement(self, config):
        objective, tuples = _tight_brute_force(_TIGHT, config)
        for plan in _both_entries(_TIGHT, config, mode="sonata", mip_gap=1e-9):
            assert "fallback" not in plan.solver_info
            assert plan.solver_info["objective"] == pytest.approx(objective, abs=1e-6)
            assert plan.est_total_tuples == pytest.approx(tuples, abs=1e-6)
            _installs(plan, config)

    @pytest.mark.parametrize("phv_header_bits", [8, 32, 64])
    def test_header_budget_matches_exhaustive_search(self, phv_header_bits):
        """The header rows lose no plan whose parser fits the budget."""
        config = SwitchConfig(
            stages=7,
            stateful_actions_per_stage=2,
            register_bits_per_stage=1_300 * KB,
            max_single_register_bits=640 * KB,
            phv_header_bits=phv_header_bits,
        )
        objective, tuples = _tight_brute_force(_TIGHT, config)
        for plan in _both_entries(_TIGHT, config, mode="sonata", mip_gap=1e-9):
            assert plan.solver_info["objective"] == pytest.approx(objective, abs=1e-6)
            assert plan.est_total_tuples == pytest.approx(tuples, abs=1e-6)
            _installs(plan, config)

    def test_some_tight_config_takes_the_milp(self):
        """The grid reaches the joint MILP through ``solve()`` too: some
        budget binds, so the per-query optima do not place."""
        solvers = {
            PlanILP(_TIGHT, config, mode="sonata").solve().solver_info["solver"]
            for config in TIGHT_CONFIGS
        }
        assert solvers == {"separable", "milp"}

    def test_tight_grid_needs_the_gap_constraint(self):
        """Some optimum installs both stateful tables of one instance."""
        config = SwitchConfig(
            stages=7,
            stateful_actions_per_stage=1,
            register_bits_per_stage=1_300 * KB,
            max_single_register_bits=640 * KB,
        )
        for plan in _both_entries(_TIGHT, config, mode="sonata", mip_gap=1e-9):
            assert any(
                sum(t.stateful for t in inst.tables) == 2
                for inst in plan.all_instances()
            )
