"""Tests for trace-driven cost estimation (§3.3, Figure 5)."""

from collections import Counter

import pytest

from repro.core.errors import PlanningError
from repro.core.expressions import Const, FieldRef
from repro.core.fields import FIELDS, TCP_SYN
from repro.core.operators import Filter
from repro.core.query import PacketStream, Query
from repro.exec import ColumnarState
from repro.obs import Observability
from repro.packets import Trace, attacks
from repro.planner import QueryPlanner
from repro.planner.costs import CostEstimator
from repro.planner.refinement import ROOT_LEVEL, can_coarsen
from repro.queries.library import build_query

VICTIM = 0x0A000001


@pytest.fixture(scope="module")
def estimator(request):
    backbone = request.getfixturevalue("backbone_medium")
    attack = attacks.syn_flood(VICTIM, start=0.0, duration=12.0, pps=100, seed=2)
    trace = Trace.merge([backbone, attack])
    query = build_query("newly_opened_tcp_conns", qid=1, Th=120)
    return CostEstimator([query], trace, window=3.0, max_levels=4)


@pytest.fixture(scope="module")
def costs(estimator):
    return estimator.estimate()[1]


class TestStructure:
    def test_levels_and_transitions(self, costs):
        assert costs.spec.levels == (8, 16, 24, 32)
        assert (ROOT_LEVEL, 8) in costs.transitions
        assert (8, 32) in costs.transitions
        assert (ROOT_LEVEL, 32) in costs.transitions

    def test_window_packets_positive(self, costs):
        assert costs.window_packets > 1_000

    def test_cut_zero_costs_full_window(self, costs):
        tc = costs.transitions[(ROOT_LEVEL, 32)][0]
        assert tc.cost_of(0).n_tuples == costs.window_packets

    def test_costs_decrease_along_the_pipeline(self, costs):
        """Figure 5 property: deeper cuts send (weakly) fewer tuples."""
        for per_sub in costs.transitions.values():
            for tc in per_sub.values():
                tuples = [tc.cost_of(c).n_tuples for c in tc.cut_options()]
                assert tuples[0] == max(tuples)
                # final cut (aggregated + thresholded) is the cheapest
                assert tuples[-1] <= tuples[1] or tuples[-1] <= tuples[0]

    def test_refined_transition_cheaper_than_direct(self, costs):
        """Zooming via /8 processes less than running /32 over everything."""
        direct = costs.transitions[(ROOT_LEVEL, 32)][0]
        refined = costs.transitions[(8, 32)][0]
        deep_direct = direct.cost_of(direct.cut_options()[-1]).n_tuples
        n1_direct = direct.cost_of(1).n_tuples
        n1_refined = refined.cost_of(2).n_tuples  # after ref-filter + SYN filter
        assert n1_refined <= n1_direct

    def test_register_sizing_present(self, costs):
        tc = costs.transitions[(ROOT_LEVEL, 32)][0]
        stateful = [t for t in tc.sized_tables if t.stateful]
        assert stateful and all(not t.register.placeholder for t in stateful)

    def test_key_estimates_grow_with_level(self, costs):
        keys_8 = max(
            costs.transitions[(ROOT_LEVEL, 8)][0].key_estimates.values()
        )
        keys_32 = max(
            costs.transitions[(ROOT_LEVEL, 32)][0].key_estimates.values()
        )
        assert keys_32 >= keys_8  # /32 keys at least as many as /8 keys


class TestRelaxedThresholds:
    def test_native_level_keeps_original(self, costs):
        assert costs.relaxed_thresholds[(0, 32)]["count"] == 120

    def test_coarser_levels_relax_upward(self, costs):
        """§4.1 / Figure 4: Th/8 >= Th/16 >= ... >= Th."""
        values = [
            costs.relaxed_thresholds[(0, level)]["count"]
            for level in (8, 16, 24, 32)
        ]
        assert values == sorted(values, reverse=True)
        assert all(v >= 120 for v in values)

    def test_output_keys_shrink_with_coarsening(self, costs):
        sizes = costs.output_keys_per_level
        assert sizes[8] <= sizes[32] + 2  # aggregation can only merge keys


class TestNoRefinementQuery:
    def test_port_keyed_query_single_transition(self, backbone_medium):
        query = Query(
            PacketStream(name="ports", qid=5)
            .map(keys=("tcp.dPort",), values=(Const(1),))
            .reduce(keys=("tcp.dPort",), func="sum")
            .filter(("count", "gt", 50))
        )
        costs = CostEstimator([query], backbone_medium, window=3.0).estimate()[5]
        assert costs.spec is None
        assert list(costs.transitions) == [(ROOT_LEVEL, 32)]


class TestOneRunPerChain:
    """Within one ``estimate()``, each (sub-query, level, window) chain reads
    the window's packets once, no operator runs twice on one state, and no
    filtered transition ``r_prev -> r`` runs a chain: it is priced from the
    level-``r`` root run's key columns."""

    @pytest.fixture(scope="class")
    def trace(self, synflood_trace):
        zorro = attacks.zorro(VICTIM, start=0.0, probe_duration=5.0, shell_delay=1.0)
        return Trace.merge([synflood_trace, zorro])

    @pytest.mark.parametrize(
        "query",
        [
            # Refined, with relaxed thresholds at the coarse levels.
            build_query("newly_opened_tcp_conns", qid=1, Th=100),
            # No refinement key: a single root transition.
            Query(
                PacketStream(name="ports", qid=5)
                .map(keys=("tcp.dPort",), values=(Const(1),))
                .reduce(keys=("tcp.dPort",), func="sum")
                .filter(("count", "gt", 50))
            ),
            # A join whose both sides refine.
            build_query("syn_flood", qid=6, Th=20),
            # A join whose payload side is inactive at coarse levels.
            build_query("zorro", qid=10, Th1=20, Th2=1),
        ],
        ids=["refined", "no_refinement", "syn_flood", "zorro"],
    )
    def test_no_chain_runs_twice(self, monkeypatch, trace, query):
        from repro.planner import costs as costs_module

        reads, steps, pinned = [], [], []
        from_trace = ColumnarState.from_trace
        apply_chain = costs_module.apply_chain

        def reading(window, registry=FIELDS):
            reads.append(id(window))
            return from_trace(window, registry)

        def recording(operators, state, schema, tables=None):
            for op, out in zip(operators, apply_chain(operators, state, schema, tables)):
                steps.append((op, id(state)))
                pinned.append(state)  # keeps ids unique
                state = out
                yield out

        monkeypatch.setattr(ColumnarState, "from_trace", staticmethod(reading))
        monkeypatch.setattr(costs_module, "apply_chain", recording)
        estimator = CostEstimator([query], trace, window=3.0, max_levels=4)
        costs = estimator.estimate()[query.qid]
        windows = estimator.windows()
        assert len(windows) > 1

        active = sum(
            1
            for level in costs.levels
            for sq in query.subqueries
            if costs.spec is None or can_coarsen(sq, costs.spec, level)
        )
        assert Counter(reads) == {id(w): active for w in windows}
        assert estimator.chain_runs == active * len(windows)
        assert len(steps) == len(set(steps))
        # No operator reads a filter table: filtered transitions run nothing.
        assert not any(
            pred.op == "in"
            for op, _ in steps
            if isinstance(op, Filter)
            for pred in op.predicates
        )
        filtered = sum(
            len(per_sub)
            for (r_prev, _), per_sub in costs.transitions.items()
            if r_prev != ROOT_LEVEL
        )
        assert estimator.derived_transitions == filtered
        assert filtered > 0 or costs.spec is None


class TestEstimatorSpan:
    def test_span_counts_chain_runs_and_derived_transitions(self, synflood_trace):
        obs = Observability()
        query = build_query("newly_opened_tcp_conns", qid=1, Th=10)
        planner = QueryPlanner([query], synflood_trace, window=3.0, max_levels=4, obs=obs)
        costs = planner.costs()[1]
        (span,) = obs.tracer.spans_named("planner.estimate_costs")
        windows = len(list(synflood_trace.windows(3.0)))
        levels = len(costs.spec.levels)
        assert windows > 1 and levels == 4
        assert span.attrs["chain_runs"] == len(query.subqueries) * levels * windows
        # One sub-query, every r_prev -> r with r_prev a real level.
        assert span.attrs["derived_transitions"] == levels * (levels - 1) // 2


class TestKeyColumnPrecondition:
    def test_operator_dropping_the_key_raises(self, synflood_trace):
        """Filtered transitions are priced from the root run's key columns;
        a filter after the key is renamed away cannot be, and is named."""
        query = Query(
            PacketStream(name="roundtrip", qid=4)
            .filter(("tcp.flags", "eq", TCP_SYN))
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
            .map(keys=(FieldRef("ipv4.dIP", "victim"),), values=("count",))
            .filter(("count", "gt", 40))
            .map(keys=(FieldRef("victim", "ipv4.dIP"),), values=("count",))
        )
        estimator = CostEstimator([query], synflood_trace, window=3.0, max_levels=4)
        with pytest.raises(PlanningError) as error:
            estimator.estimate()
        message = str(error.value)
        assert "filter(count gt" in message
        assert "drops the refinement key ipv4.dIP" in message
