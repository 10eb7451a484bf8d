"""Tests for refinement keys, levels, and query augmentation (§4.1)."""

import pytest

from repro.core.errors import PlanningError
from repro.core.expressions import Const, FieldRef, Prefixed
from repro.core.fields import TCP_SYN
from repro.core.operators import Filter, Map
from repro.core.query import PacketStream, Query
from repro.planner import QueryPlanner
from repro.planner.refinement import (
    ROOT_LEVEL,
    RefinementSpec,
    augment_operators,
    augmented_subquery,
    can_coarsen,
    choose_refinement_spec,
    filter_table_name,
)
from repro.queries.library import build_query
from repro.runtime import SonataRuntime

VICTIM = 0x0A000001


def newly_opened():
    return Query(
        PacketStream(name="q")
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
        .filter(("count", "gt", 40))
    )


class TestSpecSelection:
    def test_simple_query(self):
        spec = choose_refinement_spec(newly_opened())
        assert spec.key_field == "ipv4.dIP"
        assert spec.finest == 32

    def test_max_levels_spread(self):
        spec = choose_refinement_spec(newly_opened(), max_levels=4)
        assert spec.levels == (8, 16, 24, 32)
        spec2 = choose_refinement_spec(newly_opened(), max_levels=2)
        assert spec2.levels == (16, 32)

    def test_all_levels(self):
        spec = choose_refinement_spec(newly_opened(), max_levels=8)
        assert spec.levels == (4, 8, 12, 16, 20, 24, 28, 32)

    def test_source_keyed_query(self):
        spec = choose_refinement_spec(build_query("superspreader", qid=601))
        assert spec.key_field == "ipv4.sIP"

    def test_join_query_shares_key(self):
        spec = choose_refinement_spec(build_query("slowloris", qid=602))
        assert spec.key_field == "ipv4.dIP"

    def test_stateless_subquery_does_not_block(self):
        # Zorro's payload side has no stateful operator; the aggregation
        # side still gives dIP.
        spec = choose_refinement_spec(build_query("zorro", qid=603))
        assert spec is not None and spec.key_field == "ipv4.dIP"

    def test_no_candidates(self):
        query = Query(
            PacketStream(name="n")
            .map(keys=("tcp.dPort",), values=(Const(1),))
            .reduce(keys=("tcp.dPort",), func="sum")
        )
        assert choose_refinement_spec(query) is None

    def test_transitions_form_dag_to_finest(self):
        spec = RefinementSpec("ipv4.dIP", (8, 16, 32))
        transitions = spec.transitions()
        assert (ROOT_LEVEL, 8) in transitions
        assert (8, 32) in transitions
        assert (ROOT_LEVEL, 32) in transitions
        assert all(r2 != ROOT_LEVEL for _, r2 in transitions)
        assert all(r1 < r2 for r1, r2 in transitions)


class TestAugmentation:
    def test_figure4_structure(self):
        """The 8 -> 16 transition of Query 1 must match Figure 4."""
        spec = RefinementSpec("ipv4.dIP", (8, 16, 32))
        sq = newly_opened().subquery(0)
        ops = augment_operators(sq, spec, 8, 16, relaxed_thresholds={"count": 90})
        # filter(dIP/8 in prev results), filter(SYN), map(dIP/16, 1),
        # reduce, filter(count > Th/16)
        assert isinstance(ops[0], Filter)
        pred = ops[0].predicates[0]
        assert pred.op == "in" and pred.level == 8
        assert pred.value == filter_table_name(sq.qid, 8)
        map_op = next(op for op in ops if isinstance(op, Map))
        key_expr = map_op.keys[0]
        assert isinstance(key_expr, Prefixed) and key_expr.level == 16
        threshold = ops[-1].predicates[0]
        assert threshold.value == 90

    def test_root_transition_has_no_filter(self):
        spec = RefinementSpec("ipv4.dIP", (8, 32))
        ops = augment_operators(newly_opened().subquery(0), spec, ROOT_LEVEL, 8)
        assert not any(
            isinstance(op, Filter) and op.predicates[0].op == "in" for op in ops
        )

    def test_native_level_keeps_original_ops(self):
        spec = RefinementSpec("ipv4.dIP", (8, 32))
        sq = newly_opened().subquery(0)
        ops = augment_operators(sq, spec, 8, 32)
        assert ops[1:] == sq.operators  # only the filter prepended

    def test_original_thresholds_kept_without_relaxation(self):
        spec = RefinementSpec("ipv4.dIP", (8, 32))
        ops = augment_operators(newly_opened().subquery(0), spec, ROOT_LEVEL, 8)
        assert ops[-1].predicates[0].value == 40

    def test_cannot_execute_at_root(self):
        spec = RefinementSpec("ipv4.dIP", (8, 32))
        with pytest.raises(PlanningError):
            augment_operators(newly_opened().subquery(0), spec, ROOT_LEVEL, 0)

    def test_uncoarsenable_stateless_subquery(self):
        query = build_query("zorro", qid=604)
        spec = RefinementSpec("ipv4.dIP", (24, 32))
        payload_side = query.subquery(0)
        assert not payload_side.stateful_operators()
        assert not can_coarsen(payload_side, spec, 24)
        assert can_coarsen(payload_side, spec, 32)

    def test_augmented_subquery_name(self):
        spec = RefinementSpec("ipv4.dIP", (8, 32))
        sq = augmented_subquery(newly_opened().subquery(0), spec, 8, 32)
        assert "@8->32" in sq.name

    def test_augmented_chain_validates(self):
        spec = RefinementSpec("ipv4.dIP", (8, 16, 32))
        sq = augmented_subquery(newly_opened().subquery(0), spec, 8, 16)
        sq.schemas()  # must not raise


class TestThresholdHelpers:
    def test_trailing_threshold_fields(self):
        from repro.planner.refinement import trailing_threshold_fields

        sq = newly_opened().subquery(0)
        assert trailing_threshold_fields(sq) == {"count": 40}

    def test_without_thresholds(self):
        from repro.planner.refinement import rewrite_thresholds

        sq = newly_opened().subquery(0)
        stripped = rewrite_thresholds(sq.operators, None, bounds=True)
        assert len(stripped) == len(sq.operators) - 1
        assert all(
            not (isinstance(op, Filter) and op.predicates[0].field == "count")
            for op in stripped
        )

    def test_scale_thresholds(self):
        from repro.planner.refinement import rewrite_thresholds

        sq = newly_opened().subquery(0)
        scaled = rewrite_thresholds(sq.operators, lambda p: p.value // 4, bounds=True)
        threshold = scaled[-1].predicates[0]
        assert threshold.value == 10

    def test_scale_preserves_other_predicates(self):
        from repro.planner.refinement import rewrite_thresholds

        sq = newly_opened().subquery(0)
        scaled = rewrite_thresholds(sq.operators, lambda p: p.value // 4, bounds=True)
        syn_filter = scaled[0].predicates[0]
        assert syn_filter.field == "tcp.flags" and syn_filter.value == TCP_SYN


def renamed_victim():
    """newly_opened whose output renames the refinement key away."""
    return Query(
        PacketStream(name="renamed", qid=3)
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
        .filter(("count", "gt", 40))
        .map(keys=(FieldRef("ipv4.dIP", "victim"),), values=("count",))
    )


class TestKeyMustReachOutput:
    """A level's output keys fill the next level's filter table, so a key
    the sub-query does not output cannot refine it."""

    def test_renamed_key_is_no_candidate(self):
        query = renamed_victim()
        assert query.subqueries[0].refinement_key_candidates() == []
        assert choose_refinement_spec(query) is None
        assert newly_opened().subqueries[0].refinement_key_candidates() == [
            "ipv4.dIP"
        ]

    def test_plans_single_level_and_matches_all_sp(self, synflood_trace):
        query = renamed_victim()
        planner = QueryPlanner([query], synflood_trace, window=3.0)
        plan = planner.plan("sonata")
        qplan = plan.query_plans[3]
        assert qplan.spec is None and qplan.path == (32,)
        sonata = SonataRuntime(plan).run(synflood_trace)
        all_sp = SonataRuntime(planner.plan("all_sp")).run(synflood_trace)
        found = [w.detections.get(3, []) for w in sonata.windows]
        assert found == [w.detections.get(3, []) for w in all_sp.windows]
        assert any(row["victim"] == VICTIM for rows in found for row in rows)
