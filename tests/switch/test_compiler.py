"""Tests for the dataflow -> match-action-table compiler."""

import pytest

from repro.core.expressions import Const, FieldRef, Quantized
from repro.core.operators import Distinct, Map, Reduce
from repro.core.fields import TCP_SYN
from repro.core.query import PacketStream, Query
from repro.queries.library import build_query
from repro.switch.compiler import compile_subquery


def newly_opened(threshold=40):
    stream = (
        PacketStream(name="q")
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
        .filter(("count", "gt", threshold))
    )
    return Query(stream).subquery(0)


class TestTableLayout:
    def test_query1_matches_figure2(self):
        """Figure 2: filter, map, reduce (2 tables), threshold folded."""
        compiled = compile_subquery(newly_opened())
        kinds = [t.kind for t in compiled.tables]
        assert kinds == ["filter", "map", "reduce_idx", "reduce_upd"]
        assert compiled.tables[-1].folded_filter is not None
        assert compiled.compilable_operators == 4  # all of them

    def test_partition_points(self):
        compiled = compile_subquery(newly_opened())
        # 0 = nothing, 1 = filter, 2 = +map, 4 = +reduce+folded filter;
        # cutting between reduce and its threshold is not allowed.
        assert compiled.partition_points() == [0, 1, 2, 4]

    def test_stateful_flags(self):
        compiled = compile_subquery(newly_opened())
        assert [t.stateful for t in compiled.tables] == [False, False, False, True]

    def test_last_operator_stateful_through_fold(self):
        compiled = compile_subquery(newly_opened())
        assert compiled.last_operator_stateful(4)
        assert not compiled.last_operator_stateful(2)
        assert not compiled.last_operator_stateful(0)

    def test_distinct_compiles_to_two_tables(self):
        sq = Query(
            PacketStream(name="d")
            .map(keys=("ipv4.sIP", "ipv4.dIP"))
            .distinct()
            .map(keys=("ipv4.sIP",), values=(Const(1),))
            .reduce(keys=("ipv4.sIP",), func="sum")
        ).subquery(0)
        compiled = compile_subquery(sq)
        kinds = [t.kind for t in compiled.tables]
        assert kinds == [
            "map",
            "distinct_idx",
            "distinct_upd",
            "map",
            "reduce_idx",
            "reduce_upd",
        ]

    def test_payload_filter_stops_compilation(self):
        sq = Query(
            PacketStream(name="p")
            .filter(("tcp.dPort", "eq", 23))
            .filter(("payload", "contains", b"zorro"))
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
        ).subquery(0)
        compiled = compile_subquery(sq)
        assert compiled.compilable_operators == 1
        assert [t.kind for t in compiled.tables] == ["filter"]

    def test_nothing_after_unfolded_reduce(self):
        sq = Query(
            PacketStream(name="r")
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
            .map(keys=("ipv4.dIP",))  # not a foldable threshold filter
        ).subquery(0)
        compiled = compile_subquery(sq)
        assert compiled.compilable_operators == 2

    @pytest.mark.parametrize(
        "func, clauses, folded",
        [
            ("sum", [("count", "gt", 2)], True),
            ("max", [("count", "ge", 2)], True),
            ("sum", [("count", "gt", 2), ("count", "ge", 3)], True),
            ("sum", [("count", "lt", 3)], False),
            ("sum", [("count", "gt", 2), ("count", "lt", 6)], False),
            ("min", [("count", "gt", 200)], False),
        ],
        ids=["sum-gt", "max-ge", "two-thresholds", "lt-bound", "mixed", "min-gt"],
    )
    def test_only_thresholds_fold(self, func, clauses, folded):
        """A filter folds into the reduce's update table only when all its
        predicates are thresholds; a bound runs at the stream processor
        on the final key reports."""
        sq = Query(
            PacketStream(name="f")
            .map(keys=("ipv4.dIP",), values=(FieldRef("pktlen", "v"),))
            .reduce(keys=("ipv4.dIP",), func=func, value_field="v")
            .filter(*clauses)
        ).subquery(0)
        compiled = compile_subquery(sq)
        assert (compiled.tables[-1].folded_filter is not None) == folded
        assert compiled.compilable_operators == (3 if folded else 2)

    @pytest.mark.parametrize(
        "ops, prefix",
        [
            ((Map(keys=(FieldRef("ts"),)), Distinct()), 1),
            ((Reduce(keys=("ts",), func="sum"),), 0),
        ],
        ids=["distinct-on-ts-alias", "reduce-on-ts"],
    )
    def test_float_keyed_stateful_op_stops_compilation(self, ops, prefix):
        """A register key is header bits: the timestamp is not one."""
        stream = PacketStream(name="t")
        stream.operators = ops
        compiled = compile_subquery(Query(stream).subquery(0))
        assert compiled.compilable_operators == prefix
        assert not any(t.stateful for t in compiled.tables)

    def test_quantized_timestamp_is_a_valid_key(self):
        stream = PacketStream(name="t")
        stream.operators = (
            Map(keys=(Quantized("ts", 4, "bucket"),)),
            Distinct(),
        )
        compiled = compile_subquery(Query(stream).subquery(0))
        assert compiled.compilable_operators == 2

    def test_residual_operators(self):
        compiled = compile_subquery(newly_opened())
        assert len(compiled.residual_operators(4)) == 0
        assert len(compiled.residual_operators(2)) == 2
        assert len(compiled.residual_operators(0)) == 4

    def test_dynamic_table_recorded(self):
        sq = Query(
            PacketStream(name="ref")
            .filter(("ipv4.dIP", "in", "ref_q1_lvl8"), level=8)
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
        ).subquery(0)
        compiled = compile_subquery(sq)
        assert compiled.tables[0].dynamic_table == "ref_q1_lvl8"


class TestResourceAccounting:
    def test_metadata_grows_with_cut(self):
        compiled = compile_subquery(newly_opened())
        bits = [compiled.metadata_bits(c) for c in compiled.partition_points()]
        assert bits[0] == 0
        assert all(b2 >= b1 for b1, b2 in zip(bits, bits[1:]))

    def test_metadata_includes_qid_and_report(self):
        compiled = compile_subquery(newly_opened())
        # filter only: tcp.flags (8 bits) copied + qid (16) + report (1)
        assert compiled.metadata_bits(1) == 8 + 16 + 1

    def test_register_key_bits(self):
        compiled = compile_subquery(newly_opened())
        stateful = [t for t in compiled.tables if t.stateful]
        assert stateful[0].register.key_bits == 32

    def test_tables_for_partition(self):
        compiled = compile_subquery(newly_opened())
        assert [t.kind for t in compiled.tables_for_partition(2)] == [
            "filter",
            "map",
        ]
        assert len(compiled.tables_for_partition(4)) == 4

    @pytest.mark.parametrize(
        "name",
        [
            "newly_opened_tcp_conns",
            "superspreader",
            "ddos",
            "slowloris",
            "zorro",
            "dns_tunneling",
        ],
    )
    def test_library_queries_compile(self, name):
        query = build_query(name, qid=700)
        for sq in query.subqueries:
            compiled = compile_subquery(sq)
            assert compiled.partition_points()[0] == 0
            # compilable prefix never includes a payload operator
            for op in sq.operators[: compiled.compilable_operators]:
                assert op.switch_compilable()
