"""Tests for the columnar engine, including equivalence with row-wise ops."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import execute_operators, execute_query, execute_subquery
from repro.core.errors import QueryValidationError
from repro.core.expressions import Const, FieldRef, Prefixed, Quantized
from repro.core.fields import TCP_SYN
from repro.core.operators import Distinct, Filter, Join, Map, Predicate, Reduce
from repro.core.query import PacketStream, Query
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import Trace
from repro.streaming.rowops import apply_operators


def trace_from(rows):
    return Trace.from_packets(rows)


def simple_trace():
    packets = []
    for i in range(20):
        packets.append(
            Packet(
                ts=float(i) * 0.1,
                pktlen=100 + (i % 3),
                proto=6,
                sip=i % 4,
                dip=0x0A000000 + (i % 2),
                sport=1000 + i,
                dport=80,
                tcpflags=TCP_SYN if i % 2 == 0 else 0x10,
            )
        )
    return trace_from(packets)


class TestOperators:
    def test_filter_counts(self):
        ops = (Filter((Predicate("tcp.flags", "eq", TCP_SYN),)),)
        result = execute_operators(ops, simple_trace())
        assert result.stats[0].rows_out == 10

    def test_filter_mask(self):
        ops = (Filter((Predicate("tcp.flags", "mask", 0x10),)),)
        result = execute_operators(ops, simple_trace())
        assert result.stats[0].rows_out == 10

    def test_map_projection(self):
        ops = (Map(keys=(Prefixed("ipv4.dIP", 24),), values=(Const(1),)),)
        result = execute_operators(ops, simple_trace())
        assert result.schema.fields == ("ipv4.dIP", "count")
        assert set(np.unique(result.final.columns["ipv4.dIP"])) == {0x0A000000}

    def test_reduce_sum(self):
        ops = (
            Map(keys=(Prefixed("ipv4.dIP", 32),), values=(Const(1),)),
            Reduce(keys=("ipv4.dIP",), func="sum"),
        )
        result = execute_operators(ops, simple_trace())
        rows = {r["ipv4.dIP"]: r["count"] for r in result.rows()}
        assert rows == {0x0A000000: 10, 0x0A000001: 10}
        assert result.stats[1].rows_out == 2

    def test_reduce_value_field(self):
        ops = (
            Map(keys=(Prefixed("ipv4.dIP", 32),), values=("pktlen",)),
            Reduce(keys=("ipv4.dIP",), func="sum", out="bytes"),
        )
        result = execute_operators(ops, simple_trace())
        total = sum(r["bytes"] for r in result.rows())
        assert total == int(simple_trace().array["pktlen"].sum())

    def test_reduce_max_min(self):
        base = (Map(keys=(Prefixed("ipv4.dIP", 32),), values=("pktlen",)),)
        for func, expected in (("max", 102), ("min", 100)):
            ops = base + (Reduce(keys=("ipv4.dIP",), func=func, out="v"),)
            result = execute_operators(ops, simple_trace())
            values = {r["v"] for r in result.rows()}
            assert expected in values

    def test_distinct(self):
        ops = (
            Map(keys=("ipv4.dIP", "ipv4.sIP")),
            Distinct(),
        )
        result = execute_operators(ops, simple_trace())
        # sip = i % 4 determines dip = (i % 4) % 2: four distinct pairs.
        assert result.stats[1].rows_out == 4

    def test_empty_window(self):
        ops = (
            Map(keys=("ipv4.dIP",), values=(Const(1),)),
            Reduce(keys=("ipv4.dIP",), func="sum"),
            Filter((Predicate("count", "gt", 1),)),
        )
        result = execute_operators(ops, Trace.empty())
        assert result.rows() == []

    def test_join_rejected_in_linear_chain(self):
        right = PacketStream(name="x").map(keys=("ipv4.dIP",))
        with pytest.raises(QueryValidationError):
            execute_operators(
                (Join(right=right, keys=("ipv4.dIP",)),), simple_trace()
            )


class TestStringFields:
    def _dns_trace(self):
        packets = [
            Packet(ts=0.1 * i, proto=17, sport=53, dport=5000 + i, dip=9,
                   dns=DNSInfo(qname=name, qtype=16, ancount=1, qr=1))
            for i, name in enumerate(
                ["a.x.com", "b.x.com", "c.y.com", "a.x.com", "d.z.org"]
            )
        ]
        return trace_from(packets)

    def test_distinct_on_names(self):
        ops = (
            Map(keys=("ipv4.dIP", "dns.rr.name")),
            Distinct(),
        )
        result = execute_operators(ops, self._dns_trace())
        assert result.stats[1].rows_out == 4

    def test_coarsen_names(self):
        ops = (Map(keys=(Prefixed("dns.rr.name", 2, "zone"), "ipv4.dIP")),
               Distinct())
        result = execute_operators(ops, self._dns_trace())
        zones = {r["zone"] for r in result.rows()}
        assert zones == {"x.com", "y.com", "z.org"}

    def test_name_filter_table(self):
        ops = (
            Filter((Predicate("dns.rr.name", "in", "zones", level=2),)),
        )
        result = execute_operators(
            ops, self._dns_trace(), tables={"zones": {"x.com"}}
        )
        assert result.stats[0].rows_out == 3

    def test_payload_contains(self):
        packets = [
            Packet(ts=0.0, payload=b"hello zorro"),
            Packet(ts=0.1, payload=b"benign"),
            Packet(ts=0.2),
        ]
        ops = (Filter((Predicate("payload", "contains", b"zorro"),)),)
        result = execute_operators(ops, trace_from(packets))
        assert result.stats[0].rows_out == 1


class TestRefinementFilter:
    def test_in_table_with_level(self, synflood_trace):
        ops = (
            Filter((Predicate("ipv4.dIP", "in", "t", level=8),)),
            Map(keys=(Prefixed("ipv4.dIP", 16),), values=(Const(1),)),
            Reduce(keys=("ipv4.dIP",), func="sum"),
        )
        result = execute_operators(
            ops, synflood_trace, tables={"t": {0x0A000000}}
        )
        keys = {r["ipv4.dIP"] for r in result.rows()}
        assert keys == {0x0A000000}

    def test_empty_table_matches_nothing(self, synflood_trace):
        ops = (Filter((Predicate("ipv4.dIP", "in", "t", level=8),)),)
        result = execute_operators(ops, synflood_trace, tables={"t": set()})
        assert result.stats[0].rows_out == 0


class TestRowEquivalence:
    """Columnar and row-wise engines must agree exactly."""

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=2, max_value=16),  # quantization step... bucket
        st.integers(min_value=0, max_value=3),
    )
    def test_pipeline_equivalence(self, step, threshold):
        trace = simple_trace()
        ops = [
            Filter((Predicate("ipv4.proto", "eq", 6),)),
            Map(
                keys=(Prefixed("ipv4.dIP", 32), Quantized("pktlen", step, "bucket")),
                values=(Const(1),),
            ),
            Reduce(keys=("ipv4.dIP", "bucket"), func="sum"),
            Filter((Predicate("count", "gt", threshold),)),
        ]
        columnar = execute_operators(tuple(ops), trace).rows()
        row_inputs = [
            {name: pkt.get(name) for name in
             ("ipv4.proto", "ipv4.dIP", "pktlen")}
            for pkt in trace.packets()
        ]
        rowwise = apply_operators(row_inputs, ops)
        key = lambda r: tuple(sorted(r.items()))
        assert sorted(map(key, columnar)) == sorted(map(key, rowwise))
        assert columnar == rowwise  # same interpreter semantics, same order

    @pytest.mark.parametrize(
        "ops",
        [
            (Map(keys=("ipv4.dIP", "payload")), Distinct()),
            (Map(keys=("payload",)), Reduce(keys=("payload",), func="count")),
        ],
        ids=["distinct", "reduce"],
    )
    def test_payload_vocab_grouping(self, ops):
        """Duplicate payload vocab entries and absent vs ``b""`` cells group
        by value, as in the row engine."""
        packets = [
            Packet(ts=0.0, dip=7, payload=b"x"),
            Packet(ts=0.1, dip=7, payload=b"x"),
            Packet(ts=0.2, dip=7),
            Packet(ts=0.3, dip=7, payload=b""),
        ]
        trace = trace_from(packets)
        row_inputs = [
            {"ipv4.dIP": pkt.get("ipv4.dIP"), "payload": pkt.get("payload")}
            for pkt in trace.packets()
        ]
        rows = execute_operators(ops, trace).rows()
        assert rows == apply_operators(row_inputs, list(ops))
        assert len(rows) == 2


class TestFullQuery:
    def test_join_query_ground_truth(self, synflood_trace):
        stream = (
            PacketStream(name="syns_vs_acks")
            .filter(("tcp.flags", "eq", TCP_SYN))
            .map(keys=("ipv4.dIP",), values=(Const(1, "syns"),))
            .reduce(keys=("ipv4.dIP",), func="sum", out="syns")
            .join(
                PacketStream(name="acks")
                .filter(("tcp.flags", "eq", 0x10))
                .map(keys=("ipv4.dIP",), values=(Const(1, "acks"),))
                .reduce(keys=("ipv4.dIP",), func="sum", out="acks"),
                keys=("ipv4.dIP",),
            )
            .filter(("syns", "gt", 100))
        )
        rows = execute_query(Query(stream), synflood_trace)
        assert all(r["syns"] > 100 for r in rows)

    def test_subquery_execution(self, newly_opened_query, synflood_trace):
        result = execute_subquery(newly_opened_query.subquery(0), synflood_trace)
        victims = {r["ipv4.dIP"] for r in result.rows()}
        assert 0x0A000001 in victims


class TestVocabFields:
    def test_payload_materializes_as_bytes(self):
        packets = [
            Packet(ts=0.0, dip=1, payload=b"hello"),
            Packet(ts=0.1, dip=2),
        ]
        ops = (Map(keys=("ipv4.dIP", "payload")),)
        rows = execute_operators(ops, trace_from(packets)).rows()
        by_dip = {r["ipv4.dIP"]: r["payload"] for r in rows}
        assert by_dip == {1: b"hello", 2: b""}

    def test_dns_name_materializes_as_str(self):
        from repro.packets.packet import DNSInfo

        packets = [Packet(ts=0.0, dip=1, dns=DNSInfo("a.example.com", 1, 1, 1))]
        ops = (Map(keys=("ipv4.dIP", "dns.rr.name")),)
        rows = execute_operators(ops, trace_from(packets)).rows()
        assert rows[0]["dns.rr.name"] == "a.example.com"

    def test_rows_after_negative_index_is_input(self):
        result = execute_operators(
            (Filter((Predicate("ipv4.proto", "eq", 6),)),), simple_trace()
        )
        assert result.rows_after(-1) == 20


class TestAbsentCellDifferential:
    """Vocab-typed filters and drop rules read an absent name or payload
    as ``""``/``b""`` in every engine, as the row oracle does."""

    FIELDS_READ = ("ipv4.dIP", "dns.rr.name", "payload")

    def _trace(self):
        return trace_from(
            [
                Packet(ts=0.0, dip=1, proto=17,
                       dns=DNSInfo("a.example.com", 1, 1, 1)),
                Packet(ts=0.1, dip=2, payload=b"hi zz there"),
                Packet(ts=0.2, dip=3, payload=b""),
                Packet(ts=0.3, dip=4),
                Packet(ts=0.4, dip=5, proto=17, dns=DNSInfo("", 1, 1, 1)),
            ]
        )

    def _row_inputs(self, trace):
        return [
            {name: pkt.get(name) for name in self.FIELDS_READ}
            for pkt in trace.packets()
        ]

    @pytest.mark.parametrize(
        "pred",
        [
            Predicate("dns.rr.name", "eq", "a.example.com"),
            Predicate("dns.rr.name", "eq", ""),
            Predicate("dns.rr.name", "ne", "a.example.com"),
            Predicate("dns.rr.name", "in", "names"),
            Predicate("dns.rr.name", "contains", "example"),
            Predicate("dns.rr.name", "eq", "example.com", level=2),
            Predicate("dns.rr.name", "eq", ".", level=2),
            Predicate("dns.rr.name", "ne", "a.example.com", level=1),
            Predicate("dns.rr.name", "in", "zones", level=2),
            Predicate("dns.rr.name", "contains", "com", level=1),
            Predicate("payload", "eq", b""),
            Predicate("payload", "ne", b"zz"),
            Predicate("payload", "in", "payloads"),
            Predicate("payload", "contains", b"zz"),
            Predicate("payload", "contains", b""),
            Predicate("ipv4.dIP", "eq", "10.0.0.1"),
        ],
        ids=lambda pred: pred.describe(),
    )
    def test_filter_matches_row_oracle(self, pred):
        tables = {
            "names": {"a.example.com", ""},
            "zones": {"example.com", "."},
            "payloads": {b"", b"zz"},
        }
        trace = self._trace()
        ops = (Filter((pred,)), Map(keys=self.FIELDS_READ))
        columnar = execute_operators(ops, trace, tables=tables).rows()
        rowwise = apply_operators(self._row_inputs(trace), list(ops), tables)
        assert columnar == rowwise

    @pytest.mark.parametrize(
        "field, empty, name",
        [("payload", b"", "p"), ("dns.rr.name", "", "payload")],
        ids=["payload-as-p", "dns.rr.name-as-payload"],
    )
    @pytest.mark.parametrize("tail", ["eq", "in", "contains", "distinct", "reduce"])
    def test_renamed_column_matches_row_oracle(self, field, empty, name, tail):
        """A map rename keeps a string column's kind: its absent cells
        read as the field's empty value, not as the new name suggests."""
        tails = {
            "eq": (Filter((Predicate(name, "eq", empty),)),),
            "in": (Filter((Predicate(name, "in", "empties"),)),),
            "contains": (Filter((Predicate(name, "contains", empty),)),),
            "distinct": (Map(keys=(FieldRef(name),)), Distinct()),
            "reduce": (
                Map(keys=(FieldRef(name),), values=(Const(1),)),
                Reduce(keys=(name,), func="sum"),
            ),
        }
        ops = (Map(keys=(FieldRef("ipv4.dIP"), FieldRef(field, name))),) + tails[tail]
        tables = {"empties": {empty}}
        trace = self._trace()
        columnar = execute_operators(ops, trace, tables=tables).rows()
        assert columnar == apply_operators(self._row_inputs(trace), list(ops), tables)
        assert {type(row[name]) for row in columnar} == {type(empty)}

    def test_level_on_payload_fails_in_both_engines(self):
        ops = (Filter((Predicate("payload", "eq", b"", level=1),)),)
        trace = self._trace()
        with pytest.raises(QueryValidationError):
            execute_operators(ops, trace)
        with pytest.raises(QueryValidationError):
            apply_operators(self._row_inputs(trace), list(ops))

    @pytest.mark.parametrize(
        "preds, drop_rules, dropped",
        [
            ((Predicate("dns.rr.name", "ne", "a.example.com"),), (), 0),
            ((Predicate("dns.rr.name", "eq", ".", level=1),), (), 0),
            ((Predicate("ipv4.dIP", "ge", 0),), (("dns.rr.name", ""),), 4),
            ((Predicate("ipv4.dIP", "ge", 0),), (("payload", b""),), 4),
            # A drop-rule value the column cannot hold matches nothing.
            (
                (Predicate("ipv4.dIP", "ge", 0),),
                (("ipv4.dIP", "0.0.0.1"), ("dns.rr.name", 1), ("payload", "")),
                0,
            ),
        ],
    )
    def test_batched_switch_matches_per_packet(self, preds, drop_rules, dropped):
        from repro.switch import PISASwitch, SwitchConfig, compile_subquery

        stream = PacketStream(name="absent", qid=998)
        stream.operators = (
            Filter(preds),
            Map(keys=("ipv4.dIP", "dns.rr.name")),
        )
        compiled = compile_subquery(Query(stream).subquery(0))
        outputs = []
        for batched in (True, False):
            switch = PISASwitch(SwitchConfig.paper_default())
            switch.install("absent", compiled, compiled.compilable_operators)
            for rule in drop_rules:
                switch.add_drop_rule(*rule)
            trace = self._trace()
            if batched:
                mirrored = switch.process_window(trace)
            else:
                mirrored = [
                    m for pkt in trace.packets() for m in switch.process_packet(pkt)
                ]
            outputs.append(([m.fields for m in mirrored], switch.packets_dropped))
        assert compiled.compilable_operators == 2
        assert outputs[0] == outputs[1]
        assert outputs[1][1] == dropped
