"""Property-based cross-engine equivalence.

The repository has three executors for the same operator semantics: the
columnar interpreter (the stream processor, planner costs and ground
truth), the row-wise interpreter (its per-tuple differential oracle), and
the per-packet switch simulator. Hypothesis generates random linear
queries and random packet batches — DNS names and payloads present, empty
or absent, and renamed by maps — and asserts the engines agree exactly:
the invariant everything else in the system rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.analytics import execute_operators
from repro.core.expressions import Const, FieldRef, Prefixed, Quantized
from repro.core.operators import Distinct, Filter, Map, Predicate, Reduce
from repro.core.query import PacketStream, Query
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import Trace
from repro.planner.collisions import size_register
from repro.streaming.rowops import apply_operators
from repro.switch import PISASwitch, SwitchConfig, compile_subquery

packets_strategy = st.lists(
    st.builds(
        Packet,
        ts=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        pktlen=st.integers(min_value=40, max_value=1500),
        proto=st.sampled_from([6, 17]),
        sip=st.integers(min_value=0, max_value=0xFF),
        dip=st.integers(min_value=0, max_value=0xFFFF).map(lambda v: v << 8),
        sport=st.integers(min_value=1, max_value=100),
        dport=st.sampled_from([22, 53, 80, 443]),
        tcpflags=st.sampled_from([0x02, 0x10, 0x12, 0x18]),
        # Present, empty and absent names and payloads (a trace stores an
        # empty DNS name as absent).
        dns=st.one_of(
            st.none(),
            st.builds(DNSInfo, qname=st.sampled_from(["", "a.com", "x.a.com"])),
        ),
        payload=st.one_of(st.none(), st.just(b""), st.sampled_from([b"zz", b"a"])),
    ),
    min_size=0,
    max_size=60,
)

query_strategy = st.builds(
    dict,
    dport=st.sampled_from([22, 80, 443]),
    level=st.sampled_from([8, 16, 24, 32]),
    step=st.sampled_from([16, 64, 256]),
    threshold=st.integers(min_value=0, max_value=5),
)


def _build_ops(params):
    return (
        Filter((Predicate("tcp.dPort", "eq", params["dport"]),)),
        Map(
            keys=(
                Prefixed("ipv4.dIP", params["level"]),
                Quantized("pktlen", params["step"], "bucket"),
            ),
            values=(Const(1),),
        ),
        Reduce(keys=("ipv4.dIP", "bucket"), func="sum"),
        Filter((Predicate("count", "gt", params["threshold"]),)),
    )


#: (string field, the name a map gives it). Renaming onto another string
#: field's name must not change what the column's absent cells read as.
RENAMES = [
    ("payload", "p"),
    ("payload", "dns.rr.name"),
    ("dns.rr.name", "n"),
    ("dns.rr.name", "payload"),
]

string_query_strategy = st.builds(
    dict,
    rename=st.sampled_from(RENAMES),
    dport=st.sampled_from([22, 80, 443]),
    tail=st.sampled_from(["reduce", "distinct", "filter"]),
)


def _build_string_ops(params):
    field, name = params["rename"]
    empty = b"" if field == "payload" else ""
    tails = {
        "reduce": (
            Map(keys=(FieldRef(name),), values=(Const(1),)),
            Reduce(keys=(name,), func="sum"),
        ),
        "distinct": (Distinct(),),
        "filter": (Filter((Predicate(name, "eq", empty),)),),
    }
    return (
        Filter((Predicate("tcp.dPort", "ne", params["dport"]),)),
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef(field, name))),
    ) + tails[params["tail"]]


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


class TestThreeEngineEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(packets=packets_strategy, params=query_strategy)
    def test_columnar_rowwise_switch_agree(self, packets, params):
        ops = _build_ops(params)
        trace = Trace.from_packets(packets)

        # 1. columnar
        columnar = execute_operators(ops, trace).rows()

        # 2. row-wise
        row_inputs = [
            {
                "tcp.dPort": p.dport,
                "ipv4.dIP": p.dip,
                "pktlen": p.pktlen,
            }
            for p in packets
        ]
        rowwise = apply_operators(row_inputs, list(ops))

        # 3. per-packet switch (generously sized registers: no overflow)
        stream = PacketStream(name="prop", qid=999)
        stream.operators = ops
        compiled = compile_subquery(Query(stream).subquery(0))
        config = SwitchConfig.paper_default()
        sized = [
            t.sized(
                size_register(
                    t.register.name, 4096, t.register.key_bits,
                    t.register.value_bits, config,
                )
            )
            if t.stateful
            else t
            for t in compiled.tables
        ]
        switch = PISASwitch(config)
        switch.install("prop", compiled, len(ops), sized_tables=sized)
        for pkt in packets:
            for mirrored in switch.process_packet(pkt):
                assert mirrored.kind != "stream"
        reports = switch.end_window()["prop"]
        switch_rows = [m.fields for m in reports]

        assert _canon(columnar) == _canon(rowwise) == _canon(switch_rows)
        # The columnar and row-wise interpreters also agree on row order.
        assert columnar == rowwise

    @settings(max_examples=40, deadline=None)
    @given(packets=packets_strategy, params=string_query_strategy)
    def test_renamed_string_columns_agree(self, packets, params):
        """A map that renames a DNS name or payload keeps the column's
        kind: both interpreters read its absent cells as the field's
        empty value, whatever the new name."""
        ops = _build_string_ops(params)
        trace = Trace.from_packets(packets)
        columnar = execute_operators(ops, trace).rows()
        row_inputs = [
            {name: p.get(name) for name in ("tcp.dPort", "ipv4.dIP", "payload", "dns.rr.name")}
            for p in packets
        ]
        assert columnar == apply_operators(row_inputs, list(ops))
