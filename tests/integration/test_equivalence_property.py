"""Property-based cross-engine equivalence.

The repository has three executors for the same operator semantics: the
columnar engine (planner costs / ground truth), the row-wise interpreter
(stream processor), and the per-packet switch simulator. Hypothesis
generates random linear queries and random packet batches and asserts all
three agree exactly — the invariant everything else in the system rests on.
"""

from hypothesis import given, settings, strategies as st

from repro.analytics import execute_operators
from repro.core.expressions import Const, Prefixed, Quantized
from repro.core.operators import Filter, Map, Predicate, Reduce
from repro.core.query import PacketStream, Query
from repro.packets.packet import Packet
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
