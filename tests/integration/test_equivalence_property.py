"""Property-based cross-engine equivalence.

The repository has three executors for the same operator semantics: the
columnar interpreter (the stream processor, planner costs and ground
truth), the row-wise interpreter (its per-tuple differential oracle), and
the per-packet switch simulator. Hypothesis generates random linear
queries and random packet batches — DNS names and payloads present, empty
or absent, and renamed by maps — and asserts the engines agree exactly:
the invariant everything else in the system rests on. Random join trees
hold the columnar join (the stream processor, planner costs and ground
truth) to the row-wise one.
"""

from hypothesis import given, settings, strategies as st

from repro.analytics import execute_operators, execute_query, execute_subquery
from repro.core.expressions import Const, Difference, FieldRef, Prefixed, Quantized, Ratio
from repro.core.operators import Distinct, Filter, Map, Predicate, Reduce
from repro.core.query import PacketStream, Query
from repro.exec import materialize_rows
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import Trace
from repro.planner.collisions import size_register
from repro.streaming import batchops, rowops
from repro.streaming.rowops import apply_operators
from repro.switch import PISASwitch, SwitchConfig, compile_subquery


def _packets(dip=st.integers(min_value=0, max_value=0xFFFF).map(lambda v: v << 8)):
    packet = st.builds(
        Packet,
        ts=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        pktlen=st.integers(min_value=40, max_value=1500),
        proto=st.sampled_from([6, 17]),
        sip=st.integers(min_value=0, max_value=0xFF),
        dip=dip,
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
    )
    return st.lists(packet, min_size=0, max_size=60)


packets_strategy = _packets()

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


join_strategy = st.builds(
    dict,
    nested=st.booleans(),
    # A vocab-typed key column (the payload) next to an int one.
    keys=st.sampled_from([("ipv4.dIP",), ("ipv4.dIP", "payload")]),
    collide=st.booleans(),
    post=st.sampled_from(["none", "difference", "ratio"]),
    threshold=st.integers(min_value=-1, max_value=2),
    inactive=st.sampled_from([None, 0, 1, 2]),
)


def _join_query(params) -> Query:
    """Three leaves joined on ``keys``: two counts, one of them named like
    the other when ``collide`` (so the join renames it ``a_r``), and a
    distinct that repeats each key once per source. Either
    ``(a ⋈ b) ⋈ c`` or ``a ⋈ (b ⋈ c)``, with a post-join ``Difference``
    or ``Ratio`` filter after the join of the counts."""
    keys = params["keys"]
    b = "a" if params["collide"] else "b"

    def count(name, pred):
        return (
            PacketStream(name=f"j.{name}")
            .filter(pred)
            .map(keys=keys, values=(Const(1, name),))
            .reduce(keys=keys, func="sum", out=name)
        )

    left = count("a", ("ipv4.proto", "eq", 6))
    right = count(b, ("tcp.dPort", "ne", 80))
    sources = PacketStream(name="j.c").map(keys=keys + ("ipv4.sIP",)).distinct()
    expr = {"difference": Difference, "ratio": Ratio}.get(params["post"])

    def post(stream):
        if expr is None:
            return stream
        joined = "a_r" if params["collide"] else "b"
        return stream.map(keys=keys, values=(expr("a", joined, "d"),)).filter(
            ("d", "gt", params["threshold"])
        )

    if params["nested"]:
        stream = post(left.join(right.join(sources, keys), keys))
    else:
        stream = post(left.join(right, keys)).join(sources, keys)
    stream.qid = 998
    return Query(stream)


class TestJoinEquivalence:
    @settings(max_examples=40, deadline=None, derandomize=True)
    # Few destinations, so that keys repeat on both sides of each join.
    @given(packets=_packets(st.sampled_from([0x0A000001, 0x0A000002, 0x0B000001])),
           params=join_strategy)
    def test_columnar_and_rowwise_joins_agree(self, packets, params):
        """Rows, row order and key order agree, an inactive leaf included."""
        query = _join_query(params)
        trace = Trace.from_packets(packets)
        fields = ("ipv4.proto", "tcp.dPort", "ipv4.dIP", "ipv4.sIP", "payload")
        row_inputs = [{name: p.get(name) for name in fields} for p in packets]
        states, rows = {}, {}
        for sq in query.subqueries:
            active = sq.subid != params["inactive"]
            states[sq.subid] = execute_subquery(sq, trace).final if active else None
            rows[sq.subid] = (
                apply_operators(row_inputs, list(sq.resolved_operators)) if active else None
            )
        columnar = _items(
            materialize_rows(batchops.assemble_join_tree(query.join_tree, states))
        )
        rowwise = _items(rowops.assemble_join_tree(query.join_tree, rows))
        assert columnar == rowwise
        if params["inactive"] is None:
            assert _items(execute_query(query, trace)) == rowwise


def _items(rows):
    """Rows as ordered item lists: equal only with equal key order."""
    return [list(row.items()) for row in rows]
