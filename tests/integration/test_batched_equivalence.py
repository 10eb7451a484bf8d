"""Differential tests: the batched window engine vs the per-packet oracle.

``PISASwitch.process_window`` promises *exact* per-packet semantics — not
just the same final aggregates but the same mirrored tuples in the same
order, the same register insertion fates under overflow, the same
first-crossing threshold reports and the same fault decisions. These
tests enforce that promise:

1. a Hypothesis fuzz over random operator chains, random traces,
   deliberately undersized registers and forced register overflow,
   comparing both switch paths tuple-for-tuple (plus rowops and the
   columnar kernels where the chain is overflow-free);
2. a full-pipeline differential across every Table-3 query library
   entry and a combined workload, running ``SonataRuntime`` with
   ``engine="batched"`` (columnar batches from the switch to the stream
   processor) and ``engine="rowwise"`` and requiring identical window
   reports, ``level_outputs`` and ``faults_injected`` included;
3. the same pipeline differential under every chaos fault spec; and
4. the binary wire round-trip inside the batched pipeline.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analytics import execute_operators
from repro.core.errors import ResourceExhaustedError
from repro.core.expressions import Const, Difference, FieldRef, Prefixed, Quantized
from repro.core.operators import Distinct, Filter, Map, Predicate, Reduce
from repro.core.query import PacketStream, Query
from repro.evaluation.workloads import build_workload
from repro.faults import FaultInjector, FaultSpec
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import Trace
from repro.planner import QueryPlanner
from repro.queries.library import QUERY_LIBRARY, build_queries
from repro.runtime import SonataRuntime
from repro.streaming.rowops import apply_operators
from repro.switch import PISASwitch, SwitchConfig, compile_subquery

# -- chain shapes -----------------------------------------------------------
# Each shape builds a random linear chain from drawn parameters. All use
# registry fields so every engine resolves them identically.


def _shape_threshold(p):
    return (
        Filter((Predicate("tcp.dPort", "eq", p["dport"]),)),
        Map(
            keys=(
                Prefixed("ipv4.dIP", p["level"]),
                Quantized("pktlen", p["step"], "bucket"),
            ),
            values=(Const(1),),
        ),
        Reduce(keys=("ipv4.dIP", "bucket"), func="sum"),
        Filter((Predicate("count", "gt", p["threshold"]),)),
    )


def _shape_distinct_mid(p):
    return (
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef("ipv4.sIP"))),
        Distinct(),
        Map(keys=(FieldRef("ipv4.dIP"),), values=(Const(1),)),
        Reduce(keys=("ipv4.dIP",), func="sum"),
    )


def _shape_distinct_last(p):
    return (
        Map(
            keys=(
                Prefixed("ipv4.sIP", p["level"]),
                Quantized("pktlen", p["step"], "bucket"),
            )
        ),
        Distinct(keys=("ipv4.sIP", "bucket")),
    )


def _shape_reduce_max(p):
    return (
        Map(
            keys=(FieldRef("ipv4.sIP"),),
            values=(FieldRef("pktlen", rename="len"),),
        ),
        Reduce(keys=("ipv4.sIP",), func="max", value_field="len", out="maxlen"),
        Filter((Predicate("maxlen", "ge", p["value_threshold"]),)),
    )


def _shape_stream(p):
    return (
        Filter((Predicate("ipv4.proto", "eq", 17),)),
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef("tcp.dPort"))),
    )


def _shape_dns_names(p):
    # Vocab-typed register keys: "" and an absent name are one key, and
    # reports sort by name, not by vocabulary id.
    distinct = (
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef("dns.rr.name"))),
        Distinct(),
    )
    return (distinct if p["dns_distinct"] else ()) + (
        Map(keys=(FieldRef("dns.rr.name"),), values=(Const(1),)),
        Reduce(keys=("dns.rr.name",), func="sum"),
        Filter((Predicate("count", "gt", p["threshold"]),)),
    )


def _shape_negative_key(p):
    # sIP - dPort is negative for most packets.
    return (
        Map(
            keys=(Difference("ipv4.sIP", "tcp.dPort", "delta"),),
            values=(Const(1),),
        ),
        Reduce(keys=("delta",), func="sum"),
    )


SHAPES = [
    _shape_threshold,
    _shape_distinct_mid,
    _shape_distinct_last,
    _shape_reduce_max,
    _shape_stream,
    _shape_dns_names,
    _shape_negative_key,
]

ROW_FIELDS = ("tcp.dPort", "ipv4.dIP", "ipv4.sIP", "ipv4.proto", "pktlen", "dns.rr.name")

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
        dns=st.one_of(
            st.none(),
            st.builds(
                DNSInfo, qname=st.sampled_from(["", "z.com", "a.com", "m.a.org"])
            ),
        ),
    ),
    min_size=0,
    max_size=80,
)

params_strategy = st.builds(
    dict,
    shape=st.integers(min_value=0, max_value=len(SHAPES) - 1),
    dport=st.sampled_from([22, 80, 443]),
    level=st.sampled_from([8, 16, 24, 32]),
    step=st.sampled_from([16, 64, 256]),
    threshold=st.integers(min_value=0, max_value=5),
    value_threshold=st.integers(min_value=40, max_value=1400),
    dns_distinct=st.booleans(),
)

register_strategy = st.builds(
    dict,
    n_slots=st.sampled_from([2, 8, 64, 4096]),
    d=st.sampled_from([1, 2, 3]),
)


def _make_switch(ops, n_slots, d):
    config = SwitchConfig.paper_default()
    switch = PISASwitch(config)
    stream = PacketStream(name="prop", qid=999)
    stream.operators = tuple(ops)
    compiled = compile_subquery(Query(stream).subquery(0))
    from repro.switch.registers import RegisterSpec

    cut = compiled.compilable_operators
    sized = [
        t.sized(
            RegisterSpec(
                name=t.register.name,
                n_slots=n_slots,
                d=d,
                key_bits=t.register.key_bits,
                value_bits=t.register.value_bits,
            )
        )
        if t.stateful
        else t
        for t in compiled.tables_for_partition(cut)
    ]
    switch.install("prop", compiled, cut, sized_tables=sized)
    return switch


def _run_switch(ops, trace, n_slots, d, batched, pressure=0.0):
    switch = _make_switch(ops, n_slots, d)
    if pressure:
        switch.fault_injector = FaultInjector(
            FaultSpec(seed=1, overflow_pressure=pressure)
        )
    if batched:
        batch = switch.process_window(trace)
    else:
        batch = []
        for pkt in trace.packets():
            batch.extend(switch.process_packet(pkt))
    reports = switch.end_window()["prop"]
    stats = {
        "processed": switch.packets_processed,
        "dropped": switch.packets_dropped,
        "mirrored": switch.tuples_mirrored,
        "overflow": switch.window_overflow_stats,
        "per_instance": {
            k: (i.packets_seen, i.packets_surviving, i.tuples_mirrored)
            for k, i in switch.instances.items()
        },
    }
    return batch, reports, stats


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


class TestFuzzBatchedOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        packets=packets_strategy,
        params=params_strategy,
        register=register_strategy,
        pressure=st.sampled_from([0.0, 0.3]),
    )
    def test_batched_matches_per_packet_exactly(
        self, packets, params, register, pressure
    ):
        """Both switch paths agree tuple-for-tuple under any overflow
        regime, forced overflow included."""
        ops = SHAPES[params["shape"]](params)
        trace = Trace.from_packets(packets)
        row_batch, row_reports, row_stats = _run_switch(
            ops, trace, register["n_slots"], register["d"], False, pressure
        )
        bat_batch, bat_reports, bat_stats = _run_switch(
            ops, trace, register["n_slots"], register["d"], True, pressure
        )
        assert row_stats == bat_stats
        assert len(row_batch) == len(bat_batch)
        for a, b in zip(row_batch, bat_batch):
            assert (a.instance, a.kind, a.op_index, a.fields) == (
                b.instance, b.kind, b.op_index, b.fields,
            )
        assert len(row_reports) == len(bat_reports)
        for a, b in zip(row_reports, bat_reports):
            assert (a.kind, a.op_index, a.fields) == (b.kind, b.op_index, b.fields)

    def test_vocab_key_reports_sort_by_name(self):
        """Reports of a name-keyed chain follow ``sorted(reported_keys)``:
        by name, not by the order names entered the vocabulary; an absent
        name counts as ``""``."""
        names = ["z.com", "", "m.a.org", "a.com", None] * 4
        packets = [
            Packet(
                ts=i / 100,
                dip=i << 8,
                proto=17,
                dns=None if name is None else DNSInfo(qname=name),
            )
            for i, name in enumerate(names)
        ]
        ops = _shape_dns_names({"threshold": 0, "dns_distinct": True})
        trace = Trace.from_packets(packets)
        _, row_reports, _ = _run_switch(ops, trace, 64, 2, batched=False)
        _, bat_reports, _ = _run_switch(ops, trace, 64, 2, batched=True)
        expected = [
            {"dns.rr.name": "", "count": 8},
            {"dns.rr.name": "a.com", "count": 4},
            {"dns.rr.name": "m.a.org", "count": 4},
            {"dns.rr.name": "z.com", "count": 4},
        ]
        assert [m.fields for m in row_reports] == expected
        assert [m.fields for m in bat_reports] == expected

    @settings(max_examples=30, deadline=None)
    @given(packets=packets_strategy, params=params_strategy)
    def test_four_engines_agree_without_overflow(self, packets, params):
        """With generous registers, rowops, columnar and both switch paths
        produce the same final rows."""
        ops = SHAPES[params["shape"]](params)
        trace = Trace.from_packets(packets)

        columnar = execute_operators(ops, trace).rows()
        row_inputs = [
            {name: p.get(name) for name in ROW_FIELDS}
            for p in packets
        ]
        rowwise = apply_operators(row_inputs, list(ops))
        expected = _canon(columnar)
        assert expected == _canon(rowwise)
        # One interpreter: the columnar engine also keeps the row order.
        assert columnar == rowwise

        for batched in (False, True):
            batch, reports, _ = _run_switch(ops, trace, 4096, 2, batched=batched)
            rows = [m.fields for m in batch if m.kind == "stream"]
            rows += [m.fields for m in reports]
            assert expected == _canon(rows), f"batched={batched}"


# -- full-pipeline differential ---------------------------------------------
# One harness: the batched engine (columnar batches from the switch through
# the emitter to the stream processor) against the per-packet
# ``engine="rowwise"`` oracle, compared on every WindowReport field that
# carries results or accounting.

CHAOS_SPECS = {
    "mirror-faults": FaultSpec(
        seed=11, mirror_drop=0.2, mirror_duplicate=0.1, mirror_reorder=0.1
    ),
    "mirror-chaos": FaultSpec(
        seed=7,
        mirror_drop=0.1,
        mirror_duplicate=0.05,
        mirror_reorder=0.05,
        late_drop=0.1,
    ),
    "overflow-pressure": FaultSpec(seed=5, overflow_pressure=0.3),
    "overflow-light": FaultSpec(seed=3, overflow_pressure=0.25),
    "combined": FaultSpec(
        seed=9, mirror_drop=0.15, overflow_pressure=0.2, late_drop=0.1
    ),
    "combined-filter-loss": FaultSpec(
        seed=19,
        mirror_drop=0.08,
        mirror_reorder=0.05,
        overflow_pressure=0.15,
        late_drop=0.05,
        filter_update_loss=0.2,
    ),
}


def _window_digest(report):
    return [
        (
            w.index,
            w.packets,
            w.tuples_to_sp,
            {qid: _canon(rows) for qid, rows in w.detections.items()},
            {k: _canon(rows) for k, rows in w.level_outputs.items()},
            w.tuples_per_instance,
            w.overflow_stats,
            w.faults_injected,
            w.degraded,
        )
        for w in report.windows
    ]


def _plan(queries, trace):
    return QueryPlanner(queries, trace, window=3.0, time_limit=20).plan("sonata")


def _run(plan, trace, engine="batched", **kwargs):
    return SonataRuntime(plan, engine=engine, **kwargs).run(trace)


def _assert_engines_agree(plan, trace, **kwargs):
    batched = _run(plan, trace, **kwargs)
    rowwise = _run(plan, trace, engine="rowwise", **kwargs)
    assert _window_digest(batched) == _window_digest(rowwise)
    return batched


@pytest.mark.parametrize("name", sorted(QUERY_LIBRARY))
def test_library_query_differential(name):
    workload = build_workload([name], duration=9.0, pps=1_000, seed=13)
    plan = _plan(build_queries([name]), workload.trace)
    _assert_engines_agree(plan, workload.trace)


def test_combined_workload_differential():
    """Queries planned together: shared stages, refinement, overflow."""
    names = ["ddos", "superspreader", "newly_opened_tcp_conns", "zorro"]
    workload = build_workload(names, duration=9.0, pps=2_000, seed=23)
    plan = _plan(build_queries(names), workload.trace)
    _assert_engines_agree(plan, workload.trace)


@pytest.mark.parametrize("faults", CHAOS_SPECS.values(), ids=CHAOS_SPECS.keys())
def test_fault_injection_differential(faults):
    """Both engines apply the same position-keyed fault decisions."""
    names = ["ddos", "superspreader"]
    workload = build_workload(names, duration=9.0, pps=1_000, seed=29)
    plan = _plan(build_queries(names), workload.trace)
    report = _assert_engines_agree(plan, workload.trace, faults=faults)
    assert report.total_faults()


def test_float_keyed_query_differential():
    """A distinct keyed by a timestamp alias runs at the stream processor
    (the compiler ends the switch prefix before it); both engines agree."""
    stream = PacketStream(name="per_ts", qid=1)
    stream.operators = (
        Filter((Predicate("ipv4.proto", "eq", 6),)),
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef("ts"))),
        Distinct(),
        Map(keys=(FieldRef("ipv4.dIP"),), values=(Const(1),)),
        Reduce(keys=("ipv4.dIP",), func="sum"),
        Filter((Predicate("count", "gt", 40),)),
    )
    query = Query(stream)
    assert compile_subquery(query.subquery(0)).compilable_operators == 2
    workload = build_workload(["ddos"], duration=6.0, pps=1_000, seed=13)
    plan = _plan([query], workload.trace)
    report = _assert_engines_agree(plan, workload.trace)
    assert any(w.detections.get(1) for w in report.windows)


@pytest.mark.parametrize("name", ["ddos", "newly_opened_tcp_conns", "zorro"])
def test_wire_check_differential(name):
    """encode_batch/decode_batch are lossless inside the live pipeline
    (``zorro`` exercises the payload/blob path)."""
    workload = build_workload([name], duration=9.0, pps=1_000, seed=13)
    plan = _plan(build_queries([name]), workload.trace)
    checked = _run(plan, workload.trace, wire_check=True)
    plain = _run(plan, workload.trace)
    assert _window_digest(checked) == _window_digest(plain)


@pytest.mark.parametrize("wire_check", [False, True], ids=["plain", "wire_check"])
def test_renamed_payload_query_differential(wire_check):
    """A payload renamed by a map keeps its bytes kind through the switch,
    the emitter, the wire check and the stream processor: absent payloads
    are ``b""`` in both engines. (The wire check alone would hide a lost
    kind: decoding turns absent cells into explicit empty blobs.)"""
    stream = PacketStream(name="renamed_payload", qid=1)
    stream.operators = (
        Filter((Predicate("tcp.dPort", "eq", 23),)),
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef("payload", "p"))),
        Distinct(),
    )
    workload = build_workload(["zorro"], duration=9.0, pps=800, seed=1)
    plan = _plan([Query(stream)], workload.trace)
    report = _assert_engines_agree(plan, workload.trace, wire_check=wire_check)
    payloads = {row["p"] for w in report.windows for row in w.detections.get(1, [])}
    assert b"" in payloads and all(isinstance(p, bytes) for p in payloads)


def test_implicit_reduce_value_resolved_from_schema():
    """A reduce without a value field aggregates the schema's one value
    field in every engine, even when the tuples carry other non-key
    fields: the query plans, and both engines take the max pktlen."""
    stream = PacketStream(name="max_len", qid=1)
    stream.operators = (
        Map(keys=(FieldRef("ipv4.dIP"), FieldRef("ipv4.sIP")), values=(FieldRef("pktlen"),)),
        Reduce(keys=("ipv4.dIP",), func="max"),
    )
    workload = build_workload(["ddos"], duration=6.0, pps=500, seed=13)
    plan = _plan([Query(stream)], workload.trace)
    report = _assert_engines_agree(plan, workload.trace)
    first = next(w for w in report.windows if w.detections.get(1))
    start = float(workload.trace.array["ts"][0]) + first.index * 3.0
    window = workload.trace.array[
        (workload.trace.array["ts"] >= start) & (workload.trace.array["ts"] < start + 3.0)
    ]
    expected = {}
    for dip, length in zip(window["dip"].tolist(), window["pktlen"].tolist()):
        expected[dip] = max(expected.get(dip, 0), length)
    assert {r["ipv4.dIP"]: r["count"] for r in first.detections[1]} == expected


def test_channel_other_than_auto_rejected():
    workload = build_workload(["ddos"], duration=3.0, pps=200, seed=1)
    plan = _plan(build_queries(["ddos"]), workload.trace)
    for channel in ("batch", "row", "columnar"):
        with pytest.raises(ValueError, match="unknown channel"):
            SonataRuntime(plan, channel=channel)


# -- vectorized hashing / bulk register loads -------------------------------


class TestVectorizedRegisters:
    @settings(max_examples=25, deadline=None)
    @given(
        keys=st.lists(
            st.tuples(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.text(max_size=20),
                st.binary(max_size=20),
            ),
            min_size=0,
            max_size=200,
        ),
        d=st.integers(min_value=1, max_value=4),
    )
    def test_indices_vec_matches_scalar(self, keys, d):
        from repro.utils.hashing import HashFamily

        family = HashFamily(d, 64, seed=3)
        columns, vocabs = [np.array([k[0] for k in keys], dtype=np.int64)], [None]
        for j in (1, 2):
            vocab = sorted({k[j] for k in keys})
            ids = {value: i for i, value in enumerate(vocab)}
            columns.append(np.array([ids[k[j]] for k in keys], dtype=np.int64))
            vocabs.append(vocab)
        vec = family.indices_vec(columns, vocabs)
        assert vec.shape == (len(keys), d)
        for j, key in enumerate(keys):
            assert list(vec[j]) == list(family.indices(key))

    @settings(max_examples=25, deadline=None)
    @given(
        updates=st.lists(
            st.tuples(
                st.integers(min_value=-8, max_value=15),
                st.integers(min_value=1, max_value=9),
            ),
            min_size=0,
            max_size=120,
        ),
        n_slots=st.sampled_from([2, 4, 64]),
        func=st.sampled_from(["sum", "count", "max", "min", "or"]),
    )
    def test_bulk_load_matches_per_packet_updates(self, updates, n_slots, func):
        """bulk_load_vec of first-occurrence-ordered window aggregates
        leaves the chain in exactly the per-packet end state."""
        from repro.exec.alu import UPDATE_FUNCS, init_value
        from repro.switch.registers import RegisterChain, RegisterSpec

        spec = RegisterSpec(name="t", n_slots=n_slots, d=2, key_bits=32)
        oracle = RegisterChain(spec)
        for key, arg in updates:
            oracle.update((key,), func, arg)

        # Window aggregates per unique key, in first-occurrence order —
        # only counting updates that the oracle accepted (non-overflowed).
        order: list[tuple] = []
        finals: dict[tuple, int] = {}
        for key, arg in updates:
            k = (key,)
            if oracle.lookup(k) is None:
                continue  # the whole chain collided for this key
            if k not in finals:
                order.append(k)
                finals[k] = init_value(func, arg)
            else:
                finals[k] = UPDATE_FUNCS[func](finals[k], arg)

        loaded = RegisterChain(spec)
        inserted, _ = loaded.bulk_load_vec(
            [np.array([k[0] for k in order], dtype=np.int64)],
            np.array([finals[k] for k in order], dtype=np.int64),
            func,
            lambda: order,
        )
        assert inserted.all()
        assert loaded.dump() == oracle.dump()

    def test_second_load_into_a_nonempty_chain_raises(self):
        from repro.switch.registers import RegisterChain, RegisterSpec

        chain = RegisterChain(RegisterSpec(name="t", n_slots=8, d=2, key_bits=32))
        keys, values = [np.array([1, 2], dtype=np.int64)], np.ones(2, dtype=np.int64)
        chain.bulk_load_vec(keys, values, "sum", lambda: [(1,), (2,)])
        with pytest.raises(ResourceExhaustedError, match="empty register chain"):
            chain.bulk_load_vec(keys, values, "sum", lambda: [(1,), (2,)])
        chain.reset()
        chain.bulk_load_vec(keys, values, "sum", lambda: [(1,), (2,)])
