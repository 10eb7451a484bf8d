"""Tests for the PISA switch simulator: constraints and semantics."""

import pytest

from repro.core.errors import ResourceExhaustedError
from repro.core.expressions import Const
from repro.core.fields import TCP_SYN
from repro.core.query import PacketStream, Query
from repro.analytics import execute_subquery
from repro.switch import PISASwitch, SwitchConfig, compile_subquery
from repro.switch.config import MB
from repro.switch.registers import RegisterSpec

VICTIM = 0x0A000001


def compiled_newly_opened(threshold=100):
    stream = (
        PacketStream(name="q", qid=1)
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
        .filter(("count", "gt", threshold))
    )
    return compile_subquery(Query(stream).subquery(0))


def size_tables(compiled, cut, n_slots=4096, d=2):
    tables = []
    for t in compiled.tables_for_partition(cut):
        if t.stateful:
            tables.append(
                t.sized(
                    RegisterSpec(
                        t.register.name,
                        n_slots=n_slots,
                        d=d,
                        key_bits=t.register.key_bits,
                        value_bits=t.register.value_bits,
                    )
                )
            )
        else:
            tables.append(t)
    return tables


class TestInstall:
    def test_install_and_first_fit(self):
        switch = PISASwitch(SwitchConfig.paper_default())
        compiled = compiled_newly_opened()
        inst = switch.install("i", compiled, 4, size_tables(compiled, 4))
        stages = [inst.stage_of[t.name] for t in inst.tables]
        assert stages == sorted(stages) and len(set(stages)) == len(stages)

    def test_read_fields_cover_operators_and_mirror(self):
        switch = PISASwitch()
        compiled = compiled_newly_opened()
        reduced = switch.install("reduced", compiled, 4, size_tables(compiled, 4))
        assert reduced.read_fields == {"tcp.flags", "ipv4.dIP", "count"}
        # A filter-only cut mirrors whole packets, so it reads every field.
        filtered = switch.install("filtered", compiled, 1, size_tables(compiled, 1))
        assert filtered.read_fields == set(compiled.schemas[0].fields)

    def test_duplicate_key_rejected(self):
        switch = PISASwitch()
        compiled = compiled_newly_opened()
        switch.install("i", compiled, 4, size_tables(compiled, 4))
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, size_tables(compiled, 4))

    def test_cut_beyond_compilable_rejected(self):
        switch = PISASwitch()
        compiled = compiled_newly_opened()
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 9, size_tables(compiled, 4))

    def test_stage_count_enforced_c3(self):
        switch = PISASwitch(SwitchConfig(stages=2))
        compiled = compiled_newly_opened()
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, size_tables(compiled, 4))

    def test_register_budget_enforced_c1(self):
        config = SwitchConfig(
            register_bits_per_stage=1_000, max_single_register_bits=1_000
        )
        switch = PISASwitch(config)
        compiled = compiled_newly_opened()
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, size_tables(compiled, 4, n_slots=4096))

    def test_stateful_actions_enforced_c2(self):
        config = SwitchConfig(stages=16, stateful_actions_per_stage=1)
        switch = PISASwitch(config)
        compiled = compiled_newly_opened()
        # force both instances' stateful tables into the same stage
        t1 = size_tables(compiled, 4, n_slots=64)
        switch.install("a", compiled, 4, t1, stage_assignment={
            t.name: i for i, t in enumerate(t1)
        })
        t2 = size_tables(compiled, 4, n_slots=64)
        with pytest.raises(ResourceExhaustedError):
            switch.install("b", compiled, 4, t2, stage_assignment={
                t.name: i for i, t in enumerate(t2)
            })

    def test_ordering_enforced_c4(self):
        switch = PISASwitch()
        compiled = compiled_newly_opened()
        tables = size_tables(compiled, 4)
        bad = {t.name: 0 for t in tables}  # all in stage 0
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, tables, stage_assignment=bad)

    def test_metadata_budget_enforced_c5(self):
        switch = PISASwitch(SwitchConfig(metadata_bits=10))
        compiled = compiled_newly_opened()
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, size_tables(compiled, 4))

    def test_single_register_cap(self):
        config = SwitchConfig(
            register_bits_per_stage=64 * MB, max_single_register_bits=1_000
        )
        switch = PISASwitch(config)
        compiled = compiled_newly_opened()
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, size_tables(compiled, 4, n_slots=8192))

    def test_missing_register_sizing_rejected(self):
        switch = PISASwitch()
        compiled = compiled_newly_opened()
        with pytest.raises(ResourceExhaustedError):
            switch.install("i", compiled, 4, compiled.tables_for_partition(4))


class TestSemantics:
    def test_matches_columnar_ground_truth(self, synflood_trace):
        compiled = compiled_newly_opened(threshold=100)
        switch = PISASwitch()
        switch.install("i", compiled, 4, size_tables(compiled, 4))
        for pkt in synflood_trace.packets():
            mirrored = switch.process_packet(pkt)
            assert all(m.kind != "stream" for m in mirrored)
        reports = switch.end_window()["i"]
        truth = execute_subquery(compiled.subquery, synflood_trace)
        expected = {(r["ipv4.dIP"], r["count"]) for r in truth.rows()}
        got = {(m.fields["ipv4.dIP"], m.fields["count"]) for m in reports}
        assert got == expected

    def test_stateless_cut_mirrors_per_packet(self, synflood_trace):
        compiled = compiled_newly_opened()
        switch = PISASwitch()
        switch.install("i", compiled, 1, size_tables(compiled, 1))
        mirrored = 0
        for pkt in synflood_trace.packets():
            mirrored += len(switch.process_packet(pkt))
        syns = int((synflood_trace.array["tcpflags"] == TCP_SYN).sum())
        assert mirrored == syns

    def test_windows_reset_state(self, synflood_trace):
        compiled = compiled_newly_opened(threshold=100)
        switch = PISASwitch()
        switch.install("i", compiled, 4, size_tables(compiled, 4))
        for pkt in synflood_trace.packets():
            switch.process_packet(pkt)
        first = switch.end_window()["i"]
        # second, empty window must produce nothing
        assert switch.end_window()["i"] == []

    def test_overflow_mirrors_raw(self, synflood_trace):
        compiled = compiled_newly_opened(threshold=100)
        switch = PISASwitch()
        switch.install("i", compiled, 4, size_tables(compiled, 4, n_slots=8, d=1))
        overflow = 0
        for pkt in synflood_trace.packets():
            for m in switch.process_packet(pkt):
                assert m.kind == "overflow"
                overflow += 1
        assert overflow > 0

    def test_poll_bypasses_threshold(self, synflood_trace):
        """Polled keys are reported ungated; the engines agree row for row."""
        import numpy as np

        from repro.exec import ColumnarState

        syn = synflood_trace.array["tcpflags"] == TCP_SYN
        dips, counts = np.unique(synflood_trace.array["dip"][syn], return_counts=True)
        below = [int(d) for d in dips[counts <= 100]]
        assert len(below) >= 2 and VICTIM in dips[counts > 100]
        polled, unpolled = below[0], below[1]
        absent = int(dips.max()) + 1
        poll = {"i": ColumnarState({"ipv4.dIP": np.array([absent, polled])})}

        compiled = compiled_newly_opened(threshold=100)
        reports = {}
        for engine in ("rowwise", "batched"):
            switch = PISASwitch()
            switch.install("i", compiled, 4, size_tables(compiled, 4))
            if engine == "batched":
                switch.process_window_items(synflood_trace)
            else:
                for pkt in synflood_trace.packets():
                    switch.process_packet(pkt)
            reports[engine] = switch.end_window(poll=poll)["i"]
        assert reports["rowwise"] == reports["batched"]
        got = [(m.fields["ipv4.dIP"], m.fields["count"]) for m in reports["batched"]]
        assert got == sorted(got)
        keys = {dip for dip, _count in got}
        assert polled in keys  # below the threshold, but polled
        assert unpolled not in keys  # below the threshold and not polled
        assert absent not in keys  # polled, but the register lacks it
        assert VICTIM in keys  # the threshold-passing key is still reported
        # Reports stop before the folded threshold, so the emitter can
        # re-apply it after the merge.
        assert {m.op_index for m in reports["batched"]} == {3}

    def test_distinct_gates_downstream(self):
        from repro.packets.packet import Packet

        stream = (
            PacketStream(name="dd", qid=2)
            .map(keys=("ipv4.dIP", "ipv4.sIP"))
            .distinct()
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
        )
        compiled = compile_subquery(Query(stream).subquery(0))
        switch = PISASwitch()
        switch.install("i", compiled, 4, size_tables(compiled, 4))
        packets = [
            Packet(ts=0.0, dip=1, sip=10),
            Packet(ts=0.1, dip=1, sip=10),  # duplicate pair
            Packet(ts=0.2, dip=1, sip=11),
        ]
        for pkt in packets:
            switch.process_packet(pkt)
        reports = switch.end_window()["i"]
        assert {(m.fields["ipv4.dIP"], m.fields["count"]) for m in reports} == {
            (1, 2)
        }

    def test_dynamic_filter_table(self, synflood_trace):
        stream = (
            PacketStream(name="ref", qid=3)
            .filter(("ipv4.dIP", "in", "tbl"), level=8)
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
        )
        compiled = compile_subquery(Query(stream).subquery(0))
        switch = PISASwitch()
        switch.install("i", compiled, 3, size_tables(compiled, 3))
        cost = switch.update_filter_table("tbl", {0x0A000000})
        assert cost > 0
        for pkt in synflood_trace.packets():
            switch.process_packet(pkt)
        reports = switch.end_window()["i"]
        assert all(
            m.fields["ipv4.dIP"] >> 24 == 0x0A for m in reports
        )

    def test_resource_usage_report(self):
        compiled = compiled_newly_opened()
        switch = PISASwitch()
        switch.install("i", compiled, 4, size_tables(compiled, 4))
        usage = switch.resource_usage()
        assert usage["metadata_bits"] > 0
        assert sum(usage["tables_per_stage"].values()) == 4


class TestFilterTableCapacity:
    def test_oversized_update_truncated_and_flagged(self):
        switch = PISASwitch(SwitchConfig(filter_table_capacity=10))
        switch.update_filter_table("t", set(range(100)))
        assert len(switch.filter_tables["t"]) == 10
        assert switch.filter_table_truncations == 1

    def test_truncation_deterministic(self):
        a = PISASwitch(SwitchConfig(filter_table_capacity=10))
        b = PISASwitch(SwitchConfig(filter_table_capacity=10))
        a.update_filter_table("t", set(range(100)))
        b.update_filter_table("t", set(range(100)))
        assert a.filter_tables["t"] == b.filter_tables["t"]

    def test_within_capacity_untouched(self):
        switch = PISASwitch(SwitchConfig(filter_table_capacity=10))
        switch.update_filter_table("t", {1, 2, 3})
        assert switch.filter_tables["t"] == {1, 2, 3}
        assert switch.filter_table_truncations == 0
