"""Tests for the columnar Trace container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TraceFormatError
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import Trace


def make_packets(n=10):
    return [
        Packet(ts=float(i), pktlen=60 + i, sip=i, dip=i * 2, sport=1000 + i,
               dport=80, tcpflags=2)
        for i in range(n)
    ]


packet_strategy = st.builds(
    Packet,
    ts=st.floats(min_value=0, max_value=1e6, allow_nan=False),
    pktlen=st.integers(min_value=0, max_value=65535),
    proto=st.integers(min_value=0, max_value=255),
    sip=st.integers(min_value=0, max_value=0xFFFFFFFF),
    dip=st.integers(min_value=0, max_value=0xFFFFFFFF),
    sport=st.integers(min_value=0, max_value=65535),
    dport=st.integers(min_value=0, max_value=65535),
    tcpflags=st.integers(min_value=0, max_value=255),
    ttl=st.integers(min_value=0, max_value=255),
    dns=st.one_of(
        st.none(),
        st.builds(
            DNSInfo,
            qname=st.sampled_from(["", "a.com", "x.b.org", "deep.a.b.c.net"]),
            qtype=st.integers(min_value=0, max_value=255),
            ancount=st.integers(min_value=0, max_value=30),
            qr=st.integers(min_value=0, max_value=1),
        ),
    ),
    payload=st.one_of(st.none(), st.binary(max_size=40)),
)


class TestRoundTrip:
    def test_from_packets_preserves_fields(self):
        packets = make_packets()
        trace = Trace.from_packets(packets)
        assert len(trace) == len(packets)
        for original, restored in zip(packets, trace.packets()):
            assert original == restored

    @settings(max_examples=30, deadline=None)
    @given(st.lists(packet_strategy, max_size=15))
    def test_packet_roundtrip_property(self, packets):
        trace = Trace.from_packets(packets)
        restored = list(trace.packets())
        for original, back in zip(packets, restored):
            assert back.sip == original.sip
            assert back.payload == original.payload
            if original.dns and (
                original.dns.qname or original.dns.qr or original.dns.ancount
                or original.dns.qtype
            ):
                assert back.dns is not None
                assert back.dns.qname == original.dns.qname

    def test_save_load(self, tmp_path):
        packets = make_packets()
        packets[3] = Packet(ts=3.0, payload=b"hello", dns=DNSInfo("x.com", 16, 1, 1))
        trace = Trace.from_packets(packets)
        path = str(tmp_path / "t.strace")
        trace.save(path)
        loaded = Trace.load(path)
        assert np.array_equal(loaded.array, trace.array)
        assert loaded.payloads == trace.payloads
        assert loaded.qnames == trace.qnames

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"not a trace file at all")
        with pytest.raises(TraceFormatError):
            Trace.load(str(path))

    def test_load_rejects_truncated(self, tmp_path):
        trace = Trace.from_packets(make_packets())
        path = tmp_path / "t.strace"
        trace.save(str(path))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        with pytest.raises(TraceFormatError):
            Trace.load(str(path))


class TestWindows:
    def test_tumbling_windows_partition(self):
        trace = Trace.from_packets(make_packets(10))  # ts 0..9
        windows = list(trace.windows(3.0))
        assert len(windows) == 4
        assert sum(len(w) for _, w in windows) == 10
        starts = [s for s, _ in windows]
        assert starts == [0.0, 3.0, 6.0, 9.0]

    def test_empty_interior_window_emitted(self):
        packets = [Packet(ts=0.0), Packet(ts=7.0)]
        windows = list(Trace.from_packets(packets).windows(3.0))
        assert [len(w) for _, w in windows] == [1, 0, 1]

    def test_bad_width_rejected(self):
        with pytest.raises(ValueError):
            list(Trace.empty().windows(0))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        ts=st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 6.0, 7.5, 9.0, 12.0]),
            min_size=1,
            max_size=30,
        ),
        width=st.sampled_from([0.5, 1.0, 3.0]),
        origin=st.sampled_from([None, -2.0, 0.0, 1.0]),
    )
    def test_windows_equal_time_range(self, ts, width, origin):
        # Sorted traces with repeated timestamps, packets exactly on window
        # edges, empty interior windows and origins before the first packet.
        trace = Trace.from_packets([Packet(ts=t, sip=i) for i, t in enumerate(sorted(ts))])
        windows = list(trace.windows(width, origin=origin))
        base = min(ts) if origin is None else origin
        assert sum(len(w) for _, w in windows) == sum(t >= base for t in ts)
        for start, window in windows:
            expected = trace.time_range(start, start + width)
            assert np.array_equal(window.array, expected.array)
            assert window.qnames is trace.qnames
            assert window.payloads is trace.payloads

    def test_packet_on_window_edge_opens_next_window(self):
        packets = [Packet(ts=t) for t in (0.0, 2.9, 3.0, 3.0, 6.0)]
        windows = list(Trace.from_packets(packets).windows(3.0))
        assert [len(w) for _, w in windows] == [2, 2, 1]

    def test_origin_before_first_packet(self):
        packets = [Packet(ts=t) for t in (5.0, 5.5, 9.0)]
        windows = list(Trace.from_packets(packets).windows(2.0, origin=0.0))
        assert [s for s, _ in windows] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert [len(w) for _, w in windows] == [0, 0, 2, 0, 1]

    def test_unsorted_trace_rejected(self):
        packets = [Packet(ts=t) for t in (0.0, 4.0, 1.0)]
        with pytest.raises(TraceFormatError, match="packet 2"):
            list(Trace.from_packets(packets).windows(3.0))

    def test_time_range(self):
        trace = Trace.from_packets(make_packets(10))
        sub = trace.time_range(2.0, 5.0)
        assert len(sub) == 3


class TestMerge:
    def test_merge_sorts_by_time(self):
        t1 = Trace.from_packets([Packet(ts=5.0, sip=1)])
        t2 = Trace.from_packets([Packet(ts=1.0, sip=2)])
        merged = Trace.merge([t1, t2])
        assert list(merged.array["ts"]) == [1.0, 5.0]

    def test_merge_remaps_side_tables(self):
        t1 = Trace.from_packets(
            [Packet(ts=0.0, payload=b"one", dns=DNSInfo("a.com", 1, 1, 1))]
        )
        t2 = Trace.from_packets(
            [Packet(ts=1.0, payload=b"two", dns=DNSInfo("b.com", 1, 1, 1))]
        )
        merged = Trace.merge([t1, t2])
        restored = list(merged.packets())
        assert {p.payload for p in restored} == {b"one", b"two"}
        assert {p.dns.qname for p in restored} == {"a.com", "b.com"}

    def test_merge_shares_duplicate_qnames(self):
        t1 = Trace.from_packets([Packet(ts=0.0, dns=DNSInfo("a.com", 1, 1, 1))])
        t2 = Trace.from_packets([Packet(ts=1.0, dns=DNSInfo("a.com", 1, 1, 1))])
        merged = Trace.merge([t1, t2])
        assert merged.qnames == ["a.com"]

    def test_merge_empty(self):
        assert len(Trace.merge([])) == 0
        assert len(Trace.merge([Trace.empty()])) == 0


class TestColumns:
    def test_column_view(self):
        trace = Trace.from_packets(make_packets())
        assert list(trace.column("ipv4.sIP")) == list(range(10))

    def test_columns_cover_registry(self):
        from repro.core.fields import FIELDS

        trace = Trace.from_packets(make_packets())
        columns = trace.columns()
        assert set(columns) == set(FIELDS.names())

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TraceFormatError):
            Trace(np.zeros(3, dtype=np.int64))

    def test_duration(self):
        trace = Trace.from_packets(make_packets(5))
        assert trace.duration == pytest.approx(4.0)
        assert Trace.empty().duration == 0.0
