"""Tests for the columnar Trace container."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import TraceFormatError
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import TRACE_DTYPE, Trace


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

    def test_packet_by_index(self):
        packets = make_packets(4)
        packets[1] = Packet(ts=1.0, payload=b"hi", dns=DNSInfo("x.com", 16, 1, 1))
        packets[2] = Packet(ts=2.0, dns=DNSInfo("", 0, 0, 1))  # DNS without a name
        trace = Trace.from_packets(packets)
        for index in range(-len(packets), len(packets)):
            assert trace.packet(index) == packets[index]
        for index in (len(packets), -len(packets) - 1):
            with pytest.raises(IndexError):
                trace.packet(index)

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


def _concatenate_then_sort(traces):
    """The reference merge: copy every piece, remap its side-table ids,
    concatenate, and stably sort the whole by time."""
    traces = [t for t in traces if len(t)]
    if not traces:
        return Trace.empty()
    qnames: list[str] = []
    qname_ids: dict[str, int] = {}
    payloads: list[bytes] = []
    arrays = []
    for trace in traces:
        array = trace.array.copy()
        if len(trace.qnames):
            remap = np.empty(len(trace.qnames), dtype=np.int32)
            for i, name in enumerate(trace.qnames):
                if name not in qname_ids:
                    qname_ids[name] = len(qnames)
                    qnames.append(name)
                remap[i] = qname_ids[name]
            has_name = array["dns_name_id"] >= 0
            array["dns_name_id"][has_name] = remap[array["dns_name_id"][has_name]]
        if len(trace.payloads):
            has_payload = array["payload_id"] >= 0
            array["payload_id"][has_payload] += len(payloads)
            payloads.extend(trace.payloads)
        arrays.append(array)
    array = np.concatenate(arrays)
    order = np.argsort(array["ts"], kind="stable")
    return Trace(array[order], qnames, payloads)


def _piece(ts, qnames, name_ids, payloads, payload_ids, sips=None):
    """A read-only trace: merging must not write its pieces."""
    array = np.zeros(len(ts), dtype=TRACE_DTYPE)
    array["ts"] = ts
    array["sip"] = np.arange(len(ts)) if sips is None else sips
    array["dns_name_id"] = name_ids
    array["payload_id"] = payload_ids
    array.flags.writeable = False
    return Trace(array, list(qnames), list(payloads))


@st.composite
def merge_piece(draw):
    """A piece with few distinct timestamps (ties), in any order, listing
    any subset of a shared name pool in any order, with a few payloads."""
    count = draw(st.integers(min_value=0, max_value=12))
    qnames = draw(st.lists(st.sampled_from(["a.com", "b.net", "c.org", "d.io"]),
                           unique=True, max_size=4))
    payloads = draw(st.lists(st.binary(max_size=4), max_size=3))

    def column(values):
        return draw(st.lists(values, min_size=count, max_size=count))

    return _piece(
        ts=column(st.integers(min_value=0, max_value=4).map(float)),
        qnames=qnames,
        name_ids=column(st.integers(min_value=-1, max_value=len(qnames) - 1)),
        payloads=payloads,
        payload_ids=column(st.integers(min_value=-1, max_value=len(payloads) - 1)),
        sips=column(st.integers(min_value=0, max_value=0xFFFFFFFF)),
    )


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

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(merge_piece(), max_size=5))
    def test_merge_equals_concatenate_then_stable_sort(self, traces):
        self._check(traces)

    def test_merge_covers_every_case_at_once(self):
        """Unsorted pieces, ties within and across pieces, an empty piece,
        the largest piece last, names shared in another order (a remap that
        is not the identity) and payloads on two pieces, all read-only."""
        first = _piece([3.0, 1.0, 1.0], ["a.com", "b.net"], [1, -1, 0], [b"x"], [0, -1, -1])
        second = _piece([1.0, 2.0], ["c.org"], [0, -1], [], [-1, -1])
        last = _piece(
            [0.0, 1.0, 1.0, 3.0, 4.0], ["b.net", "a.com"], [0, 1, -1, 0, 1],
            [b"y", b"zz"], [1, -1, 0, -1, -1],
        )
        merged = self._check([first, Trace.empty(), second, last])
        assert merged.qnames == ["a.com", "b.net", "c.org"]
        assert merged.payloads == [b"x", b"y", b"zz"]

    @staticmethod
    def _check(traces):
        before = [trace.array.tobytes() for trace in traces]
        merged = Trace.merge(traces)
        expected = _concatenate_then_sort(traces)
        assert merged.array.tobytes() == expected.array.tobytes()
        assert merged.qnames == expected.qnames
        assert merged.payloads == expected.payloads
        assert [trace.array.tobytes() for trace in traces] == before
        return merged


class TestColumns:
    def test_column_view(self):
        trace = Trace.from_packets(make_packets())
        assert list(trace.column("ipv4.sIP")) == list(range(10))

    def test_columns_cover_registry(self):
        from repro.core.fields import FIELDS

        trace = Trace.from_packets(make_packets())
        columns = trace.columns()
        assert set(columns) == set(FIELDS.names())

    def test_record_layout_is_packed(self):
        # Generation fills np.empty records field by field: with no padding
        # bytes, that writes every byte of every record.
        sizes = sum(TRACE_DTYPE[name].itemsize for name in TRACE_DTYPE.names)
        assert TRACE_DTYPE.itemsize == sizes == 38

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TraceFormatError):
            Trace(np.zeros(3, dtype=np.int64))

    def test_duration(self):
        trace = Trace.from_packets(make_packets(5))
        assert trace.duration == pytest.approx(4.0)
        assert Trace.empty().duration == 0.0
