"""Tests for the pcap reader/writer."""

import struct

import numpy as np
import pytest

from repro.core.errors import TraceFormatError
from repro.packets.packet import DNSInfo, Packet
from repro.packets.pcap import build_frame, parse_frame, read_pcap, write_pcap


def sample_packets():
    return [
        Packet(ts=1.5, pktlen=60, proto=6, sip=0x0A000001, dip=0x0B000002,
               sport=1234, dport=80, tcpflags=0x12, ttl=61),
        Packet(ts=2.25, pktlen=80, proto=17, sip=0x01020304, dip=0x05060708,
               sport=5353, dport=53, dns=DNSInfo("www.example.com", 1, 0, 0)),
        Packet(ts=3.0, pktlen=120, proto=6, sip=1, dip=2, sport=3, dport=23,
               tcpflags=0x18, payload=b"login: zorro"),
    ]


class TestFrames:
    def test_tcp_roundtrip(self):
        pkt = sample_packets()[0]
        parsed = parse_frame(build_frame(pkt), ts=pkt.ts, orig_len=pkt.pktlen)
        assert parsed == pkt

    def test_payload_roundtrip(self):
        pkt = sample_packets()[2]
        parsed = parse_frame(build_frame(pkt), ts=pkt.ts, orig_len=pkt.pktlen)
        assert parsed.payload == b"login: zorro"

    def test_dns_roundtrip(self):
        pkt = sample_packets()[1]
        parsed = parse_frame(build_frame(pkt), ts=pkt.ts, orig_len=pkt.pktlen)
        assert parsed.dns is not None
        assert parsed.dns.qname == "www.example.com"
        assert parsed.dns.qr == 0

    def test_non_ipv4_skipped(self):
        frame = b"\x00" * 12 + struct.pack(">H", 0x86DD) + b"\x00" * 40
        assert parse_frame(frame, ts=0.0) is None

    def test_short_frame_skipped(self):
        assert parse_frame(b"\x00" * 10, ts=0.0) is None


class TestFiles:
    def test_write_read_roundtrip(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        count = write_pcap(path, sample_packets())
        assert count == 3
        trace = read_pcap(path)
        assert len(trace) == 3
        restored = list(trace.packets())
        assert restored[0].sip == 0x0A000001
        assert restored[2].payload == b"login: zorro"
        assert restored[1].dns.qname == "www.example.com"

    def test_timestamps_preserved_to_microseconds(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        write_pcap(path, sample_packets())
        trace = read_pcap(path)
        assert trace.array["ts"][0] == pytest.approx(1.5, abs=1e-6)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pcap"
        path.write_bytes(b"\x00" * 24)
        with pytest.raises(TraceFormatError):
            read_pcap(str(path))

    def test_truncated_record_rejected(self, tmp_path):
        path = str(tmp_path / "t.pcap")
        write_pcap(path, sample_packets())
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-5])
        with pytest.raises(TraceFormatError):
            read_pcap(path)

    def test_generator_trace_through_pcap(self, tmp_path, backbone_small):
        sub = backbone_small.slice(slice(0, 200))
        path = str(tmp_path / "bb.pcap")
        write_pcap(path, sub.packets())
        back = read_pcap(path)
        assert len(back) == 200
        for a, b in zip(sub.packets(), back.packets()):
            assert (a.sip, a.dip, a.sport, a.dport, a.proto) == (
                b.sip, b.dip, b.sport, b.dport, b.proto
            )

    def test_out_of_order_records_come_back_sorted(self, tmp_path, backbone_small):
        """A capture with two records swapped reads back in time order, so
        the trace splits into windows."""
        packets = list(backbone_small.slice(slice(0, 20)).packets())
        packets[10], packets[11] = packets[11], packets[10]
        assert packets[10].ts > packets[11].ts
        path = str(tmp_path / "swapped.pcap")
        write_pcap(path, packets)
        trace = read_pcap(path)
        assert (np.diff(trace.array["ts"]) >= 0).all()
        assert [p.sip for p in trace.packets()][10:12] == [packets[11].sip, packets[10].sip]
        assert sum(len(window) for _, window in trace.windows(1.0)) == 20
