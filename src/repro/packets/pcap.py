"""Minimal libpcap-format reader/writer.

Lets the library ingest real capture files (the paper's workflow starts
from CAIDA pcaps) and emit synthetic traces as pcaps for inspection with
standard tools. Supports classic pcap (magic 0xa1b2c3d4, microsecond
timestamps) with Ethernet link type, IPv4, TCP/UDP; other packets are
skipped on read.

Only the fields the Table 3 queries consume are preserved round-trip; DNS
summaries are encoded in a minimal (but well-formed) DNS header + QNAME.
"""

from __future__ import annotations

import struct
from collections.abc import Iterator

from repro.core.errors import TraceFormatError
from repro.core.fields import PROTO_TCP, PROTO_UDP
from repro.packets.packet import DNSInfo, Packet
from repro.packets.trace import Trace

_PCAP_MAGIC = 0xA1B2C3D4
_LINKTYPE_ETHERNET = 1
_ETHERTYPE_IPV4 = 0x0800

_GLOBAL_HEADER = struct.Struct("<IHHiIII")
_RECORD_HEADER = struct.Struct("<IIII")


def _encode_dns(dns: DNSInfo) -> bytes:
    """A minimal DNS message: header + question with the qname."""
    flags = 0x8180 if dns.qr else 0x0100
    header = struct.pack(">HHHHHH", 0x1234, flags, 1, dns.ancount, 0, 0)
    qname = b""
    for label in dns.qname.split("."):
        if not label:
            continue
        encoded = label.encode("idna") if label.isascii() else label.encode("utf-8")
        qname += bytes([len(encoded)]) + encoded
    qname += b"\x00"
    question = qname + struct.pack(">HH", dns.qtype, 1)
    return header + question


def _decode_dns(data: bytes) -> DNSInfo | None:
    if len(data) < 12:
        return None
    _, flags, qdcount, ancount, _, _ = struct.unpack(">HHHHHH", data[:12])
    qr = (flags >> 15) & 1
    qname_labels = []
    offset = 12
    qtype = 0
    if qdcount:
        while offset < len(data):
            length = data[offset]
            offset += 1
            if length == 0:
                break
            qname_labels.append(data[offset : offset + length].decode("ascii", "replace"))
            offset += length
        if offset + 4 <= len(data):
            qtype = struct.unpack(">H", data[offset : offset + 2])[0]
    return DNSInfo(qname=".".join(qname_labels), qtype=qtype, ancount=ancount, qr=qr)


def build_frame(pkt: Packet) -> bytes:
    """Serialize a :class:`Packet` into an Ethernet/IPv4/L4 frame."""
    if pkt.proto == PROTO_TCP:
        payload = pkt.payload or b""
        l4 = struct.pack(
            ">HHIIBBHHH",
            pkt.sport,
            pkt.dport,
            0,  # seq
            0,  # ack
            5 << 4,  # data offset
            pkt.tcpflags,
            8192,  # window
            0,  # checksum (not computed; see module docstring)
            0,  # urgent
        ) + payload
    elif pkt.proto == PROTO_UDP:
        body = _encode_dns(pkt.dns) if pkt.dns is not None else (pkt.payload or b"")
        l4 = struct.pack(">HHHH", pkt.sport, pkt.dport, 8 + len(body), 0) + body
    else:
        l4 = pkt.payload or b""
    total_len = 20 + len(l4)
    ip = struct.pack(
        ">BBHHHBBHII",
        (4 << 4) | 5,  # version + IHL
        0,
        total_len,
        0,
        0,
        pkt.ttl,
        pkt.proto,
        0,
        pkt.sip,
        pkt.dip,
    )
    eth = b"\x02\x00\x00\x00\x00\x02" + b"\x02\x00\x00\x00\x00\x01" + struct.pack(
        ">H", _ETHERTYPE_IPV4
    )
    return eth + ip + l4


def parse_frame(frame: bytes, ts: float, orig_len: int | None = None) -> Packet | None:
    """Parse an Ethernet frame into a :class:`Packet` (None if unsupported)."""
    if len(frame) < 14 + 20:
        return None
    ethertype = struct.unpack(">H", frame[12:14])[0]
    if ethertype != _ETHERTYPE_IPV4:
        return None
    ip = frame[14:]
    version_ihl = ip[0]
    if version_ihl >> 4 != 4:
        return None
    ihl = (version_ihl & 0xF) * 4
    total_len, = struct.unpack(">H", ip[2:4])
    ttl, proto = ip[8], ip[9]
    sip, dip = struct.unpack(">II", ip[12:20])
    l4 = ip[ihl:total_len] if total_len >= ihl else ip[ihl:]
    sport = dport = tcpflags = 0
    dns = None
    payload: bytes | None = None
    if proto == PROTO_TCP and len(l4) >= 20:
        sport, dport = struct.unpack(">HH", l4[:4])
        data_offset = (l4[12] >> 4) * 4
        tcpflags = l4[13]
        body = l4[data_offset:]
        payload = body if body else None
    elif proto == PROTO_UDP and len(l4) >= 8:
        sport, dport = struct.unpack(">HH", l4[:4])
        body = l4[8:]
        if 53 in (sport, dport) and body:
            dns = _decode_dns(body)
        elif body:
            payload = body
    return Packet(
        ts=ts,
        pktlen=orig_len if orig_len is not None else len(frame),
        proto=proto,
        sip=sip,
        dip=dip,
        sport=sport,
        dport=dport,
        tcpflags=tcpflags,
        ttl=ttl,
        dns=dns,
        payload=payload,
    )


def write_pcap(path: str, packets: "Iterator[Packet] | list[Packet]") -> int:
    """Write packets to a classic pcap file; returns the packet count."""
    count = 0
    with open(path, "wb") as fh:
        fh.write(
            _GLOBAL_HEADER.pack(
                _PCAP_MAGIC, 2, 4, 0, 0, 65535, _LINKTYPE_ETHERNET
            )
        )
        for pkt in packets:
            frame = build_frame(pkt)
            seconds = int(pkt.ts)
            micros = int(round((pkt.ts - seconds) * 1e6))
            fh.write(
                _RECORD_HEADER.pack(seconds, micros, len(frame), max(pkt.pktlen, len(frame)))
            )
            fh.write(frame)
            count += 1
    return count


def read_pcap(path: str) -> Trace:
    """Read a classic pcap file into a :class:`Trace` (skipping non-IPv4).

    Captures may hold records out of time order (merged or multi-queue
    captures); the trace comes back stably sorted by timestamp."""
    packets: list[Packet] = []
    with open(path, "rb") as fh:
        header = fh.read(_GLOBAL_HEADER.size)
        if len(header) < _GLOBAL_HEADER.size:
            raise TraceFormatError(f"{path}: truncated pcap global header")
        magic = struct.unpack("<I", header[:4])[0]
        if magic != _PCAP_MAGIC:
            raise TraceFormatError(f"{path}: unsupported pcap magic {magic:#x}")
        linktype = _GLOBAL_HEADER.unpack(header)[6]
        if linktype != _LINKTYPE_ETHERNET:
            raise TraceFormatError(f"{path}: unsupported link type {linktype}")
        while True:
            record = fh.read(_RECORD_HEADER.size)
            if not record:
                break
            if len(record) < _RECORD_HEADER.size:
                raise TraceFormatError(f"{path}: truncated record header")
            seconds, micros, caplen, origlen = _RECORD_HEADER.unpack(record)
            frame = fh.read(caplen)
            if len(frame) < caplen:
                raise TraceFormatError(f"{path}: truncated packet record")
            pkt = parse_frame(frame, ts=seconds + micros / 1e6, orig_len=origlen)
            if pkt is not None:
                packets.append(pkt)
    return Trace.from_packets(packets).sorted_by_time()
