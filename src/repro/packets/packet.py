"""Single-packet model with dotted-field access.

:class:`Packet` is the per-packet view used by the switch simulator, the
emitter, and tests. Bulk processing uses the columnar :class:`~repro.packets.
trace.Trace` instead; the two are interconvertible and a tested invariant
keeps their field values identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.errors import QueryValidationError
from repro.core.fields import PROTO_TCP, PROTO_UDP


@dataclass(frozen=True)
class DNSInfo:
    """Parsed DNS summary carried by DNS packets."""

    qname: str = ""
    qtype: int = 1  # A record
    ancount: int = 0
    qr: int = 0  # 0 = query, 1 = response


@dataclass
class Packet:
    """One packet, with the fields the Table 3 queries consume.

    IP addresses are 32-bit ints (see :mod:`repro.utils.iputil`); ``tcpflags``
    holds the TCP flag byte (0 for non-TCP packets); ``payload`` is None for
    payload-less traces (CAIDA traces carry no payloads — only attack traffic
    synthesized locally has them).
    """

    ts: float = 0.0
    pktlen: int = 64
    proto: int = PROTO_TCP
    sip: int = 0
    dip: int = 0
    sport: int = 0
    dport: int = 0
    tcpflags: int = 0
    ttl: int = 64
    dns: DNSInfo | None = None
    payload: bytes | None = None

    def get(self, field_name: str) -> Any:
        """Resolve a dotted query-field name (e.g. ``"ipv4.dIP"``)."""
        try:
            return _ACCESSORS[field_name](self)
        except KeyError:
            raise QueryValidationError(f"unknown packet field {field_name!r}") from None

    @property
    def is_tcp(self) -> bool:
        return self.proto == PROTO_TCP

    @property
    def is_udp(self) -> bool:
        return self.proto == PROTO_UDP


def _dns_attr(attr: str, default: Any) -> Any:
    def getter(pkt: Packet) -> Any:
        return getattr(pkt.dns, attr) if pkt.dns is not None else default

    return getter


_ACCESSORS = {
    "ts": lambda p: p.ts,
    "pktlen": lambda p: p.pktlen,
    "ipv4.sIP": lambda p: p.sip,
    "ipv4.dIP": lambda p: p.dip,
    "ipv4.proto": lambda p: p.proto,
    "ipv4.ttl": lambda p: p.ttl,
    "tcp.sPort": lambda p: p.sport,
    "tcp.dPort": lambda p: p.dport,
    "tcp.flags": lambda p: p.tcpflags,
    "udp.sPort": lambda p: p.sport,
    "udp.dPort": lambda p: p.dport,
    "dns.rr.name": _dns_attr("qname", ""),
    "dns.qtype": _dns_attr("qtype", 0),
    "dns.ancount": _dns_attr("ancount", 0),
    "dns.qr": _dns_attr("qr", 0),
    "payload": lambda p: p.payload if p.payload is not None else b"",
}
