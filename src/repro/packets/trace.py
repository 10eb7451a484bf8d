"""Columnar packet traces.

A :class:`Trace` stores packets in a numpy structured array plus two side
tables (DNS names and payload bytes, both referenced by integer id). The
columnar layout is what makes the planner's trace-driven cost estimation
(Section 3.3: the planner "applies all of the packets in the historical
traces to each query") fast enough in pure Python; the per-packet engines
iterate over the same storage through :meth:`Trace.packets`.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Iterator

import numpy as np

from repro.core.errors import TraceFormatError
from repro.core.fields import FIELDS, FieldRegistry
from repro.packets.packet import DNSInfo, Packet

#: Columnar layout. dns_name_id / payload_id are -1 when absent.
TRACE_DTYPE = np.dtype(
    [
        ("ts", np.float64),
        ("pktlen", np.uint16),
        ("proto", np.uint8),
        ("sip", np.uint32),
        ("dip", np.uint32),
        ("sport", np.uint16),
        ("dport", np.uint16),
        ("tcpflags", np.uint8),
        ("ttl", np.uint8),
        ("dns_qtype", np.uint16),
        ("dns_ancount", np.uint16),
        ("dns_qr", np.uint8),
        ("dns_name_id", np.int32),
        ("payload_id", np.int32),
    ]
)

_MAGIC = b"SONTRACE"
_VERSION = 2


class Trace:
    """An ordered packet trace in columnar form."""

    def __init__(
        self,
        array: np.ndarray,
        qnames: list[str] | None = None,
        payloads: list[bytes] | None = None,
    ) -> None:
        if array.dtype != TRACE_DTYPE:
            raise TraceFormatError(
                f"trace array has dtype {array.dtype}, expected TRACE_DTYPE"
            )
        self.array = array
        self.qnames: list[str] = qnames if qnames is not None else []
        self.payloads: list[bytes] = payloads if payloads is not None else []

    # -- basics ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.array)

    @property
    def duration(self) -> float:
        if len(self.array) == 0:
            return 0.0
        return float(self.array["ts"][-1] - self.array["ts"][0])

    @property
    def start_ts(self) -> float:
        return float(self.array["ts"][0]) if len(self.array) else 0.0

    def column(self, field_name: str) -> np.ndarray:
        """Return the column for a dotted query-field name."""
        spec = FIELDS.get(field_name)
        return self.array[spec.column]

    def strings(self, column: str) -> list:
        """The value table that the ids of string column ``column`` index."""
        return {"dns_name_id": self.qnames, "payload_id": self.payloads}[column]

    def columns(self, registry: FieldRegistry = FIELDS) -> dict[str, np.ndarray]:
        """All registered fields as a name -> column mapping (views)."""
        return {name: self.array[registry.get(name).column] for name in registry.names()}

    # -- construction ------------------------------------------------------
    @staticmethod
    def empty() -> "Trace":
        return Trace(np.empty(0, dtype=TRACE_DTYPE))

    @staticmethod
    def from_packets(packets: "list[Packet] | Iterator[Packet]") -> "Trace":
        packets = list(packets)
        array = np.zeros(len(packets), dtype=TRACE_DTYPE)
        qnames: list[str] = []
        qname_ids: dict[str, int] = {}
        payloads: list[bytes] = []
        array["dns_name_id"] = -1
        array["payload_id"] = -1
        for i, pkt in enumerate(packets):
            row = array[i]
            row["ts"] = pkt.ts
            row["pktlen"] = pkt.pktlen
            row["proto"] = pkt.proto
            row["sip"] = pkt.sip
            row["dip"] = pkt.dip
            row["sport"] = pkt.sport
            row["dport"] = pkt.dport
            row["tcpflags"] = pkt.tcpflags
            row["ttl"] = pkt.ttl
            if pkt.dns is not None:
                row["dns_qtype"] = pkt.dns.qtype
                row["dns_ancount"] = pkt.dns.ancount
                row["dns_qr"] = pkt.dns.qr
                if pkt.dns.qname:
                    if pkt.dns.qname not in qname_ids:
                        qname_ids[pkt.dns.qname] = len(qnames)
                        qnames.append(pkt.dns.qname)
                    row["dns_name_id"] = qname_ids[pkt.dns.qname]
            if pkt.payload is not None:
                row["payload_id"] = len(payloads)
                payloads.append(pkt.payload)
        return Trace(array, qnames, payloads)

    def packet(self, index: int) -> Packet:
        """Materialize packet ``index`` as a :class:`Packet`."""
        return next(Trace(self.array[[index]], self.qnames, self.payloads).packets())

    def packets(self) -> Iterator[Packet]:
        """Iterate packets in order (materializing each).

        Columns are converted to Python lists once up front and the DNS
        side table is only consulted for rows that actually carry DNS
        data, so the per-packet work is a plain ``Packet`` construction.
        """
        array = self.array
        if not len(array):
            return
        ts = array["ts"].tolist()
        pktlen = array["pktlen"].tolist()
        proto = array["proto"].tolist()
        sip = array["sip"].tolist()
        dip = array["dip"].tolist()
        sport = array["sport"].tolist()
        dport = array["dport"].tolist()
        tcpflags = array["tcpflags"].tolist()
        ttl = array["ttl"].tolist()
        name_id = array["dns_name_id"].tolist()
        qtype = array["dns_qtype"].tolist()
        ancount = array["dns_ancount"].tolist()
        qr = array["dns_qr"].tolist()
        payload_id = array["payload_id"].tolist()
        qnames = self.qnames
        payloads = self.payloads
        for i in range(len(ts)):
            nid = name_id[i]
            if nid >= 0 or qr[i] or ancount[i] or qtype[i]:
                dns = DNSInfo(
                    qname=qnames[nid] if nid >= 0 else "",
                    qtype=qtype[i],
                    ancount=ancount[i],
                    qr=qr[i],
                )
            else:
                dns = None
            pid = payload_id[i]
            yield Packet(
                ts=ts[i],
                pktlen=pktlen[i],
                proto=proto[i],
                sip=sip[i],
                dip=dip[i],
                sport=sport[i],
                dport=dport[i],
                tcpflags=tcpflags[i],
                ttl=ttl[i],
                dns=dns,
                payload=payloads[pid] if pid >= 0 else None,
            )

    # -- transformation ----------------------------------------------------
    def sorted_by_time(self) -> "Trace":
        order = np.argsort(self.array["ts"], kind="stable")
        return Trace(np.take(self.array, order), self.qnames, self.payloads)

    def slice(self, rows: "np.ndarray | slice") -> "Trace":
        """Rows by mask or indices (``np.compress``/``np.take``: far faster than
        fancy indexing on records) or ``slice`` (a view); side tables shared."""
        if isinstance(rows, slice):
            return Trace(self.array[rows], self.qnames, self.payloads)
        rows = np.asarray(rows)
        if rows.dtype == bool:
            return Trace(np.compress(rows, self.array), self.qnames, self.payloads)
        return Trace(np.take(self.array, rows), self.qnames, self.payloads)

    def time_range(self, start: float, end: float) -> "Trace":
        ts = self.array["ts"]
        return self.slice((ts >= start) & (ts < end))

    def windows(self, width: float, origin: float | None = None) -> Iterator[tuple[float, "Trace"]]:
        """Yield ``(window_start, sub_trace)`` tumbling windows of ``width``.

        Windows are aligned to ``origin`` (default: trace start). Empty
        trailing windows are not emitted; empty interior windows are, so
        the runtime sees every window boundary. Each window holds the
        packets of :meth:`time_range` and is a view found by binary
        search, so the trace must be ordered by time
        (:class:`~repro.core.errors.TraceFormatError` otherwise).
        """
        if width <= 0:
            raise ValueError("window width must be positive")
        if len(self.array) == 0:
            return
        # One contiguous copy: searching the strided field view would copy
        # it on every call.
        ts = np.ascontiguousarray(self.array["ts"])
        decreasing = np.flatnonzero(ts[1:] < ts[:-1])
        if len(decreasing):
            raise TraceFormatError(
                f"trace is not ordered by time: packet {decreasing[0] + 1} "
                "is earlier than the one before it (see Trace.sorted_by_time)"
            )
        base = float(ts[0]) if origin is None else origin
        last = float(ts[-1])
        start = base
        while start <= last:
            end = start + width
            lo, hi = np.searchsorted(ts, (start, end), side="left")
            yield start, Trace(self.array[lo:hi], self.qnames, self.payloads)
            start = end

    @staticmethod
    def merge(traces: "list[Trace]") -> "Trace":
        """Interleave traces by time into a new trace with merged side tables.

        Rows come out as a stable sort of the concatenated pieces would
        order them: by ``ts``, ties in piece order, then in row order. A
        piece not ordered by time is sorted first. There is no global sort
        and no piece is copied or written: each piece but the largest finds
        its rows' slots by binary search against the others, and the largest
        fills the remaining slots in order. Beyond inputs and output, memory
        holds the smaller pieces' slots and a byte per output row.
        """
        traces = [
            trace if _time_ordered(trace.array["ts"]) else trace.sorted_by_time()
            for trace in traces
            if len(trace)
        ]
        if not traces:
            return Trace.empty()
        largest = int(np.argmax([len(trace) for trace in traces]))
        slots = _merge_slots(traces, largest)
        array = np.empty(sum(len(t) for t in traces), dtype=TRACE_DTYPE)
        free = np.ones(len(array), dtype=bool)
        for trace, rows in zip(traces, slots):
            if rows is not None:
                np.put(array, rows, trace.array)
                free[rows] = False
        # As unstructured bytes the masked copy moves whole records at once
        # instead of field by field (twice as fast on a large piece).
        array.view(np.void)[free] = traces[largest].array.view(np.void)
        slots[largest] = free

        qname_ids: dict[str, int] = {}
        payloads: list[bytes] = []
        for trace, rows in zip(traces, slots):
            names = [qname_ids.setdefault(name, len(qname_ids)) for name in trace.qnames]
            _remap_ids(array["dns_name_id"], rows, np.array(names, dtype=np.int32))
            offsets = len(payloads) + np.arange(len(trace.payloads), dtype=np.int32)
            _remap_ids(array["payload_id"], rows, offsets)
            payloads.extend(trace.payloads)
        return Trace(array, list(qname_ids), payloads)

    # -- persistence --------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize to a compact single-file binary format."""
        from repro.obs import get_observability

        with get_observability().span("trace.save", path=path, packets=len(self)):
            self._save(path)

    def _save(self, path: str) -> None:
        header = {
            "version": _VERSION,
            "count": len(self.array),
            "qnames": self.qnames,
            "payload_sizes": [len(p) for p in self.payloads],
        }
        header_bytes = json.dumps(header).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(struct.pack("<I", len(header_bytes)))
            fh.write(header_bytes)
            fh.write(self.array.tobytes())
            for payload in self.payloads:
                fh.write(payload)

    @staticmethod
    def load(path: str) -> "Trace":
        from repro.obs import get_observability

        with get_observability().span("trace.load", path=path) as span:
            trace = Trace._load(path)
            span.set_attribute("packets", len(trace))
        return trace

    @staticmethod
    def _load(path: str) -> "Trace":
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise TraceFormatError(f"{path}: not a sonata trace file")
            (header_len,) = struct.unpack("<I", fh.read(4))
            header = json.loads(fh.read(header_len).decode("utf-8"))
            if header["version"] != _VERSION:
                raise TraceFormatError(
                    f"{path}: unsupported trace version {header['version']}"
                )
            count = header["count"]
            raw = fh.read(count * TRACE_DTYPE.itemsize)
            if len(raw) != count * TRACE_DTYPE.itemsize:
                raise TraceFormatError(f"{path}: truncated packet array")
            array = np.frombuffer(raw, dtype=TRACE_DTYPE).copy()
            payloads = []
            for size in header["payload_sizes"]:
                blob = fh.read(size)
                if len(blob) != size:
                    raise TraceFormatError(f"{path}: truncated payload table")
                payloads.append(blob)
        return Trace(array, list(header["qnames"]), payloads)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Trace(packets={len(self)}, duration={self.duration:.2f}s, "
            f"payloads={len(self.payloads)}, qnames={len(self.qnames)})"
        )


def _remap_ids(column: np.ndarray, rows: np.ndarray, remap: np.ndarray) -> None:
    """Rewrite side-table ids ``column[rows]`` through ``remap`` (-1 stays),
    unless ``remap`` is the identity."""
    if np.array_equal(remap, np.arange(len(remap))):
        return
    ids = column[rows]
    present = ids >= 0
    ids[present] = remap[ids[present]]
    column[rows] = ids


def _time_ordered(ts: np.ndarray) -> bool:
    return not (ts[1:] < ts[:-1]).any()


def _merge_slots(traces: "list[Trace]", largest: int) -> list:
    """Where a stable sort of the concatenated, time-ordered ``traces`` puts
    each row: one array of output slots per piece (``None`` for ``largest``).

    A row of piece ``i`` follows the rows of earlier pieces with equal or
    smaller ``ts`` (``side="right"``) and of later pieces with smaller
    ``ts`` (``side="left"``)."""
    times = [np.ascontiguousarray(trace.array["ts"]) for trace in traces]
    slots: list = []
    for index, ts in enumerate(times):
        if index == largest:
            slots.append(None)
            continue
        rows = np.arange(len(ts))
        for other, other_ts in enumerate(times):
            if other != index:
                side = "right" if other < index else "left"
                rows += np.searchsorted(other_ts, ts, side=side)
        slots.append(rows)
    return slots
