"""Hierarchical wall-clock trace spans and structured events.

A :class:`Tracer` keeps a stack of open spans (the pipeline is
single-threaded per runtime) so nesting is implicit: the window span that
``SonataRuntime.run`` opens for each window parents the per-stage spans,
which parent e.g. individual filter-table updates. Durations come from
``time.perf_counter`` (monotonic, sub-microsecond); the ``ts`` field is
``time.time`` so exported spans line up with external logs.

Events are point-in-time structured records — fault injections, fallback
decisions, retrain signals — attached to the innermost open span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

#: Soft cap on retained spans+events: long runs keep the first N and count
#: the overflow instead of growing without bound (a 10k-window soak run is
#: an exporter problem, not an OOM problem).
DEFAULT_MAX_RECORDS = 200_000


@dataclass
class SpanRecord:
    """One finished span."""

    name: str
    span_id: int
    parent_id: "int | None"
    ts: float  # wall clock at start (time.time)
    duration: float  # seconds (perf_counter delta)
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "ts": self.ts,
            "duration_s": self.duration,
            "attrs": self.attrs,
        }


@dataclass
class EventRecord:
    """One structured point-in-time event."""

    name: str
    ts: float
    span_id: "int | None"
    attrs: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "type": "event",
            "name": self.name,
            "ts": self.ts,
            "span_id": self.span_id,
            "attrs": self.attrs,
        }


class Span:
    """An open span; use as a context manager via :meth:`Tracer.span`."""

    __slots__ = (
        "tracer",
        "name",
        "span_id",
        "parent_id",
        "attrs",
        "duration",
        "_t0",
        "_ts",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: "int | None",
        attrs: dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs
        #: Seconds; populated on ``__exit__`` so callers can reuse the
        #: measured time (e.g. to feed a stage-latency histogram).
        self.duration = 0.0
        self._t0 = 0.0
        self._ts = 0.0

    def set_attribute(self, key: str, value: Any) -> "Span":
        self.attrs[key] = value
        return self

    def event(self, name: str, **attrs: Any) -> None:
        self.tracer._record_event(name, self.span_id, attrs)

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration = time.perf_counter() - self._t0
        if exc_type is not None:
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self, self.duration)
        return False


class Tracer:
    """Collects finished spans and events for one observability context."""

    def __init__(self, max_records: int = DEFAULT_MAX_RECORDS) -> None:
        self.max_records = max_records
        self.spans: list[SpanRecord] = []
        self.events: list[EventRecord] = []
        self.dropped = 0
        self._stack: list[Span] = []
        self._next_id = 1

    # -- span lifecycle -----------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1].span_id if self._stack else None
        return Span(self, name, span_id, parent, dict(attrs))

    def _push(self, span: Span) -> None:
        self._stack.append(span)

    def _pop(self, span: Span, duration: float) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # pragma: no cover - misnested exit
            self._stack.remove(span)
        if len(self.spans) + len(self.events) >= self.max_records:
            self.dropped += 1
            return
        self.spans.append(
            SpanRecord(
                name=span.name,
                span_id=span.span_id,
                parent_id=span.parent_id,
                ts=span._ts,
                duration=duration,
                attrs=span.attrs,
            )
        )

    # -- events ---------------------------------------------------------------
    def event(self, name: str, **attrs: Any) -> None:
        """Record an event attached to the innermost open span (if any)."""
        parent = self._stack[-1].span_id if self._stack else None
        self._record_event(name, parent, attrs)

    def _record_event(self, name: str, span_id: "int | None", attrs: dict) -> None:
        if len(self.spans) + len(self.events) >= self.max_records:
            self.dropped += 1
            return
        self.events.append(
            EventRecord(name=name, ts=time.time(), span_id=span_id, attrs=attrs)
        )

    # -- cross-process merge ---------------------------------------------------
    def absorb(
        self,
        spans: "list[SpanRecord]",
        events: "list[EventRecord]",
        dropped: int = 0,
    ) -> None:
        """Fold another tracer's finished records into this one.

        Span ids are re-based past this tracer's counter so they stay
        unique; incoming root spans (``parent_id is None``) are attached
        to the currently open span, so a worker's ``run`` span nests under
        the parent's network-level span exactly as it would in-process.
        """
        if not spans and not events:
            self.dropped += dropped
            return
        offset = self._next_id
        top = self._stack[-1].span_id if self._stack else None
        for record in spans:
            new_parent = (
                top if record.parent_id is None else record.parent_id + offset
            )
            if len(self.spans) + len(self.events) >= self.max_records:
                self.dropped += 1
                continue
            self.spans.append(
                SpanRecord(
                    name=record.name,
                    span_id=record.span_id + offset,
                    parent_id=new_parent,
                    ts=record.ts,
                    duration=record.duration,
                    attrs=dict(record.attrs),
                )
            )
        for record in events:
            new_parent = (
                top if record.span_id is None else record.span_id + offset
            )
            if len(self.spans) + len(self.events) >= self.max_records:
                self.dropped += 1
                continue
            self.events.append(
                EventRecord(
                    name=record.name,
                    ts=record.ts,
                    span_id=new_parent,
                    attrs=dict(record.attrs),
                )
            )
        self.dropped += dropped
        max_id = max(r.span_id for r in spans) if spans else 0
        self._next_id = max(self._next_id, max_id + offset + 1)

    # -- aggregation ----------------------------------------------------------
    def durations_by_name(self) -> dict[str, list[float]]:
        """All finished-span durations grouped by span name."""
        out: dict[str, list[float]] = {}
        for record in self.spans:
            out.setdefault(record.name, []).append(record.duration)
        return out

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def events_named(self, name: str) -> list[EventRecord]:
        return [e for e in self.events if e.name == name]

    def children_of(self, span_id: int) -> list[SpanRecord]:
        return [s for s in self.spans if s.parent_id == span_id]

    def records(self) -> "list[SpanRecord | EventRecord]":
        """Spans and events merged in timestamp order (for the exporter)."""
        return sorted(self.spans + self.events, key=lambda r: r.ts)
