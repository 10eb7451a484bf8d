"""``repro.obs`` — metrics, tracing and profiling for the Sonata pipeline.

Three pillars (DESIGN.md §9):

- **metrics** (:mod:`repro.obs.metrics`): :class:`Counter`,
  :class:`Gauge`, :class:`Histogram` with fixed log-scaled buckets,
  labelled by query id / refinement level / switch scope / pipeline stage;
- **tracing** (:mod:`repro.obs.tracing`): hierarchical wall-clock spans
  per window and per stage, plus structured events (fault injections,
  fallbacks, retrain signals);
- **exporters** (:mod:`repro.obs.exporters`): Prometheus text snapshot,
  JSON-lines span/event file, end-of-run console summary.

The front door is :class:`Observability` — one instance per run, threaded
through every pipeline component. The module-level default is
:data:`NULL_OBS`, a no-op whose ``span()``/``inc()``/``event()`` calls
cost one attribute lookup and an empty method body, so instrumentation is
free when disabled (< 2% on ``bench_micro``; enforced by
``benchmarks/bench_pipeline.py``). Enable globally with
:func:`set_observability` (the CLI does this for ``--metrics-out`` /
``--trace-out``) or per-component via the ``obs=`` keyword.

Span taxonomy (names are stable API — dashboards key on them)::

    run                         one SonataRuntime.run / NetworkRuntime.run
      window                    one window (attrs: index, packets, scope)
        stage.switch            data-plane packet loop + register dumps
          wire_check            one mirrored batch's wire round trip
        stage.emitter           batch assembly + collision adjustment
        stage.stream_processor  residual operators per instance
        stage.refine            join assembly + filter-table feedback
          filter_update         one dynamic filter-table update
      stage.collector_merge     network-wide collector merge (per window)
    planner.estimate_costs      one-shot: trace-driven cost estimation
                                (attrs: chain_runs, derived_transitions)
    planner.solve               one-shot: ILP/greedy plan solve
    trace.load / trace.save     one-shot: trace (de)serialization
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_TIME_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
    log_buckets,
)
from repro.obs.tracing import EventRecord, Span, SpanRecord, Tracer

__all__ = [
    "Observability",
    "NULL_OBS",
    "get_observability",
    "set_observability",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Tracer",
    "Span",
    "SpanRecord",
    "EventRecord",
    "log_buckets",
    "DEFAULT_TIME_BUCKETS",
    "DEFAULT_COUNT_BUCKETS",
]


class Observability:
    """Facade bundling one metrics registry and one tracer."""

    enabled = True

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.tracer = Tracer()

    # -- metrics -------------------------------------------------------------
    def counter(self, name: str, help: str = "") -> Counter:
        return self.registry.counter(name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self.registry.gauge(name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return self.registry.histogram(name, help, buckets)

    def snapshot(self) -> MetricsSnapshot:
        return self.registry.snapshot()

    # -- tracing -------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        return self.tracer.span(name, **attrs)

    def event(self, name: str, **attrs: Any) -> None:
        self.tracer.event(name, **attrs)


class _NullSpan:
    """Reusable do-nothing span: the disabled-path context manager."""

    __slots__ = ()
    duration = 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **attrs: Any) -> None:
        pass


class _NullMetric:
    """Accepts any Counter/Gauge/Histogram write and reads back zero."""

    __slots__ = ()
    name = "null"
    help = ""
    kind = "null"
    buckets = DEFAULT_TIME_BUCKETS

    def inc(self, amount: float = 1, **labels: Any) -> None:
        pass

    def set(self, value: float, **labels: Any) -> None:
        pass

    def add(self, amount: float, **labels: Any) -> None:
        pass

    def observe(self, value: float, **labels: Any) -> None:
        pass

    def value(self, **labels: Any) -> float:
        return 0

    def total(self) -> float:
        return 0

    def count(self, **labels: Any) -> int:
        return 0

    def sum(self, **labels: Any) -> float:
        return 0.0

    def mean(self, **labels: Any) -> float:
        return 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        return 0.0

    def label_sets(self) -> list:
        return []


_NULL_SPAN = _NullSpan()
_NULL_METRIC = _NullMetric()


class NullObservability(Observability):
    """The disabled fast path: every handle is a shared no-op singleton."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str, help: str = "") -> Counter:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "") -> Gauge:  # type: ignore[override]
        return _NULL_METRIC  # type: ignore[return-value]

    def histogram(  # type: ignore[override]
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
    ) -> Histogram:
        return _NULL_METRIC  # type: ignore[return-value]

    def span(self, name: str, **attrs: Any) -> Span:  # type: ignore[override]
        return _NULL_SPAN  # type: ignore[return-value]

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot()


#: Shared disabled instance — the default everywhere.
NULL_OBS = NullObservability()

_GLOBAL_OBS: Observability = NULL_OBS


def get_observability() -> Observability:
    """The process-wide default used when no explicit ``obs=`` is passed."""
    return _GLOBAL_OBS


def set_observability(obs: "Observability | None") -> Observability:
    """Install (or, with ``None``, clear) the process-wide default."""
    global _GLOBAL_OBS
    _GLOBAL_OBS = obs if obs is not None else NULL_OBS
    return _GLOBAL_OBS
