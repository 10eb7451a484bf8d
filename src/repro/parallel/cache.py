"""Content-addressed in-process trace cache.

Sweeps and benchmarks regenerate the same synthetic backbone dozens of
times — every Figure 7/8 cell, every ablation row and every chaos-harness
rate builds a workload from an identical :class:`BackboneConfig`. The
generator is deterministic in its config, so the trace is fully determined
by the config's *content*: this cache keys entries on a stable hash of the
config's fields (:func:`config_key`) and hands the same immutable trace
back on every hit.

Cached traces are shared, not copied: the packet array is marked
read-only. ``Trace.merge`` only reads its pieces and writes a new array
of its own, and ``anonymize`` copies before it rewrites addresses.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Any, Callable

from repro.obs import get_observability
from repro.packets.trace import Trace
from repro.utils.hashing import stable_hash

#: Bump when the generator's output changes for an unchanged config.
_KEY_VERSION = 1


def _freeze(value: Any):
    """Recursively convert a config value into a hashable literal."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    return value


def config_key(config: Any, salt: str = "") -> int:
    """Stable content hash of a (dataclass) generator config."""
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        fields = tuple(
            (f.name, _freeze(getattr(config, f.name)))
            for f in dataclasses.fields(config)
        )
    else:
        fields = _freeze(config)
    return stable_hash(
        (type(config).__name__, salt, repr(fields)), seed=_KEY_VERSION
    )


class TraceCache:
    """A small LRU of generated traces, keyed by config content."""

    def __init__(self, max_entries: int = 8) -> None:
        self.max_entries = max_entries
        self._entries: "OrderedDict[int, Trace]" = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: int) -> "Trace | None":
        trace = self._entries.get(key)
        obs = get_observability()
        if trace is None:
            self.misses += 1
            obs.counter(
                "sonata_trace_cache_misses_total", "trace-cache lookup misses"
            ).inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        obs.counter(
            "sonata_trace_cache_hits_total",
            "trace generations skipped by the content-addressed cache",
        ).inc()
        return self._share(trace)

    @staticmethod
    def _share(trace: Trace) -> Trace:
        # Share the immutable array; hand out fresh side-table lists so a
        # caller appending to them cannot corrupt the cached entry.
        return Trace(trace.array, list(trace.qnames), list(trace.payloads))

    def put(self, key: int, trace: Trace) -> Trace:
        trace.array.flags.writeable = False
        self._entries[key] = trace
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return self._share(trace)

    def get_or_generate(
        self, config: Any, generate: "Callable[[], Trace]", salt: str = ""
    ) -> Trace:
        """The front door: cached trace for ``config``, else generate."""
        key = config_key(config, salt=salt)
        cached = self.get(key)
        if cached is not None:
            return cached
        return self.put(key, generate())

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache instance (one per process; workers get their own).
_GLOBAL_CACHE = TraceCache()


def trace_cache() -> TraceCache:
    return _GLOBAL_CACHE
