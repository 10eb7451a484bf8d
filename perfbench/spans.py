"""In-memory span tracer and the window clock of the benchmark's replays.

The benchmark measures every layer from outside: ``layers.py`` replaces
the public entry points of each ``repro`` layer (at the module or class
that callers look them up from) with ``Tracer.wrap`` wrappers that record
a span and, where useful, a work count. Nothing under ``src/`` knows it
is being traced.

Spans nest on one stack (the replay is single-threaded), so a layer's
*self time* is its duration minus the time of the spans opened inside it;
self times of all spans under ``run`` add up to the traced ``run()``.
Wrappers are installed only around traced work and restored afterwards,
so untraced repetitions execute the unmodified program. After ``fork``
the tracer is disabled in the child: worker spans would be lost anyway,
and the parent's figures must not depend on them.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter


class Tracer:
    """Span stack plus per-name totals of self time, calls and counts."""

    def __init__(self) -> None:
        self.enabled = False
        self._stack: list[list] = []  # [name, start, child_seconds]
        #: (name, start, end, self_seconds) for every finished span.
        self.spans: list[tuple[str, float, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        os.register_at_fork(after_in_child=self._disable_in_child)

    def _disable_in_child(self) -> None:
        self.enabled = False
        self._stack = []

    def reset(self) -> None:
        self._stack = []
        self.spans = []
        self.counts = defaultdict(float)

    def begin(self, name: str) -> None:
        self._stack.append([name, perf_counter(), 0.0])

    def end(self) -> float:
        end = perf_counter()
        name, start, child = self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.spans.append((name, start, end, duration - child))
        return duration

    def count(self, name: str, value: float) -> None:
        self.counts[name] += value

    # -- aggregation ------------------------------------------------------
    def self_seconds(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, _, _, own in self.spans:
            totals[name] += own
        return totals

    def calls(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            totals[name] += 1
        return totals

    def wrap(self, name: str, fn, counter=None):
        """``fn`` recording a span ``name``; ``counter(args, result)``
        may add work counts at the same boundary."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if counter is not None:
                counter(tracer, args, result)
            return result

        return wrapper


@contextmanager
def patched(targets):
    """Temporarily replace ``(owner, attribute, replacement)`` targets."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class WindowClock:
    """Stamps each window that ``Trace.windows`` yields to a consumer.

    The time from one yield to the consumer's next request is the
    window's processing time: the delay after the window closes before
    its detections exist. When traced, the time the generator spends
    slicing the trace is the packets layer's span. In a forked worker the
    stamps go to a per-process file under ``spool`` so the parent can
    collect them after the run.
    """

    def __init__(self, tracer: Tracer, spool: str) -> None:
        self.tracer = tracer
        self.spool = spool
        self.active = False
        self.pid = os.getpid()
        self.window_seconds: list[float] = []

    def take(self) -> list[float]:
        """Window durations recorded since the last call, workers included."""
        samples, self.window_seconds = self.window_seconds, []
        for entry in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, entry)
            with open(path) as handle:
                samples.extend(float(line) for line in handle if line.strip())
            os.remove(path)
        return samples

    def _record(self, seconds: float) -> None:
        if os.getpid() == self.pid:
            self.window_seconds.append(seconds)
            return
        path = os.path.join(self.spool, f"windows-{os.getpid()}.txt")
        with open(path, "a") as handle:
            handle.write(f"{seconds!r}\n")

    def patch(self, trace_cls):
        """The ``(owner, attribute, replacement)`` target for ``patched``."""
        original = trace_cls.__dict__["windows"]
        clock = self

        @functools.wraps(original)
        def windows(trace, width, origin=None):
            generator = original(trace, width, origin=origin)
            if not clock.active:
                yield from generator
                return
            tracer = clock.tracer
            while True:
                traced = tracer.enabled
                if traced:
                    tracer.begin("packets.windows")
                try:
                    item = next(generator)
                except StopIteration:
                    if traced:
                        tracer.end()
                    return
                yielded = perf_counter()
                if traced:
                    tracer.end()
                    tracer.begin("window")
                yield item
                clock._record(perf_counter() - yielded)
                if traced:
                    tracer.end()

        return (trace_cls, "windows", windows)
