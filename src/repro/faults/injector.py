"""The fault injector: position-keyed fault streams + fault accounting.

One :class:`FaultInjector` wraps the channels of one pipeline (one switch
runtime, or the network collector). Every fault decision is a pure
function of its position: draw ``k`` of the stream ``(scope, channel,
window, instance, kind/op_index)`` is output ``k`` of a counter-based
splitmix64 generator seeded with ``stable_hash`` of that key
(:func:`~repro.utils.hashing.counter_uniform`). So:

- two runs with the same :class:`~repro.faults.spec.FaultSpec` make
  identical decisions (determinism), and a second ``run()`` makes the
  same decisions as the first — window indices restart with every run;
- a per-packet draw and a vectorized draw over a whole batch give
  identical bits, so the batched engine applies faults as masks and
  index plans while the per-packet oracle draws tuple by tuple;
- channels, instances and windows are independent streams: raising the
  mirror-drop rate never shifts the filter-update stream, and in
  network-wide mode every switch has its own ``scope``.

Every injected fault increments a per-window counter; the runtime drains
the counters into ``WindowReport.faults_injected`` when the window closes.
"""

from __future__ import annotations

import random
from collections import Counter

import numpy as np

from repro.faults.spec import FaultSpec
from repro.obs import get_observability
from repro.switch.mirror import MirroredBatch, MirroredTuple
from repro.utils.hashing import counter_uniform, counter_uniforms, stable_hash

#: Channel status values for switch reports in network-wide mode.
SWITCH_OK = "ok"
SWITCH_FAILED = "failed"
SWITCH_TIMEOUT = "timeout"


class FaultInjector:
    """Injects the faults a :class:`FaultSpec` describes, deterministically."""

    def __init__(self, spec: FaultSpec, scope: str = "", obs=None) -> None:
        self.spec = spec
        self.scope = scope
        #: Index of the window being executed; part of every stream key.
        self.window = 0
        #: Stream key -> [seed, next position], for the current window.
        self._streams: dict[tuple, list[int]] = {}
        self._draws: Counter = Counter()
        self._counts: Counter = Counter()
        #: Observability context; the owning runtime overwrites this so
        #: fault events land in the shared tracer. Never affects a fault
        #: decision — enabling observability cannot change a schedule.
        self.obs = obs if obs is not None else get_observability()

    # -- streams ------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset the draw counts reported by :meth:`rng_draws`."""
        self._draws.clear()

    def begin_window(self, index: int) -> None:
        """Key the following draws to window ``index``."""
        self.window = index
        self._streams.clear()

    def _advance(self, channel: str, stream: tuple, n: int) -> tuple[int, int]:
        """Claim the next ``n`` positions of a stream: ``(seed, start)``."""
        key = (channel,) + stream
        entry = self._streams.get(key)
        if entry is None:
            entry = self._streams[key] = [
                stable_hash((self.scope, self.window) + key, seed=self.spec.seed),
                0,
            ]
        start = entry[1]
        entry[1] += n
        self._draws[channel] += n
        return entry[0], start

    def _uniform(self, channel: str, stream: tuple) -> float:
        return counter_uniform(*self._advance(channel, stream, 1))

    def _uniforms(self, channel: str, stream: tuple, n: int) -> np.ndarray:
        return counter_uniforms(*self._advance(channel, stream, n), n)

    def rng_draws(self) -> dict[str, int]:
        """Uniforms drawn per channel since :meth:`begin_run`."""
        return dict(sorted(self._draws.items()))

    def _note(self, channel: str, count: int = 1, **attrs) -> None:
        """Count injected faults and emit the structured obs event."""
        if not count:
            return
        self._counts[channel] += count
        obs = self.obs
        if obs.enabled:
            obs.counter(
                "sonata_faults_injected_total",
                "faults injected, per channel",
            ).inc(count, channel=channel, scope=self.scope)
            for _ in range(count):  # one event per injected fault
                obs.event(f"fault.{channel}", scope=self.scope, **attrs)

    # -- accounting ---------------------------------------------------------
    def take_window_counts(self) -> dict[str, int]:
        """Return and reset the faults injected since the last call."""
        counts = dict(self._counts)
        self._counts.clear()
        return counts

    # -- mirror channel (switch -> emitter) ---------------------------------
    def _mirror_armed(self, allow_reorder: bool) -> bool:
        spec = self.spec
        return bool(
            spec.mirror_drop
            or spec.mirror_duplicate
            or (allow_reorder and spec.mirror_reorder)
        )

    def mirror_plan(
        self,
        instance: str,
        kind: str,
        op_index: int,
        n: int,
        allow_reorder: bool = True,
    ) -> "np.ndarray | None":
        """Delivery plan of one mirrored stream's ``n`` tuples.

        Returns the indices of the delivered tuples in delivery order, or
        ``None`` when no mirror fault is armed. Tuple ``k`` is dropped,
        delayed (reordered) or duplicated by draw ``k`` of that channel's
        stream; delayed tuples are delivered after the rest at the window
        deadline, minus the ones ``late_drop`` makes miss it. End-of-window
        key reports pass ``allow_reorder=False`` — they are produced at the
        deadline, so only drop and duplicate apply.
        """
        if not n or not self._mirror_armed(allow_reorder):
            return None
        spec = self.spec
        stream = (instance, kind, op_index)
        keep = np.ones(n, dtype=bool)
        if spec.mirror_drop:
            keep = self._uniforms("mirror_drop", stream, n) >= spec.mirror_drop
            self._note("mirror_drop", n - int(keep.sum()), instance=instance, kind=kind)
        late = np.zeros(n, dtype=bool)
        if allow_reorder and spec.mirror_reorder:
            late = keep & (
                self._uniforms("mirror_reorder", stream, n) < spec.mirror_reorder
            )
            keep &= ~late
            self._note("mirror_reorder", int(late.sum()), instance=instance, kind=kind)
            if spec.late_drop and late.any():
                missed = late & (
                    self._uniforms("late_drop", stream, n) < spec.late_drop
                )
                late &= ~missed
                self._note("late_drop", int(missed.sum()), instance=instance, kind=kind)
        index = np.flatnonzero(keep)
        if spec.mirror_duplicate:
            twice = (
                self._uniforms("mirror_duplicate", stream, n)[index]
                < spec.mirror_duplicate
            )
            index = np.repeat(index, 1 + twice)
            self._note(
                "mirror_duplicate", int(twice.sum()), instance=instance, kind=kind
            )
        return np.concatenate([index, np.flatnonzero(late)])

    def mirror(
        self, tuples: list[MirroredTuple], allow_reorder: bool = True
    ) -> list[MirroredTuple]:
        """Apply the mirror faults to one window's per-packet tuples.

        Tuples are grouped into their ``(instance, kind, op_index)``
        streams (keeping channel order within each) and every stream gets
        its :meth:`mirror_plan` — exactly the plan :meth:`mirror_batch`
        applies to the same stream's columnar batch.
        """
        if not self._mirror_armed(allow_reorder):
            return tuples
        streams: dict[tuple, list[MirroredTuple]] = {}
        for tup in tuples:
            streams.setdefault((tup.instance, tup.kind, tup.op_index), []).append(tup)
        out: list[MirroredTuple] = []
        for (instance, kind, op_index), group in streams.items():
            plan = self.mirror_plan(instance, kind, op_index, len(group), allow_reorder)
            out.extend(group[i] for i in plan.tolist())
        return out

    def mirror_batch(
        self, batch: MirroredBatch, allow_reorder: bool = True
    ) -> MirroredBatch:
        """Apply the mirror faults to one stream's columnar batch."""
        plan = self.mirror_plan(
            batch.instance, batch.kind, batch.op_index, batch.n_rows, allow_reorder
        )
        if plan is None:
            return batch
        return MirroredBatch(
            instance=batch.instance,
            kind=batch.kind,
            op_index=batch.op_index,
            state=batch.state.select(plan),
            rows=None if batch.rows is None else batch.rows[plan],
            pos=batch.pos,
        )

    # -- register pressure ---------------------------------------------------
    def force_overflow_mask(
        self, instance_key: str, op_index: int, n: int
    ) -> "np.ndarray | None":
        """Which of the next ``n`` register updates of one stateful
        operator are forced to overflow the whole chain (``None``: none
        can be)."""
        rate = self.spec.overflow_pressure
        if not rate or not n:
            return None
        forced = self._uniforms("overflow", (instance_key, op_index), n) < rate
        self._note("forced_overflow", int(forced.sum()), instance=instance_key)
        return forced

    def force_overflow(self, instance_key: str, op_index: int = 0) -> bool:
        """Per-update form of :meth:`force_overflow_mask` (same draws)."""
        rate = self.spec.overflow_pressure
        if not rate:
            return False
        if self._uniform("overflow", (instance_key, op_index)) < rate:
            self._note("forced_overflow", instance=instance_key)
            return True
        return False

    # -- control plane (filter-table updates) --------------------------------
    def filter_update_outcome(self, table: str = "") -> str:
        """One delivery attempt: ``"ok"``, ``"loss"`` or ``"delay"``."""
        spec = self.spec
        if not (spec.filter_update_loss or spec.filter_update_delay):
            return "ok"
        roll = self._uniform("filter", (table,))
        if roll < spec.filter_update_loss:
            self._note("filter_update_loss", table=table)
            return "loss"
        if roll < spec.filter_update_loss + spec.filter_update_delay:
            self._note("filter_update_delay", table=table)
            return "delay"
        return "ok"

    # -- network-wide: switch liveness and report delivery --------------------
    def switch_report(self, switch_id: int, window_index: int) -> str:
        """Did ``switch_id``'s report for this window reach the collector?

        Deterministic per ``(switch_id, window_index)`` — collection order
        cannot change the outcome.
        """
        spec = self.spec
        if switch_id in spec.switch_down:
            self._note("switch_failed", switch=switch_id, window=window_index, cause="down")
            return SWITCH_FAILED
        if spec.switch_fail:
            rng = random.Random(
                stable_hash(
                    (self.scope, "switch_fail", switch_id, window_index),
                    seed=spec.seed,
                )
            )
            if rng.random() < spec.switch_fail:
                self._note("switch_failed", switch=switch_id, window=window_index, cause="flap")
                return SWITCH_FAILED
        if spec.collector_timeout:
            rng = random.Random(
                stable_hash(
                    (self.scope, "collector_timeout", switch_id, window_index),
                    seed=spec.seed,
                )
            )
            if rng.random() < spec.collector_timeout:
                self._note("collector_timeout", switch=switch_id, window=window_index)
                return SWITCH_TIMEOUT
        return SWITCH_OK
