"""Fault-model and degradation-policy configuration.

A :class:`FaultSpec` describes *what goes wrong* (per-channel rates, all
probabilities in [0, 1], plus hard-failed switch ids); a
:class:`DegradationPolicy` describes *how the pipeline responds* (retry
budgets, fallback thresholds, collector quorum). Keeping the two separate
means the same degradation machinery can be exercised under any fault mix,
and a fault-free run with a policy attached is byte-identical to a plain
run.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.errors import PlanningError

_RATE_FIELDS = (
    "mirror_drop",
    "mirror_duplicate",
    "mirror_reorder",
    "late_drop",
    "overflow_pressure",
    "filter_update_loss",
    "filter_update_delay",
    "switch_fail",
    "collector_timeout",
)


@dataclass(frozen=True)
class FaultSpec:
    """Per-channel fault rates; all injection derives from ``seed``.

    Mirror channel (switch → emitter, per tuple):

    - ``mirror_drop`` — the tuple is lost;
    - ``mirror_duplicate`` — the tuple is delivered twice;
    - ``mirror_reorder`` — the tuple is delayed and delivered out of
      order at the end of the window (harmless to the per-window
      semantics unless it also misses the deadline);
    - ``late_drop`` — a *delayed* tuple misses the window watchdog
      deadline entirely and is dropped (recorded as missed data).

    Register pressure:

    - ``overflow_pressure`` — a register update is forced to overflow
      the whole chain even if a slot was free, modelling key populations
      far above the planner's training-data sizing.

    Control plane (per filter-table update attempt):

    - ``filter_update_loss`` — the update is lost (the runtime retries
      with bounded backoff, see :class:`DegradationPolicy`);
    - ``filter_update_delay`` — the update lands one window late.

    Network-wide mode (per switch, per window):

    - ``switch_fail`` — the switch flaps: it produces nothing and does
      not report this window;
    - ``switch_down`` — switch ids hard-failed for the entire run;
    - ``collector_timeout`` — the switch ran, but its report misses the
      collector's per-window deadline and is excluded from the merge.
    """

    seed: int = 0
    mirror_drop: float = 0.0
    mirror_duplicate: float = 0.0
    mirror_reorder: float = 0.0
    late_drop: float = 0.0
    overflow_pressure: float = 0.0
    filter_update_loss: float = 0.0
    filter_update_delay: float = 0.0
    switch_fail: float = 0.0
    switch_down: tuple[int, ...] = ()
    collector_timeout: float = 0.0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise PlanningError(
                    f"fault rate {name}={rate!r} outside [0, 1]"
                )
        if any(s < 0 for s in self.switch_down):
            raise PlanningError("switch_down ids must be non-negative")

    @property
    def active(self) -> bool:
        """True if any channel can actually inject something."""
        return bool(self.switch_down) or any(
            getattr(self, name) > 0.0 for name in _RATE_FIELDS
        )


def parse_fault_spec(text: str) -> FaultSpec:
    """Parse a ``key=value,key=value`` CLI spec into a :class:`FaultSpec`.

    ``switch_down`` takes ``|``-separated ids (``switch_down=0|2``);
    ``seed`` is an int; everything else is a float rate. Example::

        mirror_drop=0.05,overflow_pressure=0.1,seed=42
    """
    known = {f.name for f in fields(FaultSpec)}
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise PlanningError(f"bad fault spec entry {part!r} (want key=value)")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in known:
            raise PlanningError(
                f"unknown fault spec key {key!r}; known: {', '.join(sorted(known))}"
            )
        try:
            if key == "seed":
                kwargs[key] = int(value)
            elif key == "switch_down":
                kwargs[key] = tuple(
                    int(v) for v in value.split("|") if v.strip() != ""
                )
            else:
                kwargs[key] = float(value)
        except ValueError as exc:
            raise PlanningError(f"bad value for fault spec key {key!r}: {value!r}") from exc
    return FaultSpec(**kwargs)


@dataclass(frozen=True)
class DegradationPolicy:
    """How the runtimes respond to injected (or natural) faults.

    - ``filter_update_retries`` / ``retry_backoff_seconds`` — a lost
      filter-table update is retried up to N times, each attempt charged
      ``backoff * 2**attempt`` seconds of modelled control-plane latency;
      after the budget the window proceeds with the stale table and the
      loss is recorded.
    - ``fallback_overflow_threshold`` — when an instance's per-window
      register-overflow rate exceeds this, the runtime uninstalls it and
      executes it raw-mirror (all-SP) from the next window on: exact
      results at full tuple cost. ``None`` disables automatic fallback.
    - ``quorum`` — the minimum number of reporting switches the
      network-wide collector needs to close a window with detections;
      below quorum the window closes empty (and is marked degraded).
    """

    filter_update_retries: int = 3
    retry_backoff_seconds: float = 0.005
    fallback_overflow_threshold: float | None = None
    quorum: int = 1

    def __post_init__(self) -> None:
        if self.filter_update_retries < 0:
            raise PlanningError("filter_update_retries must be >= 0")
        if self.retry_backoff_seconds < 0:
            raise PlanningError("retry_backoff_seconds must be >= 0")
        if self.quorum < 1:
            raise PlanningError("quorum must be >= 1")
        if (
            self.fallback_overflow_threshold is not None
            and not 0.0 <= self.fallback_overflow_threshold <= 1.0
        ):
            raise PlanningError("fallback_overflow_threshold outside [0, 1]")
