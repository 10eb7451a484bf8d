"""Per-switch worker tasks for process-parallel network execution.

The parent (``NetworkRuntime.run``) cannot ship its live
:class:`SonataRuntime` objects to workers — runtimes hold unpicklable
state (emitter closures, register chains mid-window). What *is* picklable
and small is the :class:`~repro.planner.plans.Plan` (a few KB of
dataclasses), so each worker rebuilds its switch pipeline from the plan,
maps its trace slice out of shared memory, runs the full window loop, and
returns:

- the :class:`RunReport` (detections, window accounting — plain data);
- the worker's finished obs spans/events and a metrics snapshot, which
  the parent absorbs into its own tracer/registry in switch-id order so
  the merged observability is deterministic;
- the fault injector's per-channel draw counts
  (:meth:`FaultInjector.rng_draws`), which the parent records so a
  differential suite can pin that parallel execution drew exactly the
  stream positions the serial path does.

Workers rebuild pipelines *per run*. That loses nothing a serial run
keeps: every ``run()`` reinstalls fallen-back instances and restarts the
refinement tables, and fault decisions are keyed by ``(scope, channel,
window, stream, position)``, not by runtime identity, so a rebuilt
pipeline draws what a reused serial one does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.parallel.shm import TraceHandle, open_trace


@dataclass
class SwitchTask:
    """Everything a worker needs to run one switch's pipeline."""

    switch_id: int
    plan: object  # repro.planner.plans.Plan (picklable)
    window: float
    origin: float
    engine: str = "batched"
    fault_scope: str = ""
    faults: object = None  # FaultSpec | None
    degradation: object = None  # DegradationPolicy | None
    obs_enabled: bool = False
    handle: TraceHandle = None


@dataclass
class SwitchResult:
    """What a worker hands back to the collector."""

    switch_id: int
    report: object  # RunReport
    metrics: object = None  # MetricsSnapshot | None
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)
    dropped_records: int = 0
    rng_draws: dict = field(default_factory=dict)  # channel -> draw count


def run_switch_task(task: SwitchTask) -> SwitchResult:
    """Worker entry point: rebuild the pipeline, run, package the result."""
    from repro.obs import NULL_OBS, Observability
    from repro.runtime import SonataRuntime

    obs = Observability() if task.obs_enabled else NULL_OBS
    trace, close = open_trace(task.handle)
    try:
        runtime = SonataRuntime(
            task.plan,
            faults=task.faults,
            degradation=task.degradation,
            fault_scope=task.fault_scope,
            obs=obs,
            engine=task.engine,
        )
        report = runtime.run(trace, window=task.window, origin=task.origin)
        rng_draws = (
            runtime.faults.rng_draws() if runtime.faults is not None else {}
        )
    finally:
        close()
    # The worker-local snapshot is merged into the parent registry; the
    # per-switch copy on the report would otherwise leak a second,
    # switch-local view of the same counters.
    report.metrics = None
    result = SwitchResult(
        switch_id=task.switch_id, report=report, rng_draws=rng_draws
    )
    if obs.enabled:
        result.metrics = obs.snapshot()
        result.spans = obs.tracer.spans
        result.events = obs.tracer.events
        result.dropped_records = obs.tracer.dropped
    return result
