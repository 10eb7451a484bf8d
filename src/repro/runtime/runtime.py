"""End-to-end execution of a plan over a packet trace (§5, Figure 6).

Each window:

1. packets flow through the simulated PISA switch (instances whose cut is
   0 have nothing installed — their traffic is raw-mirrored, and executed
   with the vectorized engine, which is semantically identical to the
   row-wise path and far cheaper for full-window batches);
2. the emitter assembles per-instance tuple batches (including register
   polls and the collision adjustment);
3. the stream processor runs each instance's residual operators and
   assembles join trees per refinement transition;
4. the runtime feeds each level's output keys into the next level's
   dynamic filter table (iterative refinement — the update cost is charged
   with the §6.2 timing model), and finest-level outputs become the
   window's detections.
"""

from __future__ import annotations

import logging
from collections import defaultdict
from dataclasses import dataclass, field

from repro.analytics import execute_subquery
from repro.core.errors import PlanningError
from repro.core.fields import FIELDS
from repro.core.query import JoinNode
from repro.exec import ColumnarState, Row, materialize_rows, value_kind
from repro.exec.columns import column_set
from repro.exec.kernels import shared_grouping
from repro.faults import DegradationPolicy, FaultInjector
from repro.obs import MetricsSnapshot, get_observability
from repro.packets.trace import Trace
from repro.planner.plans import InstancePlan, Plan, QueryPlan
from repro.planner.refinement import filter_table_name
from repro.runtime.emitter import Emitter
from repro.streaming import rowops
from repro.streaming.engine import StreamProcessor
from repro.switch.mirror import MirroredBatch, MirroredTuple
from repro.switch.simulator import PISASwitch

logger = logging.getLogger(__name__)


@dataclass
class WindowReport:
    """Accounting for one completed window."""

    index: int
    start: float
    end: float
    packets: int
    tuples_to_sp: dict[int, int]  # per qid
    detections: dict[int, list[Row]]  # per qid, finest-level outputs
    level_outputs: dict[tuple[int, int], list[Row]]  # (qid, level) -> rows
    #: Per-leaf sub-query outputs, (qid, level, subid) -> rows; used e.g.
    #: by the Figure 9 case study to separate "victim identified" (the
    #: aggregation sub-query fires) from "attack confirmed" (the joined
    #: query, including the payload predicate, fires).
    sub_outputs: dict[tuple[int, int, int], list[Row]] = field(default_factory=dict)
    tuples_per_instance: dict[str, int] = field(default_factory=dict)
    #: Per-instance (register updates, overflows) — the §5 signal that the
    #: training data underestimated the key population.
    overflow_stats: dict[str, tuple[int, int]] = field(default_factory=dict)
    filter_update_seconds: float = 0.0
    #: Faults injected this window, per channel (e.g. ``mirror_drop``);
    #: empty when no fault injector is attached.
    faults_injected: dict[str, int] = field(default_factory=dict)
    #: True when the runtime served this window in degraded mode: a
    #: filter update was lost or deferred, late tuples missed the window
    #: watchdog deadline, or an instance is running as raw-mirror fallback.
    degraded: bool = False
    #: Human-readable degradation records, e.g. ``fallback:q1/32/0``.
    degradation_events: list[str] = field(default_factory=list)

    def overflow_rate(self, instance_key: str) -> float:
        updates, overflows = self.overflow_stats.get(instance_key, (0, 0))
        return overflows / updates if updates else 0.0

    @property
    def total_tuples(self) -> int:
        return sum(self.tuples_to_sp.values())


@dataclass
class RunReport:
    """Accounting for a full run."""

    windows: list[WindowReport] = field(default_factory=list)
    plan_mode: str = ""
    #: True when :meth:`SonataRuntime.run` was handed a trace with zero
    #: windows — the zero totals below mean "nothing ran", not "nothing
    #: was detected over real traffic".
    empty_trace: bool = False
    #: Frozen end-of-run metrics (``None`` when observability is disabled).
    metrics: "MetricsSnapshot | None" = None

    @property
    def total_tuples(self) -> int:
        return sum(w.total_tuples for w in self.windows)

    @property
    def degraded_windows(self) -> list[int]:
        """Indices of windows served in degraded mode."""
        return [w.index for w in self.windows if w.degraded]

    def total_faults(self) -> dict[str, int]:
        """Faults injected over the whole run, summed per channel."""
        totals: dict[str, int] = defaultdict(int)
        for window in self.windows:
            for channel, count in window.faults_injected.items():
                totals[channel] += count
        return dict(totals)

    def tuples_per_query(self) -> dict[int, int]:
        totals: dict[int, int] = defaultdict(int)
        for window in self.windows:
            for qid, count in window.tuples_to_sp.items():
                totals[qid] += count
        return dict(totals)

    def detections(self) -> list[tuple[float, int, Row]]:
        """(detection_time, qid, row) for every finest-level output."""
        out = []
        for window in self.windows:
            for qid, rows in window.detections.items():
                out.extend((window.end, qid, row) for row in rows)
        return out

    def first_detection(self, qid: int) -> float | None:
        for window in self.windows:
            if window.detections.get(qid):
                return window.end
        return None


def _first_difference(mine: list[dict], theirs: list[dict]) -> str:
    """Where two lists of rows first differ: the row and field, or the
    row count; empty when they are equal."""
    for row, (a, b) in enumerate(zip(mine, theirs)):
        if list(a) != list(b):
            return f"row {row}: fields {list(a)} -> {list(b)}"
        for name, value in a.items():
            if b[name] != value:
                return f"row {row}, field {name!r}: {value!r} -> {b[name]!r}"
    if len(mine) != len(theirs):
        return f"{len(mine)} rows -> {len(theirs)}"
    return ""


class SonataRuntime:
    """Holds a plan and its run settings; :meth:`run` executes traces
    window by window.

    A runtime keeps only the plan and how to run it: the engine, the
    fault spec, the degradation policy, the wire check and the obs
    handles. Each :meth:`run` builds the run's pipeline afresh from the
    plan (:meth:`_install_plan`), so nothing one run leaves behind
    (drop rules, refinement tables, counters, fallen-back instances,
    buffered tuples, fault streams) reaches the next. The pipeline parts
    (``switch``, ``emitter``, ``stream_processor``, ``faults``,
    ``fallen_back``, ``retrain_signals``) exist from the first run on
    and hold the last run's state.

    A window whose register-overflow rate exceeds
    ``retrain_overflow_threshold`` for some instance is appended to
    ``retrain_signals`` — the §5 behaviour where "too many hash
    collisions" trigger the runtime to re-run the query planner with
    fresh data. A caller that re-plans reads the signal from the
    ``on_window`` hook of :meth:`run` (typically: re-plan on recent
    windows and swap runtimes); execution continues either way.
    """

    def __init__(
        self,
        plan: Plan,
        retrain_overflow_threshold: float = 0.05,
        wire_check: bool = False,
        faults=None,
        degradation=None,
        fault_scope: str = "",
        obs=None,
        engine: str = "batched",
        channel: str = "auto",
    ) -> None:
        self.plan = plan
        self.retrain_overflow_threshold = retrain_overflow_threshold
        #: Data-plane execution engine: ``"batched"`` runs each window
        #: vectorized and carries columnar :class:`MirroredBatch` items
        #: from the switch through the emitter to the stream processor;
        #: ``"rowwise"`` is the per-packet reference oracle the
        #: differential tests hold it to.
        if engine not in ("batched", "rowwise"):
            raise ValueError(f"unknown engine {engine!r} (batched|rowwise)")
        self.engine = engine
        #: The mirror channel follows the engine; ``"auto"`` is the only
        #: value, accepted for callers that still pass it.
        if channel != "auto":
            raise ValueError(f"unknown channel {channel!r} (only 'auto')")
        self.channel = channel
        #: Observability context (``repro.obs``). Defaults to the
        #: process-wide instance (a no-op unless the CLI or a harness
        #: installed one with ``set_observability``). Metric handles are
        #: resolved once here so per-window recording is cheap — and free
        #: when disabled.
        self.obs = obs if obs is not None else get_observability()
        self._scope = fault_scope
        self._m_packets = self.obs.counter(
            "sonata_packets_total", "packets through the data plane"
        )
        self._m_windows = self.obs.counter(
            "sonata_windows_total", "windows closed by the runtime"
        )
        self._m_tuples = self.obs.counter(
            "sonata_tuples_to_sp_total",
            "tuples crossing the switch -> stream processor boundary",
        )
        self._m_detections = self.obs.counter(
            "sonata_detections_total", "finest-level output rows"
        )
        self._m_reg_updates = self.obs.counter(
            "sonata_register_updates_total", "stateful register updates"
        )
        self._m_reg_overflows = self.obs.counter(
            "sonata_register_overflows_total",
            "register updates that overflowed the whole d-way chain",
        )
        self._m_degraded = self.obs.counter(
            "sonata_degraded_windows_total", "windows served in degraded mode"
        )
        self._m_retrain = self.obs.counter(
            "sonata_retrain_signals_total",
            "windows whose overflow rate fired the re-training signal",
        )
        self._h_stage = self.obs.histogram(
            "sonata_stage_seconds",
            "wall-clock seconds per pipeline stage per window",
        )
        self._h_filter_update = self.obs.histogram(
            "sonata_filter_update_seconds",
            "modelled control-plane latency per filter-table update batch",
        )
        #: Fault injection (``faults``: a :class:`repro.faults.FaultSpec`)
        #: and the matching degradation policy. ``fault_scope`` namespaces
        #: each run's fault streams (per-switch in network-wide mode).
        self._fault_spec = faults if faults is not None and faults.active else None
        self.degradation = degradation or DegradationPolicy()
        #: When set, every mirrored tuple is round-tripped through the
        #: emitter's binary wire format (§5), proving the configured
        #: per-instance schemas reconstruct the stream processor's input
        #: exactly. Off by default (it doubles per-tuple work).
        self.wire_check = wire_check
        self._wire_codec = None
        if wire_check:
            from repro.runtime.wire import WireCodec

            self._wire_codec = WireCodec()
            self._m_wire_tuples = self.obs.counter(
                "sonata_wire_tuples_total", "tuples round-tripped by the wire check"
            )
            self._m_wire_bytes = self.obs.counter(
                "sonata_wire_bytes_total", "wire-format bytes the wire check encoded"
            )
        self._instances: dict[str, InstancePlan] = {
            inst.key: inst for inst in plan.all_instances()
        }

    def _install_plan(self) -> None:
        """Build this run's pipeline from the plan: a fresh fault injector,
        a stream processor with every instance's residual operators, the
        plan installed on a fresh switch in the plan's instance order and
        an empty emitter. Also forgets the per-run state: fallen-back
        instances, deferred filter-table updates and retrain signals."""
        self.faults = (
            FaultInjector(self._fault_spec, scope=self._scope, obs=self.obs)
            if self._fault_spec is not None
            else None
        )
        self.stream_processor = StreamProcessor(obs=self.obs)
        for inst in self._instances.values():
            self.stream_processor.register(inst.key, inst.residual_ops)
        self.switch = PISASwitch(self.plan.switch_config)
        self.switch.obs = self.obs
        self.switch.fault_injector = self.faults
        self.plan.install(self.switch)
        self.emitter = Emitter(self._instances, obs=self.obs)
        self._raw_mirror: list[InstancePlan] = [  # cut == 0 instances
            inst for inst in self._instances.values() if not inst.on_switch
        ]
        #: Instances degraded to raw-mirror execution (exact, but at full
        #: per-packet tuple cost) after sustained register overflow.
        self.fallen_back: set[str] = set()
        # Make sure every refinement filter table exists even when the
        # instance reading it runs entirely at the stream processor.
        for inst in self._instances.values():
            if inst.read_filter_table is not None:
                self.switch.filter_tables.setdefault(inst.read_filter_table, set())
        #: Filter-table updates deferred by the fault injector; applied at
        #: the start of the next window (stale-plan semantics).
        self._pending_filter_updates: list[tuple[str, set]] = []
        self.retrain_signals: list[int] = []  # window indices that fired

    # -- window execution ---------------------------------------------------
    def run(
        self,
        trace: Trace,
        window: float | None = None,
        origin: float | None = None,
        on_window=None,
    ) -> RunReport:
        """Execute the full trace; returns per-window accounting.

        Every run builds its pipeline afresh from the plan: a switch with
        no drop rules, empty refinement tables and zero counters, an empty
        emitter and stream processor, no fallen-back instances, no retrain
        signals and a new fault injector (its streams are keyed by window
        index), so a repeated run() repeats the first. A plan the switch
        refuses raises here.

        ``origin`` aligns window boundaries to an external clock — used by
        multi-switch execution so every switch closes windows in lockstep.
        ``on_window`` (optional) is called with each :class:`WindowReport`
        as its window closes, before the next window starts, so a hook
        that changes the switch (a mitigation rule) shapes later traffic.
        """
        if window is None:
            windows = {plan.query.window for plan in self.plan.query_plans.values()}
            if len(windows) != 1:
                raise PlanningError(
                    "queries use different window sizes; pass window explicitly"
                )
            window = windows.pop()
        self._install_plan()
        if len(trace) == 0:
            # Zero windows: return an explicitly-marked empty report so
            # helpers (first_detection, total_tuples) read as "never ran"
            # rather than as a clean run that detected nothing.
            logger.warning("run called with an empty trace; nothing executed")
            return RunReport(plan_mode=self.plan.mode, empty_trace=True)
        report = RunReport(plan_mode=self.plan.mode)
        with self.obs.span(
            "run", mode=self.plan.mode, packets=len(trace), scope=self._scope
        ):
            for index, (start, sub_trace) in enumerate(
                trace.windows(window, origin=origin)
            ):
                # One grouping memo per window: instances that group the
                # same columns (the window's trace views) share one sort.
                with self.obs.span(
                    "window", index=index, packets=len(sub_trace), scope=self._scope
                ) as window_span, shared_grouping():
                    window_report = self._run_window(
                        index, start, start + window, sub_trace, window_span
                    )
                report.windows.append(window_report)
                if on_window is not None:
                    on_window(window_report)
        if self.obs.enabled:
            report.metrics = self.obs.snapshot()
        return report

    def _run_window(
        self, index, start, end, window_trace, window_span
    ) -> WindowReport:
        faults = self.faults
        events: list[str] = []
        update_seconds = 0.0
        obs = self.obs
        if faults is not None:
            faults.begin_window(index)

        # 0. Apply filter-table updates the injector deferred last window.
        if self._pending_filter_updates:
            pending, self._pending_filter_updates = self._pending_filter_updates, []
            with obs.span("filter_update", deferred=True, window=index):
                for name, keys in pending:
                    update_seconds += self.switch.update_filter_table(name, keys)

        # 1. Data plane. Fault plans are per mirrored stream, so the
        # batched engine applies them to whole batches and the oracle to
        # its window's per-packet tuples — the same decisions either way.
        with obs.span("stage.switch", window=index) as stage_span:
            if self.engine == "batched":
                if self.switch.instances:
                    items = self.switch.process_window_items(window_trace)
                    self.emitter.ingest_items(
                        [self._deliver_batch(item) for item in items]
                    )
                key_reports = {
                    key: self._deliver_batch(batch, allow_reorder=False)
                    for key, batch in self.switch.end_window_items(
                        poll=self.emitter.overflow_instances(
                            self.switch.filter_tables
                        )
                    ).items()
                }
            else:
                mirrored = []
                if self.switch.instances:
                    for packet in window_trace.packets():
                        mirrored.extend(self.switch.process_packet(packet))
                self.emitter.ingest(self._deliver_rows(mirrored))
                key_reports = {
                    key: self._deliver_rows(reports, allow_reorder=False)
                    for key, reports in self.switch.end_window(
                        poll=self.emitter.overflow_instances(
                            self.switch.filter_tables
                        )
                    ).items()
                }
        self._h_stage.observe(stage_span.duration, stage="switch")
        tables = self.switch.filter_tables

        # 2. Emitter.
        with obs.span("stage.emitter", window=index) as stage_span:
            batches = self.emitter.end_window(key_reports, tables)
        self._h_stage.observe(stage_span.duration, stage="emitter")

        # 3. Stream processor: per-instance residuals.
        with obs.span("stage.stream_processor", window=index) as stage_span:
            tuples_to_sp: dict[int, int] = defaultdict(int)
            tuples_per_instance: dict[str, int] = defaultdict(int)
            leaves: dict[str, "ColumnarState | list[Row]"] = {}
            for key, batch in batches.items():
                tuples_to_sp[self._instances[key].qid] += batch.tuples_sent
                tuples_per_instance[key] += batch.tuples_sent
                if batch.state is not None:
                    leaves[key] = self.stream_processor.process_state(
                        key, batch.state, tables
                    )
                else:
                    leaves[key] = self.stream_processor.process(
                        key, batch.rows, tables
                    )

            # Raw-mirrored instances: executed with the vectorized engine;
            # the full window crosses to the SP once per query needing it.
            raw_qids = set()
            for inst in self._raw_mirror:
                inst_tables = dict(tables)
                result = execute_subquery(inst.augmented, window_trace, inst_tables)
                leaves[inst.key] = result.rows() if self.engine == "rowwise" else result.final
                raw_qids.add(inst.qid)
                self.stream_processor.record_raw_mirror(
                    inst.key, len(window_trace), result.final.n_rows
                )
                tuples_per_instance[inst.key] += len(window_trace)
            for qid in raw_qids:
                tuples_to_sp[qid] += len(window_trace)
        self._h_stage.observe(stage_span.duration, stage="stream_processor")

        # 4. Join assembly per refinement transition + filter updates; the
        # report's rows are built here, once per state.
        with obs.span("stage.refine", window=index) as stage_span:
            detections: dict[int, list[Row]] = {}
            level_outputs: dict[tuple[int, int], list[Row]] = {}
            sub_outputs: dict[tuple[int, int, int], list[Row]] = {}
            leaf_rows = {
                key: leaf if isinstance(leaf, list) else materialize_rows(leaf)
                for key, leaf in leaves.items()
            }
            for qid, qplan in self.plan.query_plans.items():
                finest = qplan.path[-1] if qplan.path else None
                for r_prev, r_level in qplan.transitions():
                    instances = qplan.instances_for(r_prev, r_level)
                    for inst in instances:
                        sub_outputs[(qid, r_level, inst.subid)] = leaf_rows.get(inst.key, [])
                    output, state = self._transition_output(
                        qplan, instances, leaves, leaf_rows, tables
                    )
                    level_outputs[(qid, r_level)] = output
                    if r_level == finest:
                        detections[qid] = output
                    elif qplan.spec is not None:
                        key = qplan.spec.key_field
                        keys = column_set(state, key) if state is not None else {
                            row[key] for row in output if key in row
                        }
                        update_seconds += self._update_filter_table(
                            filter_table_name(qid, r_level), keys, events
                        )
        self._h_stage.observe(stage_span.duration, stage="refine")

        faults_injected = faults.take_window_counts() if faults is not None else {}
        late_tuples = faults_injected.get("late_drop", 0)
        if late_tuples:
            events.append(f"late_tuples:{late_tuples}")

        report = WindowReport(
            index=index,
            start=start,
            end=end,
            packets=len(window_trace),
            tuples_to_sp=dict(tuples_to_sp),
            detections=detections,
            level_outputs=level_outputs,
            sub_outputs=sub_outputs,
            tuples_per_instance=dict(tuples_per_instance),
            overflow_stats=dict(self.switch.window_overflow_stats),
            filter_update_seconds=update_seconds,
            faults_injected=faults_injected,
            degradation_events=events,
        )
        if any(
            report.overflow_rate(key) > self.retrain_overflow_threshold
            for key in report.overflow_stats
        ):
            self.retrain_signals.append(index)
            logger.info(
                "window %d: register-overflow rate over %.3f, retrain signal",
                index,
                self.retrain_overflow_threshold,
            )
            self._m_retrain.inc()
            obs.event("runtime.retrain_signal", window=index)

        # Graceful degradation: an instance drowning in register overflow
        # is pulled off the switch and executed raw-mirror from the next
        # window on — exact results at full per-packet tuple cost.
        threshold = self.degradation.fallback_overflow_threshold
        if threshold is not None:
            for key in list(self.switch.instances):
                if report.overflow_rate(key) > threshold:
                    self._fall_back_instance(key)
                    events.append(f"fallback:{key}")
                    logger.warning(
                        "window %d: instance %s fell back to raw-mirror "
                        "(overflow rate %.3f)",
                        index,
                        key,
                        report.overflow_rate(key),
                    )
                    obs.event("runtime.fallback", window=index, instance=key)
        report.degraded = bool(events) or bool(self.fallen_back)

        # Window-close metrics (authoritative per-window numbers, so the
        # exported counters agree with the WindowReport by construction).
        self._m_packets.inc(report.packets)
        self._m_windows.inc()
        for qid, count in report.tuples_to_sp.items():
            self._m_tuples.inc(count, qid=qid)
        for qid, rows in report.detections.items():
            if rows:
                self._m_detections.inc(len(rows), qid=qid)
        for key, (updates, overflows) in report.overflow_stats.items():
            if updates:
                self._m_reg_updates.inc(updates, instance=key)
            if overflows:
                self._m_reg_overflows.inc(overflows, instance=key)
        if update_seconds:
            self._h_filter_update.observe(update_seconds)
        if report.degraded:
            self._m_degraded.inc()
        window_span.set_attribute("tuples_to_sp", report.total_tuples)
        window_span.set_attribute("degraded", report.degraded)
        return report

    def _fall_back_instance(self, key: str) -> None:
        """Degrade an on-switch instance to raw-mirror (all-SP) execution."""
        inst = self._instances[key]
        self.switch.uninstall(key)
        self._raw_mirror.append(inst)
        self.fallen_back.add(key)

    def _update_filter_table(
        self, name: str, keys: set, events: list[str]
    ) -> float:
        """Apply a refinement update through the faulty control plane.

        Lost updates are retried with exponential backoff up to the
        policy's budget; a deferred update lands next window. Either way
        the window closes on time with the stale table and the event is
        recorded — refinement lags rather than the pipeline stalling.
        """
        with self.obs.span("filter_update", table=name, keys=len(keys)):
            if self.faults is None:
                return self.switch.update_filter_table(name, keys)
            policy = self.degradation
            seconds = 0.0
            for attempt in range(policy.filter_update_retries + 1):
                outcome = self.faults.filter_update_outcome(name)
                if outcome == "ok":
                    return seconds + self.switch.update_filter_table(name, keys)
                if outcome == "delay":
                    self._pending_filter_updates.append((name, set(keys)))
                    events.append(f"filter_update_delayed:{name}")
                    logger.info("filter-table update for %s deferred a window", name)
                    return seconds
                seconds += policy.retry_backoff_seconds * (2 ** attempt)
            events.append(f"filter_update_lost:{name}")
            logger.warning(
                "filter-table update for %s lost after %d retries",
                name,
                policy.filter_update_retries,
            )
            return seconds

    # -- mirror channel (switch -> emitter) ----------------------------------
    # Key reports are produced at the window deadline, so they are never
    # delayed (``allow_reorder=False``).
    def _deliver_batch(self, batch, allow_reorder: bool = True):
        """Carry one batch over the mirror channel: faults, wire check."""
        if self.faults is not None:
            batch = self.faults.mirror_batch(batch, allow_reorder)
        if self._wire_codec is not None:
            batch = self._wire_roundtrip_batch(batch)
        return batch

    def _deliver_rows(self, tuples, allow_reorder: bool = True):
        """The per-packet oracle's twin of :meth:`_deliver_batch`."""
        if self.faults is not None:
            tuples = self.faults.mirror(tuples, allow_reorder)
        if self._wire_codec is not None:
            tuples = [self._wire_roundtrip(m) for m in tuples]
        return tuples

    def _wire_schema(self, item, kinds) -> str:
        """Configure (once) and return the wire schema key of ``item``.

        ``kinds`` yields ``(name, kind)`` as :func:`~repro.exec.value_kind`
        names it. Floats keep a float encoding (FIELDS registers ``ts`` as
        a 64-bit int, which would truncate it) and strings keep their kind;
        an int is as wide as FIELDS registers it, 64 bits if unregistered.
        """
        # One schema per (instance, kind, op depth): the layout of a
        # per-packet stream tuple differs from a register key report.
        schema_key = f"{item.instance}#{item.kind}#{item.op_index}"
        try:
            self._wire_codec.schema(schema_key)
        except PlanningError:
            widths: dict[str, "int | str"] = {}
            for name, kind in kinds:
                if kind != "int":
                    widths[name] = kind
                else:
                    widths[name] = FIELDS.get(name).width if name in FIELDS else 64
            self._wire_codec.configure(schema_key, widths)
        return schema_key

    def _wire_roundtrip(self, mirrored):
        """Encode + decode a tuple via the wire format; must be lossless."""
        codec = self._wire_codec
        schema_key = self._wire_schema(
            mirrored,
            ((name, value_kind(value)) for name, value in mirrored.fields.items()),
        )
        tagged = MirroredTuple(
            instance=schema_key,
            kind=mirrored.kind,
            fields=mirrored.fields,
            op_index=mirrored.op_index,
        )
        record = codec.encode(tagged)
        decoded = codec.decode(record)
        if decoded.fields != mirrored.fields:
            raise PlanningError(
                f"wire roundtrip changed a tuple of {schema_key}: "
                f"{_first_difference([mirrored.fields], [decoded.fields])}"
            )
        self._m_wire_tuples.inc(1, instance=mirrored.instance)
        self._m_wire_bytes.inc(len(record), instance=mirrored.instance)
        return MirroredTuple(
            instance=mirrored.instance,
            kind=decoded.kind,
            fields=decoded.fields,
            op_index=decoded.op_index,
        )

    def _wire_roundtrip_batch(self, batch):
        """Encode + decode a columnar batch; must be bit-for-bit lossless."""
        if batch.n_rows == 0:
            return batch
        codec = self._wire_codec
        state = batch.state
        schema_key = self._wire_schema(
            batch, ((name, state.kind(name)) for name in state.columns)
        )
        with self.obs.span("wire_check", instance=batch.instance, rows=batch.n_rows):
            data = codec.encode_batch(batch, schema_key)
            decoded = codec.decode_batch(data, schema_key)
            result = MirroredBatch(
                instance=batch.instance,
                kind=decoded.kind,
                op_index=decoded.op_index,
                state=decoded.state,
                rows=batch.rows,
                pos=batch.pos,
            )
            if not batch.data_equal(result):
                # Rows are built only to name the difference.
                difference = _first_difference(
                    [t.fields for t in batch.materialize()],
                    [t.fields for t in result.materialize()],
                ) or (
                    f"header {(batch.kind, batch.op_index)} -> "
                    f"{(result.kind, result.op_index)}"
                )
                raise PlanningError(
                    f"wire roundtrip changed batch {schema_key}: {difference}"
                )
        self._m_wire_tuples.inc(batch.n_rows, instance=batch.instance)
        self._m_wire_bytes.inc(len(data), instance=batch.instance)
        return result

    def _transition_output(
        self,
        qplan: QueryPlan,
        instances: list[InstancePlan],
        leaves: dict[str, "ColumnarState | list[Row]"],
        leaf_rows: dict[str, list[Row]],
        tables: dict[str, set],
    ) -> "tuple[list[Row], ColumnarState | None]":
        """A transition's output rows and, from the batched engine, its
        state. A join-free query's are its leaf's; the oracle joins rows,
        the batched engine joins states."""
        tree = qplan.query.join_tree
        if not isinstance(tree, JoinNode):
            key = instances[0].key if instances else None
            return leaf_rows.get(key, []), leaves.get(key) if self.engine == "batched" else None
        outputs: dict = {sq.subid: None for sq in qplan.query.subqueries}
        if self.engine == "rowwise":
            outputs.update((inst.subid, leaf_rows.get(inst.key, [])) for inst in instances)
            return rowops.assemble_join_tree(tree, outputs, tables) or [], None
        outputs.update((inst.subid, leaves.get(inst.key, ColumnarState({}))) for inst in instances)
        state = self.stream_processor.execute_join_tree(tree, outputs, tables)
        return materialize_rows(state), state
