"""Network-wide query execution: per-switch Sonata + a central collector.

Each border switch runs the full Sonata stack (planner, data plane,
emitter, stream processor) over the traffic its ingress observes, but with
the queries' final thresholds *scaled down* by the switch count: if a
key's network-wide aggregate exceeds Th, at least one switch sees at least
Th/n of it (pigeonhole), so scaled local thresholds preserve candidate
generation while still pruning aggressively. Every window, the collector:

1. gathers each sub-query's finest-level partial aggregates from all
   switches;
2. merges them (summing partial counts per key);
3. applies the *original* thresholds and the query's join tree.

``local_threshold_scale=False`` instead strips local thresholds entirely —
exact for any traffic split, at the cost of reporting every key from every
switch (the ablation benchmark quantifies the gap). With scaling, a key
split so evenly that no switch crosses Th/n *and* whose crossing switches'
partials sum below Th can be missed at the margin; the exact variant never
misses.
"""

from __future__ import annotations

import copy
import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.errors import PlanningError
from repro.core.query import Query, SubQuery
from repro.faults import DegradationPolicy, FaultInjector, FaultSpec
from repro.faults.injector import SWITCH_FAILED, SWITCH_OK
from repro.network.topology import Topology
from repro.obs import MetricsSnapshot, get_observability
from repro.packets.trace import Trace
from repro.planner import QueryPlanner

from repro.planner.refinement import (
    scale_thresholds,
    trailing_threshold_fields,
    trailing_thresholds,
    without_thresholds,
)
from repro.runtime import SonataRuntime
from repro.runtime.emitter import partial_remerge
from repro.streaming.rowops import Row, apply_operator, assemble_join_tree
from repro.switch.config import SwitchConfig

logger = logging.getLogger(__name__)


def _localized_query(query: Query, n_switches: int, scale: bool) -> Query:
    """Clone ``query`` with per-switch (scaled or stripped) thresholds."""
    clone = copy.copy(query)
    clone.subqueries = []
    for sq in query.subqueries:
        fields = set(trailing_threshold_fields(sq))
        if not fields:
            ops = sq.operators
        elif scale:
            ops = scale_thresholds(sq.operators, fields, n_switches)
        else:
            ops = without_thresholds(sq.operators, fields)
        clone.subqueries.append(
            SubQuery(
                qid=sq.qid,
                subid=sq.subid,
                name=f"{sq.name}.local",
                operators=ops,
                window=sq.window,
                registry=sq.registry,
            )
        )
    return clone


@dataclass
class NetworkWindowReport:
    """One window of network-wide execution."""

    index: int
    switch_tuples: list[int]  # per switch: tuples switch -> local SP
    collector_tuples: int  # partial-aggregate rows sent to the collector
    detections: dict[int, list[Row]]  # per qid, network-wide
    #: Switches whose report never reached the collector this window
    #: (hard failure, flapping, or a missed collection deadline).
    missing_switches: list[int] = field(default_factory=list)
    #: True when the window closed on partial data (missing switches,
    #: below-quorum close, or any per-switch degradation).
    degraded: bool = False
    #: Pigeonhole threshold correction applied at the collector: with k of
    #: n switches reporting, thresholds are scaled by k/n so an attack
    #: whose observed fraction crosses proportionally is still caught.
    quorum_scale: float = 1.0
    #: Faults injected this window, aggregated over the reporting
    #: switches' pipelines plus the collector's own channels.
    faults_injected: dict[str, int] = field(default_factory=dict)

    @property
    def total_switch_tuples(self) -> int:
        return sum(self.switch_tuples)


@dataclass
class NetworkRunReport:
    windows: list[NetworkWindowReport] = field(default_factory=list)
    #: Frozen end-of-run metrics covering the collector *and* every
    #: per-switch pipeline (in parallel mode each worker's registry is
    #: merged back in switch-id order); ``None`` when observability is
    #: disabled.
    metrics: "MetricsSnapshot | None" = None
    #: True when :meth:`NetworkRuntime.run` was handed a trace with zero
    #: packets — nothing executed (mirrors ``RunReport.empty_trace``).
    empty_trace: bool = False
    #: Per-switch fault-injector draws of this run, per channel,
    #: ``{"switch0": {"mirror_drop": 123, ...}, ...}`` — identical between
    #: the serial and process-parallel paths by construction, and asserted
    #: so by the differential suite. Empty without fault injection.
    fault_draws: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def degraded_windows(self) -> list[int]:
        return [w.index for w in self.windows if w.degraded]

    def detections(self) -> list[tuple[int, int, Row]]:
        return [
            (w.index, qid, row)
            for w in self.windows
            for qid, rows in w.detections.items()
            for row in rows
        ]

    @property
    def total_collector_tuples(self) -> int:
        return sum(w.collector_tuples for w in self.windows)

    @property
    def total_switch_tuples(self) -> int:
        return sum(w.total_switch_tuples for w in self.windows)


class NetworkRuntime:
    """Plans and executes queries across a multi-switch topology."""

    def __init__(
        self,
        queries: Iterable[Query],
        topology: Topology,
        training_trace: Trace,
        config: SwitchConfig | None = None,
        window: float = 3.0,
        mode: str = "sonata",
        local_threshold_scale: bool = True,
        time_limit: float = 20.0,
        faults: FaultSpec | None = None,
        degradation: DegradationPolicy | None = None,
        obs=None,
        engine: str = "batched",
        channel: str = "auto",
        workers: "int | None" = None,
    ) -> None:
        self.queries = list(queries)
        if not self.queries:
            raise PlanningError("no queries for network-wide execution")
        self.topology = topology
        self.window = window
        self.engine = engine
        self.channel = channel
        #: Default worker-process count for :meth:`run` (``None``: the
        #: ``REPRO_WORKERS`` env override, else serial).
        self.workers = workers
        self.local_threshold_scale = local_threshold_scale
        self.degradation = degradation or DegradationPolicy()
        self.faults = faults
        #: One shared observability context: every switch runtime records
        #: into the same registry/tracer (spans carry a per-switch scope).
        self.obs = obs if obs is not None else get_observability()
        self._m_collector_tuples = self.obs.counter(
            "sonata_collector_tuples_total",
            "partial-aggregate rows merged by the central collector",
        )
        self._m_missing = self.obs.counter(
            "sonata_collector_missing_reports_total",
            "switch reports that never reached the collector",
        )
        self._h_stage = self.obs.histogram(
            "sonata_stage_seconds",
            "wall-clock seconds per pipeline stage per window",
        )
        #: The collector's own fault channels (switch liveness, report
        #: deadlines); per-switch pipeline channels live in each runtime.
        self._collector_faults = (
            FaultInjector(faults, scope="collector")
            if faults is not None and faults.active
            else None
        )
        self._original_thresholds = {
            query.qid: {
                sq.subid: trailing_thresholds(sq)
                for sq in query.subqueries
            }
            for query in self.queries
        }
        self._local_queries = [
            _localized_query(q, topology.n_switches, local_threshold_scale)
            for q in self.queries
        ]

        # Plan each switch against its own view of the training traffic.
        self.runtimes: list[SonataRuntime] = []
        training_splits = topology.split(training_trace)
        for switch_id, split in enumerate(training_splits):
            planner = QueryPlanner(
                self._local_queries,
                split if len(split) else training_trace,
                config=config,
                window=window,
                time_limit=time_limit,
            )
            self.runtimes.append(
                SonataRuntime(
                    planner.plan(mode),
                    faults=faults,
                    degradation=degradation,
                    fault_scope=f"switch{switch_id}",
                    obs=self.obs,
                    engine=engine,
                    channel=channel,
                )
            )

    # -- execution ----------------------------------------------------------
    def run(self, trace: Trace, workers: "int | None" = None) -> NetworkRunReport:
        """Execute the trace network-wide; returns per-window accounting.

        ``workers`` > 1 fans the per-switch pipelines across a process
        pool (see :mod:`repro.parallel`): each worker rebuilds its switch
        pipeline from the (picklable) plan, maps its trace slice out of
        shared memory, and ships back a :class:`RunReport` the parent
        merges in switch-id order — so parallel runs are tuple-for-tuple
        identical to serial ones, and ``workers=1`` *is* the serial path.
        A repeated run repeats the first: the installed plan, refinement
        tables and fault streams restart.
        """
        from repro.parallel import resolve_workers

        if len(trace) == 0:
            # Zero windows: mirror SonataRuntime.run's guard instead of
            # crashing in the collector loop below.
            logger.warning("network run called with an empty trace; nothing executed")
            report = NetworkRunReport(empty_trace=True)
            if self.obs.enabled:
                report.metrics = self.obs.snapshot()
            return report
        n_workers = resolve_workers(workers if workers is not None else self.workers)
        n_workers = min(n_workers, self.topology.n_switches)
        splits = self.topology.split(trace)
        origin = trace.start_ts
        with self.obs.span(
            "run",
            scope="network",
            switches=self.topology.n_switches,
            workers=n_workers,
        ):
            if n_workers > 1:
                per_switch_reports, fault_draws = self._run_parallel(
                    splits, origin, n_workers
                )
            else:
                per_switch_reports = [
                    runtime.run(split, window=self.window, origin=origin)
                    for runtime, split in zip(self.runtimes, splits)
                ]
                fault_draws = {
                    f"switch{switch_id}": draws
                    for switch_id, runtime in enumerate(self.runtimes)
                    if runtime.faults is not None
                    and (draws := runtime.faults.rng_draws())
                }
            report = NetworkRunReport(fault_draws=fault_draws)
            n_windows = max(
                (len(r.windows) for r in per_switch_reports), default=0
            )
            for index in range(n_windows):
                with self.obs.span(
                    "stage.collector_merge", window=index
                ) as merge_span:
                    window = self._collect(index, per_switch_reports)
                self._h_stage.observe(merge_span.duration, stage="collector_merge")
                report.windows.append(window)
        if self.obs.enabled:
            report.metrics = self.obs.snapshot()
        return report

    def _run_parallel(
        self, splits: list[Trace], origin: float, n_workers: int
    ) -> tuple[list, dict[str, dict[str, int]]]:
        """Fan per-switch pipelines across a process pool and merge back."""
        from concurrent.futures import ProcessPoolExecutor

        from repro.parallel.netexec import SwitchTask, run_switch_task
        from repro.parallel.pool import fork_context
        from repro.parallel.shm import TraceShmPool

        obs = self.obs
        with obs.span(
            "parallel.dispatch", switches=len(splits), workers=n_workers
        ) as dispatch_span:
            with TraceShmPool() as shm_pool:
                tasks = [
                    SwitchTask(
                        switch_id=switch_id,
                        plan=self.runtimes[switch_id].plan,
                        window=self.window,
                        origin=origin,
                        engine=self.engine,
                        fault_scope=f"switch{switch_id}",
                        faults=self.faults,
                        degradation=self.degradation,
                        obs_enabled=obs.enabled,
                        handle=shm_pool.share(split),
                    )
                    for switch_id, split in enumerate(splits)
                ]
                if obs.enabled:
                    obs.counter(
                        "sonata_parallel_tasks_total",
                        "tasks dispatched to worker processes",
                    ).inc(len(tasks), label="network")
                    obs.counter(
                        "sonata_shm_bytes_total",
                        "trace bytes handed to workers via shared memory",
                    ).inc(shm_pool.shared_bytes)
                    dispatch_span.set_attribute("shm_bytes", shm_pool.shared_bytes)
                ctx = fork_context()
                kwargs = {"mp_context": ctx} if ctx is not None else {}
                with ProcessPoolExecutor(max_workers=n_workers, **kwargs) as pool:
                    results = list(pool.map(run_switch_task, tasks))

        # Merge in switch-id order (pool.map preserves input order) so the
        # combined metrics/trace records are deterministic.
        per_switch_reports = []
        fault_draws: dict[str, dict[str, int]] = {}
        for result in results:
            per_switch_reports.append(result.report)
            if result.rng_draws:
                fault_draws[f"switch{result.switch_id}"] = result.rng_draws
            if result.metrics is not None:
                obs.registry.merge(result.metrics)
            if result.spans or result.events or result.dropped_records:
                obs.tracer.absorb(
                    result.spans, result.events, result.dropped_records
                )
        return per_switch_reports, fault_draws

    def _collect(self, index: int, per_switch_reports) -> NetworkWindowReport:
        switch_tuples = []
        merged_leaves: dict[int, dict[int, list[Row]]] = defaultdict(
            lambda: defaultdict(list)
        )
        collector_tuples = 0
        missing: list[int] = []
        faults_injected: dict[str, int] = defaultdict(int)
        switch_degraded = False
        for switch_id, report in enumerate(per_switch_reports):
            if index >= len(report.windows):
                switch_tuples.append(0)
                continue
            window = report.windows[index]
            status = (
                self._collector_faults.switch_report(switch_id, index)
                if self._collector_faults is not None
                else SWITCH_OK
            )
            if status == SWITCH_FAILED:
                # Hard failure / flapping: the switch produced nothing and
                # did not report. Its traffic is unobserved this window.
                switch_tuples.append(0)
                missing.append(switch_id)
                continue
            switch_tuples.append(window.total_tuples)
            for channel, count in window.faults_injected.items():
                faults_injected[channel] += count
            switch_degraded = switch_degraded or window.degraded
            if status != SWITCH_OK:
                # Report missed the collector deadline: the local pipeline
                # ran (tuples counted) but its partials are not merged.
                missing.append(switch_id)
                continue
            query_plans = self.runtimes[switch_id].plan.query_plans
            for query in self._local_queries:
                finest = query_plans[query.qid].path[-1]
                for sq in query.subqueries:
                    rows = window.sub_outputs.get((query.qid, finest, sq.subid), [])
                    merged_leaves[query.qid][sq.subid].extend(rows)
                    collector_tuples += len(rows)

        if self._collector_faults is not None:
            for channel, count in self._collector_faults.take_window_counts().items():
                faults_injected[channel] += count

        # Quorum merge: close the window with whatever k of n switches
        # reported. With local thresholds scaled to Th/n, partial sums over
        # k switches are compared against Th * k/n (pigeonhole correction)
        # so proportionally-crossing attacks survive missing reporters.
        n = self.topology.n_switches
        reporting = n - len(missing)
        scale = 1.0
        if missing and self.local_threshold_scale and reporting > 0:
            scale = reporting / n
        detections: dict[int, list[Row]] = {}
        if reporting >= self.degradation.quorum:
            for query, local in zip(self.queries, self._local_queries):
                leaf_outputs: dict[int, list[Row] | None] = {}
                for sq, local_sq in zip(query.subqueries, local.subqueries):
                    rows = merged_leaves[query.qid][sq.subid]
                    rows = self._merge_partials(local_sq, rows)
                    rows = self._apply_original_thresholds(query, sq, rows, scale)
                    leaf_outputs[sq.subid] = rows
                output = assemble_join_tree(query.join_tree, leaf_outputs) or []
                detections[query.qid] = output
        else:
            # Below quorum: the watchdog still closes the window — with no
            # detections — rather than blocking on reports that will never
            # arrive; the gap is visible in missing_switches/degraded.
            logger.warning(
                "window %d closed below quorum (%d of %d switches reporting)",
                index,
                reporting,
                n,
            )
            self.obs.event(
                "collector.below_quorum", window=index, reporting=reporting
            )
            detections = {query.qid: [] for query in self.queries}
        if missing:
            logger.info("window %d: missing switch reports from %s", index, missing)
            self._m_missing.inc(len(missing))
        self._m_collector_tuples.inc(collector_tuples)
        for qid, rows in detections.items():
            if rows:
                self.obs.counter(
                    "sonata_network_detections_total",
                    "network-wide detections after the collector merge",
                ).inc(len(rows), qid=qid)
        return NetworkWindowReport(
            index=index,
            switch_tuples=switch_tuples,
            collector_tuples=collector_tuples,
            detections=detections,
            missing_switches=missing,
            degraded=bool(missing)
            or switch_degraded
            or reporting < self.degradation.quorum,
            quorum_scale=scale,
            faults_injected=dict(faults_injected),
        )

    @staticmethod
    def _merge_partials(local_sq: SubQuery, rows: list[Row]) -> list[Row]:
        """Re-aggregate per-switch partials of the final stateful op."""
        stateful = [op for op in local_sq.operators if op.stateful]
        if not stateful or not rows:
            return rows
        return apply_operator(rows, partial_remerge(stateful[-1]))

    def _apply_original_thresholds(
        self, query: Query, sq: SubQuery, rows: list[Row], scale: float = 1.0
    ) -> list[Row]:
        """Apply network-wide thresholds, scaled by the reporting quorum.

        ``scale`` is k/n when only k of n switches reported (pigeonhole:
        the k observed partials of a threshold-crossing key sum to at
        least ``Th * k/n`` under a proportional traffic split).
        """
        for pred in self._original_thresholds[query.qid][sq.subid]:
            scaled = replace(pred, value=pred.value * scale)
            rows = [row for row in rows if pred.field in row and scaled.evaluate(row)]
        return rows
