"""Network-wide query execution: per-switch Sonata + a central collector.

Each border switch runs the full Sonata stack (planner, data plane,
emitter, stream processor) over the traffic its ingress observes, but with
the queries' final thresholds *scaled down* by the switch count: if a
key's network-wide aggregate exceeds Th, at least one switch sees at least
Th/n of it (pigeonhole), so scaled local thresholds preserve candidate
generation while still pruning aggressively. Every window, the collector:

1. gathers each sub-query's finest-level partial aggregates from all
   switches into one columnar state per sub-query;
2. merges them (summing partial counts per key);
3. applies the *original* thresholds, the bounds and the query's join
   tree, on the stream processor's columnar interpreter.

Only thresholds (:func:`repro.core.operators.aggregate_predicates`)
survive a split: a bound such as ``count < 6`` can hold on every
switch's partial count and fail on their sum, so switches drop their
bounds and only the collector applies them. ``local_threshold_scale=False``
instead strips local thresholds entirely — exact for any traffic split,
at the cost of reporting every key from every switch (the ablation
benchmark quantifies the gap). With scaling, a key split so evenly that
no switch crosses Th/n *and* whose crossing switches' partials sum below
Th can be missed at the margin, and a key whose unreported partials
would lift it past a bound can be kept; the exact variant, bounds
included, never misses and never over-reports.
"""

from __future__ import annotations

import copy
import logging
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable

from repro.core.errors import PlanningError
from repro.core.operators import Reduce, aggregate_predicates
from repro.core.query import Query
from repro.exec import ColumnarState, Row, materialize_rows, state_from_rows
from repro.faults import DegradationPolicy, FaultInjector, FaultSpec
from repro.faults.injector import SWITCH_FAILED, SWITCH_OK
from repro.network.topology import Topology
from repro.obs import NULL_OBS, MetricsSnapshot, Observability, get_observability
from repro.packets.trace import Trace
from repro.parallel import parallel_map, resolve_workers
from repro.planner import QueryPlanner
from repro.planner.refinement import rewrite_thresholds
from repro.runtime import SonataRuntime
from repro.runtime.emitter import partial_remerge
from repro.streaming.batchops import apply_operator_state, apply_operators_state, assemble_join_tree
from repro.switch.config import SwitchConfig

logger = logging.getLogger(__name__)


def _localized_query(query: Query, n_switches: int, scale: bool) -> Query:
    """Clone ``query`` with per-switch (scaled or stripped) thresholds and
    no bounds: a switch sees only partial aggregates."""
    clone = copy.copy(query)
    scaled = (lambda pred: int(pred.value) // n_switches) if scale else None
    clone.subqueries = [
        replace(
            sq,
            name=f"{sq.name}.local",
            operators=rewrite_thresholds(sq.operators, scaled, bounds=False),
        )
        for sq in query.subqueries
    ]
    return clone


def _check_mergeable(query: Query) -> None:
    """Refuse a sub-query whose output the collector cannot re-aggregate.

    The collector merges per-switch partials by re-running the last
    stateful reduce over the sub-query's output (see
    :meth:`NetworkRuntime._collect`), so that output must keep the
    reduce's keys and its aggregate field. It then re-applies thresholds
    and bounds, which must therefore compare that last aggregate.
    """
    for sq in query.subqueries:
        stateful = [i for i, op in enumerate(sq.operators) if op.stateful]
        early = [
            sq.operators[i].predicates[j].describe()
            for i, j in aggregate_predicates(sq.operators)
            if i < stateful[-1]
        ]
        if early:
            raise PlanningError(
                f"sub-query {sq.name!r}: the collector re-applies thresholds "
                f"and bounds to the last aggregate only, not {', '.join(early)}"
            )
        last = sq.operators[stateful[-1]] if stateful else None
        if not isinstance(last, Reduce):
            continue
        kept = sq.output_schema().fields
        dropped = [f for f in (*last.keys, last.out) if f not in kept]
        if dropped:
            raise PlanningError(
                f"sub-query {sq.name!r}: the collector merges partials by "
                f"{last.describe()}, but the sub-query's output drops "
                f"{', '.join(dropped)}"
            )


@dataclass
class SwitchResult:
    """What one switch's worker hands back to the collector."""

    report: object  # RunReport
    rng_draws: dict = field(default_factory=dict)  # channel -> draw count
    metrics: "MetricsSnapshot | None" = None
    spans: list = field(default_factory=list)
    events: list = field(default_factory=list)
    dropped_records: int = 0


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
    #: per-switch pipeline (each switch task's registry is merged back in
    #: switch-id order); ``None`` when observability is disabled.
    metrics: "MetricsSnapshot | None" = None
    #: True when :meth:`NetworkRuntime.run` was handed a trace with zero
    #: packets — nothing executed (mirrors ``RunReport.empty_trace``).
    empty_trace: bool = False
    #: Per-switch fault-injector draws of this run, per channel,
    #: ``{"switch0": {"mirror_drop": 123, ...}, ...}`` — identical for
    #: every worker count, as the differential suite asserts. Empty
    #: without fault injection.
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
        for query in self.queries:
            _check_mergeable(query)
        self.topology = topology
        self.window = window
        self.engine = engine
        self.channel = channel
        #: Default worker-process count for :meth:`run` (``None``: the
        #: ``REPRO_WORKERS`` env override, else one, in this process).
        self.workers = workers
        self.local_threshold_scale = local_threshold_scale
        self.degradation = degradation or DegradationPolicy()
        self.faults = faults
        #: One shared observability context: each run's switch tasks record
        #: into their own and are merged into it (spans carry a per-switch
        #: scope).
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
                self._switch_runtime(switch_id, planner.plan(mode), self.obs)
            )

    def _switch_runtime(self, switch_id: int, plan, obs) -> SonataRuntime:
        """One switch's pipeline for ``plan``, recording into ``obs``."""
        return SonataRuntime(
            plan,
            faults=self.faults,
            degradation=self.degradation,
            fault_scope=f"switch{switch_id}",
            obs=obs,
            engine=self.engine,
            channel=self.channel,
        )

    # -- execution ----------------------------------------------------------
    def run(self, trace: Trace, workers: "int | None" = None) -> NetworkRunReport:
        """Execute the trace network-wide; returns per-window accounting.

        Every worker count takes one path, :meth:`_run_parallel`: each
        switch's pipeline is built afresh from its plan, runs its trace
        split, and hands back a :class:`RunReport` the parent merges in
        switch-id order. ``workers`` > 1 forks those tasks over
        :func:`repro.parallel.parallel_map`; ``workers=1`` runs the same
        tasks in this process. A repeated run therefore repeats the first:
        the installed plan, refinement tables and fault streams restart.
        """
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
        with self.obs.span(
            "run",
            scope="network",
            switches=self.topology.n_switches,
            workers=n_workers,
        ):
            per_switch_reports, fault_draws = self._run_parallel(
                splits, trace.start_ts, n_workers
            )
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
        """Run every switch's pipeline as one task each and merge back.

        :func:`parallel_map` forks the tasks over ``n_workers`` processes;
        at one worker, without ``fork`` or inside a nested map it runs
        them in this process. A forked child reads its plan and split
        through the closure (copy-on-write); only the returned
        :class:`SwitchResult` is pickled.

        Each task builds its switch's pipeline from the plan with its own
        observability context, so no run inherits state from an earlier
        one: fallen-back instances are reinstalled, the refinement tables
        restart, and fault decisions are keyed by ``(scope, channel,
        window, stream, position)``, not by runtime identity.
        """
        obs = self.obs

        def run_switch(switch_id: int) -> SwitchResult:
            local_obs = Observability() if obs.enabled else NULL_OBS
            runtime = self._switch_runtime(
                switch_id, self.runtimes[switch_id].plan, local_obs
            )
            report = runtime.run(
                splits[switch_id], window=self.window, origin=origin
            )
            # The worker's snapshot is merged into the parent registry; the
            # per-switch copy on the report would be a second view of it.
            report.metrics = None
            result = SwitchResult(
                report,
                runtime.faults.rng_draws() if runtime.faults is not None else {},
            )
            if local_obs.enabled:
                result.metrics = local_obs.snapshot()
                result.spans = local_obs.tracer.spans
                result.events = local_obs.tracer.events
                result.dropped_records = local_obs.tracer.dropped
            return result

        with obs.span("parallel.dispatch", switches=len(splits), workers=n_workers):
            results = parallel_map(
                run_switch, range(len(splits)), n_workers, label="network", obs=obs
            )

        # Merge in switch-id order (parallel_map keeps input order) so the
        # combined metrics/trace records are deterministic.
        fault_draws: dict[str, dict[str, int]] = {}
        for switch_id, result in enumerate(results):
            if result.rng_draws:
                fault_draws[f"switch{switch_id}"] = result.rng_draws
            if result.metrics is not None:
                obs.registry.merge(result.metrics)
            if result.spans or result.events or result.dropped_records:
                obs.tracer.absorb(
                    result.spans, result.events, result.dropped_records
                )
        return [result.report for result in results], fault_draws

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
                leaf_outputs: dict[int, ColumnarState | None] = {}
                for sq, local_sq in zip(query.subqueries, local.subqueries):
                    merged = state_from_rows(merged_leaves[query.qid][sq.subid])
                    # Re-aggregate the partials of the last stateful op, then
                    # the original thresholds, scaled by the quorum, and bounds.
                    stateful = [op for op in local_sq.operators if op.stateful]
                    if stateful and merged.n_rows:
                        merged = apply_operator_state(merged, partial_remerge(stateful[-1]))
                    final = rewrite_thresholds(
                        sq.operators, lambda p: p.value * scale, bounds=True, rest=False
                    )
                    leaf_outputs[sq.subid] = apply_operators_state(merged, final)
                output = assemble_join_tree(query.join_tree, leaf_outputs)
                detections[query.qid] = materialize_rows(output)
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
