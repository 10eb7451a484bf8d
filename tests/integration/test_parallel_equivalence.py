"""Parallel-vs-serial differential suite.

The contract of ``NetworkRuntime.run(workers=N)``: the number of worker
processes is an execution detail, never an observable one. Every field of
the report — detections, per-switch tuple counts, window accounting,
degradation flags, fault-injection accounting — must be identical for
``workers`` in {1, 2, 4}, with and without fault injection. ``workers=1``
*is* the serial code path, so serial-vs-parallel equality follows from
1-vs-N equality.

Fault-injection determinism is pinned twice: once through the visible
accounting (``faults_injected`` per window) and once through the draws
per fault channel (``NetworkRunReport.fault_draws``) — fault decisions are
position-keyed, so two executions that drew the same positions of the same
streams made identical decisions. A repeated ``run()`` on one runtime
repeats the first run for any worker count.
"""

import pytest

from repro.evaluation.workloads import build_workload
from repro.faults import FaultSpec
from repro.network import NetworkRuntime, Topology
from repro.packets.trace import Trace
from repro.queries.library import build_queries

QUERY_NAMES = ["newly_opened_tcp_conns", "ddos", "superspreader"]
WORKER_COUNTS = (1, 2, 4)

CHAOS = FaultSpec(
    seed=11,
    mirror_drop=0.05,
    mirror_duplicate=0.02,
    mirror_reorder=0.04,
    late_drop=0.1,
    overflow_pressure=0.02,
    filter_update_loss=0.2,
    switch_fail=0.1,
)


@pytest.fixture(scope="module")
def workload():
    return build_workload(QUERY_NAMES, duration=12.0, pps=2_000, seed=17)


@pytest.fixture(scope="module")
def queries():
    return build_queries(QUERY_NAMES)


def run_network(workload, queries, workers, faults=None):
    """A fresh NetworkRuntime per run."""
    net = NetworkRuntime(
        queries,
        Topology.ecmp(4, seed=3),
        workload.trace,
        window=3.0,
        time_limit=10,
        faults=faults,
    )
    return net.run(workload.trace, workers=workers)


def window_fields(report):
    return [
        {
            "index": w.index,
            "switch_tuples": w.switch_tuples,
            "collector_tuples": w.collector_tuples,
            "detections": w.detections,
            "missing_switches": w.missing_switches,
            "degraded": w.degraded,
            "quorum_scale": w.quorum_scale,
            "faults_injected": w.faults_injected,
        }
        for w in report.windows
    ]


class TestFaultFreeEquivalence:
    @pytest.fixture(scope="class")
    def reports(self, workload, queries):
        return {
            n: run_network(workload, queries, workers=n)
            for n in WORKER_COUNTS
        }

    def test_tuple_for_tuple_identical(self, reports):
        baseline = window_fields(reports[1])
        for n in WORKER_COUNTS[1:]:
            assert window_fields(reports[n]) == baseline, f"workers={n}"

    def test_detections_identical(self, reports):
        baseline = reports[1].detections()
        for n in WORKER_COUNTS[1:]:
            assert reports[n].detections() == baseline, f"workers={n}"

    def test_no_fault_draws_without_faults(self, reports):
        for n, report in reports.items():
            assert report.fault_draws == {}, f"workers={n}"


class TestFaultInjectionEquivalence:
    @pytest.fixture(scope="class")
    def reports(self, workload, queries):
        return {
            n: run_network(workload, queries, workers=n, faults=CHAOS)
            for n in WORKER_COUNTS
        }

    def test_windows_identical_under_chaos(self, reports):
        baseline = window_fields(reports[1])
        for n in WORKER_COUNTS[1:]:
            assert window_fields(reports[n]) == baseline, f"workers={n}"

    def test_rng_streams_pinned(self, reports):
        """Per-switch, per-channel draw counts must match: the workers'
        rebuilt fault injectors drew exactly the same stream positions."""
        baseline = reports[1].fault_draws
        assert baseline, "chaos spec injected nothing; test is vacuous"
        for n in WORKER_COUNTS[1:]:
            assert reports[n].fault_draws == baseline, f"workers={n}"

    def test_faults_actually_fired(self, reports):
        total = sum(
            count
            for w in reports[1].windows
            for count in w.faults_injected.values()
        )
        assert total > 0


class TestRepeatedRuns:
    SPEC = FaultSpec(
        seed=13,
        mirror_drop=0.05,
        mirror_reorder=0.05,
        late_drop=0.2,
        overflow_pressure=0.05,
        filter_update_loss=0.3,
    )

    def test_second_run_repeats_the_first(self, workload, queries):
        """Runs on one runtime, serial and parallel alternating, are all
        identical: every run restarts the fault streams and refinement
        tables (no fallback threshold, so no instance falls back)."""
        net = NetworkRuntime(
            queries,
            Topology.ecmp(4, seed=3),
            workload.trace,
            window=3.0,
            time_limit=10,
            faults=self.SPEC,
        )
        first = net.run(workload.trace, workers=1)
        assert first.fault_draws
        assert any(w.faults_injected for w in first.windows)
        for workers in (1, 2, 2):
            again = net.run(workload.trace, workers=workers)
            assert window_fields(again) == window_fields(first), f"workers={workers}"
            assert again.fault_draws == first.fault_draws, f"workers={workers}"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_second_run_repeats_the_first_after_fallback(self, queries, workers):
        """Instances that fell back to raw-mirror in one run are back on
        the switch at the start of the next, so serial runs, parallel
        runs and their repeats all agree."""
        from repro.faults import DegradationPolicy
        from repro.obs import Observability

        workload = build_workload(QUERY_NAMES, duration=12.0, pps=3_000, seed=1)
        obs = Observability()
        net = NetworkRuntime(
            queries,
            Topology.ecmp(2, seed=3),
            workload.trace,
            window=3.0,
            time_limit=10,
            faults=FaultSpec(seed=2, overflow_pressure=0.5),
            degradation=DegradationPolicy(fallback_overflow_threshold=0.2),
            obs=obs,
        )
        first = net.run(workload.trace, workers=1)
        assert obs.tracer.events_named("runtime.fallback"), "nothing fell back"
        for run_workers in (workers, 1):
            again = net.run(workload.trace, workers=run_workers)
            assert window_fields(again) == window_fields(first), run_workers
            assert again.fault_draws == first.fault_draws, run_workers


class TestEmptyTrace:
    def test_empty_trace_returns_empty_report(self, workload, queries):
        net = NetworkRuntime(
            queries,
            Topology.ecmp(3, seed=3),
            workload.trace,
            window=3.0,
            time_limit=10,
        )
        report = net.run(Trace.empty())
        assert report.empty_trace
        assert report.windows == []
        assert report.detections() == []
        # ...for any worker count
        report4 = net.run(Trace.empty(), workers=4)
        assert report4.empty_trace and report4.windows == []


class TestObsEquivalence:
    def test_merged_metrics_match_serial(self, workload, queries):
        """Counters merged back from workers equal the serial run's."""
        from repro.obs import Observability

        def counters(workers):
            obs = Observability()
            net = NetworkRuntime(
                queries,
                Topology.ecmp(4, seed=3),
                workload.trace,
                window=3.0,
                time_limit=10,
                obs=obs,
            )
            report = net.run(workload.trace, workers=workers)
            assert report.metrics is not None
            wanted = (
                "sonata_tuples_to_sp_total",
                "sonata_collector_tuples_total",
                "sonata_network_detections_total",
            )
            return {
                s.name: dict(s.values)
                for s in report.metrics.samples
                if s.name in wanted and s.kind == "counter"
            }

        serial = counters(1)
        parallel = counters(4)
        assert serial == parallel
