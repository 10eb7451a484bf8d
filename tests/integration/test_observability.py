"""Integration: the obs subsystem observes the whole pipeline faithfully.

One instrumented DDoS run (a workload that exercises iterative refinement,
so every stage — including dynamic filter-table updates — appears) is
shared across the assertions:

- the span tree covers every pipeline stage with correct nesting;
- every exported counter agrees with the authoritative ``RunReport`` /
  ``StreamProcessor.load_report`` numbers from the same run;
- fault injections surface as structured events that match the fault
  counters; and
- enabling observability never changes pipeline behaviour.
"""

import pytest

from repro.evaluation.workloads import build_workload
from repro.faults import FaultSpec
from repro.network import NetworkRuntime, Topology
from repro.obs import NULL_OBS, Observability
from repro.obs.exporters import parse_prometheus_text, prometheus_text
from repro.planner import QueryPlanner
from repro.queries.library import build_queries, build_query
from repro.runtime import SonataRuntime

#: Per-window stages every single-switch run must produce spans for.
WINDOW_STAGES = (
    "stage.switch",
    "stage.emitter",
    "stage.stream_processor",
    "stage.refine",
)


@pytest.fixture(scope="module")
def workload():
    return build_workload(["ddos"], duration=9.0, pps=1_500, seed=7)


@pytest.fixture(scope="module")
def plan(workload):
    planner = QueryPlanner(
        [build_query("ddos", qid=1)], workload.trace, window=3.0, time_limit=20
    )
    return planner.plan("sonata")


@pytest.fixture(scope="module")
def observed_run(plan, workload):
    """(obs, runtime, report) for one fully instrumented run."""
    obs = Observability()
    runtime = SonataRuntime(plan, obs=obs)
    report = runtime.run(workload.trace)
    return obs, runtime, report


class TestSpanCoverage:
    def test_every_stage_has_spans(self, observed_run):
        obs, _, report = observed_run
        names = {s.name for s in obs.tracer.spans}
        assert {"run", "window", *WINDOW_STAGES} <= names

    def test_refinement_produces_filter_updates(self, workload):
        # The sonata ILP picks a single-transition path on this small
        # trace, so force multi-level refinement (fix_ref walks every
        # level) to exercise dynamic filter-table updates.
        planner = QueryPlanner(
            [build_query("ddos", qid=1)], workload.trace, window=3.0, time_limit=20
        )
        plan = planner.plan("fix_ref")
        assert len(plan.query_plans[1].path) > 1
        obs = Observability()
        report = SonataRuntime(plan, obs=obs).run(workload.trace)
        updates = obs.tracer.spans_named("filter_update")
        assert updates, "multi-level refinement must trace filter updates"
        assert all(u.attrs.get("table") or u.attrs.get("deferred") for u in updates)
        assert report.metrics.total("sonata_filter_table_updates_total") > 0

    def test_one_window_span_per_window(self, observed_run):
        obs, _, report = observed_run
        windows = obs.tracer.spans_named("window")
        assert len(windows) == len(report.windows)

    def test_span_nesting(self, observed_run):
        obs, _, _ = observed_run
        (run_span,) = obs.tracer.spans_named("run")
        window_spans = obs.tracer.spans_named("window")
        assert all(w.parent_id == run_span.span_id for w in window_spans)
        window_ids = {w.span_id for w in window_spans}
        for stage in WINDOW_STAGES:
            for span in obs.tracer.spans_named(stage):
                assert span.parent_id in window_ids

    def test_stage_histogram_matches_span_count(self, observed_run):
        obs, _, report = observed_run
        h = obs.registry.get("sonata_stage_seconds")
        for stage in WINDOW_STAGES:
            spans = obs.tracer.spans_named(stage)
            assert h.count(stage=stage.removeprefix("stage.")) == len(spans)
            assert h.sum(stage=stage.removeprefix("stage.")) == pytest.approx(
                sum(s.duration for s in spans), rel=0.02
            )


class TestCounterAgreement:
    def test_report_carries_snapshot(self, observed_run):
        _, _, report = observed_run
        assert report.metrics is not None

    def test_headline_counters_match_report(self, observed_run):
        _, _, report = observed_run
        snap = report.metrics
        assert snap.value("sonata_windows_total") == len(report.windows)
        assert snap.value("sonata_packets_total") == sum(
            w.packets for w in report.windows
        )
        assert snap.total("sonata_tuples_to_sp_total") == report.total_tuples
        assert snap.value("sonata_tuples_to_sp_total", qid=1) == sum(
            w.tuples_to_sp.get(1, 0) for w in report.windows
        )
        assert snap.value("sonata_detections_total", qid=1) == sum(
            len(w.detections.get(1, [])) for w in report.windows
        )

    def test_sp_counters_match_load_report(self, observed_run):
        _, runtime, report = observed_run
        snap = report.metrics
        load = runtime.stream_processor.load_report()
        assert load, "the run must register stream instances"
        for key, stats in load.items():
            assert (
                snap.value("sonata_sp_tuples_in_total", instance=key)
                == stats["tuples_in"]
            )
            assert (
                snap.value("sonata_sp_tuples_out_total", instance=key)
                == stats["tuples_out"]
            )

    def test_overflow_accounting_matches_window_reports(self, observed_run):
        _, _, report = observed_run
        snap = report.metrics
        updates: dict[str, int] = {}
        overflows: dict[str, int] = {}
        for window in report.windows:
            for key, (ups, overs) in window.overflow_stats.items():
                updates[key] = updates.get(key, 0) + ups
                overflows[key] = overflows.get(key, 0) + overs
        assert sum(updates.values()) > 0
        for key, total in updates.items():
            assert (
                snap.value("sonata_register_updates_total", instance=key) == total
            )
        for key, total in overflows.items():
            assert (
                snap.value("sonata_register_overflows_total", instance=key)
                == total
            )

    def test_emitter_counter_matches_per_instance_tuples(self, observed_run):
        _, _, report = observed_run
        snap = report.metrics
        per_instance: dict[str, int] = {}
        for window in report.windows:
            for key, count in window.tuples_per_instance.items():
                per_instance[key] = per_instance.get(key, 0) + count
        for key, total in per_instance.items():
            assert (
                snap.value("sonata_emitter_tuples_total", instance=key) == total
            )

    def test_snapshot_exports_as_prometheus(self, observed_run):
        _, _, report = observed_run
        values = parse_prometheus_text(prometheus_text(report.metrics))
        assert values["sonata_windows_total"] == len(report.windows)


class TestFaultEvents:
    @pytest.fixture(scope="class")
    def faulty_run(self, plan, workload):
        obs = Observability()
        report = SonataRuntime(
            plan, faults=FaultSpec(seed=11, mirror_drop=0.2), obs=obs
        ).run(workload.trace)
        return obs, report

    def test_fault_events_match_fault_counts(self, faulty_run):
        obs, report = faulty_run
        injected = report.total_faults()
        assert injected.get("mirror_drop", 0) > 0
        events = obs.tracer.events_named("fault.mirror_drop")
        assert len(events) == injected["mirror_drop"]
        assert report.metrics.value(
            "sonata_faults_injected_total", channel="mirror_drop", scope=""
        ) == injected["mirror_drop"]

    def test_fault_events_carry_instance_attrs(self, faulty_run):
        obs, _ = faulty_run
        event = obs.tracer.events_named("fault.mirror_drop")[0]
        assert "instance" in event.attrs


class TestBehaviourUnchanged:
    def test_observability_does_not_change_results(self, plan, workload):
        plain = SonataRuntime(plan, obs=NULL_OBS).run(workload.trace)
        observed = SonataRuntime(plan, obs=Observability()).run(workload.trace)
        assert plain.total_tuples == observed.total_tuples
        assert [w.detections for w in plain.windows] == [
            w.detections for w in observed.windows
        ]
        assert plain.metrics is None  # disabled runs carry no snapshot


class TestNetworkWide:
    @pytest.fixture(scope="class")
    def network_run(self, workload):
        obs = Observability()
        net = NetworkRuntime(
            build_queries(["ddos"]),
            Topology.ecmp(2, seed=3),
            workload.trace,
            window=3.0,
            time_limit=10,
            obs=obs,
        )
        report = net.run(workload.trace)
        return obs, report

    def test_collector_merge_spans_per_window(self, network_run):
        obs, report = network_run
        merges = obs.tracer.spans_named("stage.collector_merge")
        assert len(merges) == len(report.windows)

    def test_per_switch_runs_nest_under_network_run(self, network_run):
        obs, _ = network_run
        runs = obs.tracer.spans_named("run")
        network = [s for s in runs if s.attrs.get("scope") == "network"]
        assert len(network) == 1
        switch_runs = [s for s in runs if s.attrs.get("scope") != "network"]
        assert len(switch_runs) == 2
        assert all(s.parent_id == network[0].span_id for s in switch_runs)

    def test_network_report_carries_metrics(self, network_run):
        obs, report = network_run
        assert report.metrics is not None
        assert report.metrics.value("sonata_collector_tuples_total") >= 0
        assert report.metrics.total("sonata_network_detections_total") == sum(
            1 for _ in report.detections()
        )
