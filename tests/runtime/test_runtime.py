"""End-to-end runtime tests: plans executed over traces, vs ground truth."""

import pytest

from repro.analytics import execute_query
from repro.packets import Trace, attacks
from repro.planner import QueryPlanner
from repro.planner.plans import Plan
from repro.queries.library import build_query
from repro.runtime import SonataRuntime

VICTIM = 0x0A000001


@pytest.fixture(scope="module")
def trace(request):
    backbone = request.getfixturevalue("backbone_medium")
    attack = attacks.syn_flood(VICTIM, start=0.0, duration=12.0, pps=100, seed=2)
    return Trace.merge([backbone, attack])


@pytest.fixture(scope="module")
def query():
    return build_query("newly_opened_tcp_conns", qid=1, Th=120)


@pytest.fixture(scope="module")
def planner(trace, query):
    return QueryPlanner([query], trace, window=3.0, time_limit=20)


def truth_per_window(query, trace, window=3.0):
    return [
        {row["ipv4.dIP"] for row in execute_query(query, sub)}
        for _, sub in trace.windows(window)
    ]


class TestDetectionCorrectness:
    @pytest.mark.parametrize("mode", ["sonata", "max_dp", "all_sp", "filter_dp"])
    def test_unrefined_modes_match_ground_truth(self, planner, trace, query, mode):
        plan = planner.plan(mode)
        if any(len(p.path) > 1 for p in plan.query_plans.values()):
            pytest.skip("plan chose refinement; covered separately")
        report = SonataRuntime(plan).run(trace)
        truth = truth_per_window(query, trace)
        for window, expected in zip(report.windows, truth):
            got = {row["ipv4.dIP"] for row in window.detections.get(1, [])}
            assert got == expected

    def test_refined_plan_detects_persistent_attack(self, planner, trace, query):
        plan = planner.plan("fix_ref")
        report = SonataRuntime(plan).run(trace)
        delay = plan.query_plans[1].detection_delay_windows
        truth = truth_per_window(query, trace)
        # after the pipeline fills, the victim must be caught every window
        for window, expected in zip(report.windows[delay:], truth[delay:]):
            got = {row["ipv4.dIP"] for row in window.detections.get(1, [])}
            assert VICTIM in got or VICTIM not in expected

    def test_no_false_positives_after_warmup(self, planner, trace, query):
        plan = planner.plan("fix_ref")
        report = SonataRuntime(plan).run(trace)
        truth = truth_per_window(query, trace)
        for window, expected in zip(report.windows, truth):
            got = {row["ipv4.dIP"] for row in window.detections.get(1, [])}
            assert got <= expected  # refinement may delay but never invent


class TestLoadAccounting:
    def test_sonata_beats_all_sp(self, planner, trace):
        sonata = SonataRuntime(planner.plan("sonata")).run(trace)
        all_sp = SonataRuntime(planner.plan("all_sp")).run(trace)
        assert sonata.total_tuples < all_sp.total_tuples / 50

    def test_all_sp_counts_every_packet(self, planner, trace):
        report = SonataRuntime(planner.plan("all_sp")).run(trace)
        assert report.total_tuples == len(trace)

    def test_tuples_per_query_sums_to_total(self, planner, trace):
        report = SonataRuntime(planner.plan("sonata")).run(trace)
        assert sum(report.tuples_per_query().values()) == report.total_tuples

    def test_per_instance_accounting(self, planner, trace):
        report = SonataRuntime(planner.plan("sonata")).run(trace)
        for window in report.windows:
            assert sum(window.tuples_per_instance.values()) == window.total_tuples


class TestRefinementMechanics:
    def test_refinement_zooms_one_level_per_window(self, planner, trace):
        """Fix-REF must reach the victim one prefix level per window."""
        plan = planner.plan("fix_ref")
        runtime = SonataRuntime(plan)
        report = runtime.run(trace)
        for index, level in enumerate(plan.query_plans[1].path):
            window = report.windows[index]
            keys = {
                row["ipv4.dIP"] for row in window.level_outputs[(1, level)]
            }
            assert ((VICTIM >> (32 - level)) << (32 - level)) in keys
        assert any(w.filter_update_seconds > 0 for w in report.windows)

    def test_update_cost_within_window(self, planner, trace):
        plan = planner.plan("fix_ref")
        report = SonataRuntime(plan).run(trace)
        for window in report.windows:
            assert window.filter_update_seconds < 3.0 * 0.05  # §6.2: ~5% of W

    def test_first_detection_delay(self, planner, trace):
        plan = planner.plan("fix_ref")
        report = SonataRuntime(plan).run(trace)
        delay = plan.query_plans[1].detection_delay_windows
        first = report.first_detection(1)
        assert first is not None
        assert first == pytest.approx(trace.start_ts + delay * 3.0, abs=3.1)


class TestOverflowPath:
    def test_detections_survive_undersized_registers(self, trace, query):
        """Force heavy register overflow; the SP adjustment must cover it."""
        from repro.switch.registers import RegisterSpec

        planner = QueryPlanner([query], trace, window=3.0, time_limit=20)
        plan = planner.plan("max_dp")
        inst = plan.query_plans[1].instances[0]
        tiny = [
            t.sized(
                RegisterSpec(t.register.name, n_slots=16, d=1,
                             key_bits=t.register.key_bits,
                             value_bits=t.register.value_bits)
            )
            if t.stateful
            else t
            for t in inst.tables
        ]
        inst.tables = tiny
        inst.stage_assignment = None  # re-place first-fit with new sizes
        report = SonataRuntime(plan).run(trace)
        truth = truth_per_window(query, trace)
        for window, expected in zip(report.windows, truth):
            got = {row["ipv4.dIP"] for row in window.detections.get(1, [])}
            assert got == expected


class TestEmptyTrace:
    def test_run_on_empty_trace_is_marked_not_misleading(self, planner):
        """Zero windows must yield an explicitly-empty report, not a
        'clean run with zero detections' that helpers misread."""
        plan = planner.plan("sonata")
        report = SonataRuntime(plan).run(Trace.empty())
        assert report.empty_trace
        assert report.windows == []
        assert report.first_detection(1) is None
        assert report.total_tuples == 0
        assert report.detections() == []
        assert report.tuples_per_query() == {}
        assert report.degraded_windows == []

    def test_nonempty_run_not_marked(self, planner, trace):
        report = SonataRuntime(planner.plan("sonata")).run(trace)
        assert not report.empty_trace
        assert report.windows


class TestOneInstallPerRun:
    def test_construction_installs_nothing_and_each_run_installs_once(
        self, planner, trace, monkeypatch
    ):
        plan = planner.plan("sonata")
        installs = []
        original = Plan.install

        def spy(self, switch):
            installs.append(switch)
            return original(self, switch)

        monkeypatch.setattr(Plan, "install", spy)
        runtime = SonataRuntime(plan)
        assert installs == []
        runtime.run(trace)
        assert len(installs) == 1 and installs[0] is runtime.switch
        runtime.run(trace)
        assert len(installs) == 2 and installs[1] is runtime.switch


def signalled_windows(runtime, trace):
    """Run ``trace``, reading the retrain signal from the window hook:
    the windows whose close appended to ``retrain_signals``."""
    fired = []

    def on_window(report):
        if runtime.retrain_signals[-1:] == [report.index]:
            fired.append(report.index)

    runtime.run(trace, on_window=on_window)
    return fired


class TestRetrainSignal:
    def test_overflow_fires_retrain_once_per_offending_window(self, trace, query):
        """§5: sustained register overflow above the threshold raises the
        re-planning signal — exactly once per offending window, and the
        same windows again on a second run of the same runtime."""
        from repro.switch.registers import RegisterSpec

        planner = QueryPlanner([query], trace, window=3.0, time_limit=20)
        plan = planner.plan("max_dp")
        inst = plan.query_plans[1].instances[0]
        inst.tables = [
            t.sized(
                RegisterSpec(t.register.name, n_slots=16, d=1,
                             key_bits=t.register.key_bits,
                             value_bits=t.register.value_bits)
            )
            if t.stateful
            else t
            for t in inst.tables
        ]
        inst.stage_assignment = None
        runtime = SonataRuntime(plan, retrain_overflow_threshold=0.05)
        report = runtime.run(trace)
        offending = [
            w.index
            for w in report.windows
            if any(w.overflow_rate(key) > 0.05 for key in w.overflow_stats)
        ]
        assert offending, "tiny registers should overflow every busy window"
        assert runtime.retrain_signals == offending  # once each, in order
        fired = signalled_windows(runtime, trace)
        assert fired == offending  # a second run signals the same windows
        assert runtime.retrain_signals == offending

    def test_no_retrain_below_threshold(self, planner, trace):
        runtime = SonataRuntime(
            planner.plan("max_dp"),
            retrain_overflow_threshold=1.0,  # unreachable
        )
        assert signalled_windows(runtime, trace) == []
        assert runtime.retrain_signals == []


class TestMultiQuery:
    def test_two_queries_isolated(self, request):
        backbone = request.getfixturevalue("backbone_medium")
        flood = attacks.syn_flood(VICTIM, duration=12.0, pps=100, seed=2)
        spreader = attacks.superspreader(0x0C0C0C0C, duration=12.0,
                                         n_destinations=900, seed=3)
        trace = Trace.merge([backbone, flood, spreader])
        q1 = build_query("newly_opened_tcp_conns", qid=1, Th=120)
        q2 = build_query("superspreader", qid=2, Th=150)
        planner = QueryPlanner([q1, q2], trace, window=3.0, time_limit=20)
        report = SonataRuntime(planner.plan("sonata")).run(trace)
        found_flood = any(
            any(r["ipv4.dIP"] == VICTIM for r in w.detections.get(1, []))
            for w in report.windows
        )
        found_spreader = any(
            any(r["ipv4.sIP"] == 0x0C0C0C0C for r in w.detections.get(2, []))
            for w in report.windows
        )
        assert found_flood and found_spreader


class TestPlanArtifacts:
    def test_export_plan_writes_programs(self, planner, tmp_path):
        from repro.runtime.drivers import compile_plan, export_plan

        plan = planner.plan("sonata")
        artifacts = compile_plan(plan)
        assert "V1Switch(" in artifacts.p4_program
        assert set(artifacts.streaming_programs) == {"newly_opened_tcp_conns"}
        paths = export_plan(plan, str(tmp_path / "artifacts"))
        assert any(p.endswith("sonata.p4") for p in paths)
        for path in paths:
            with open(path) as fh:
                assert fh.read().strip()

    def test_streaming_artifacts_are_valid_python(self, planner):
        from repro.runtime.drivers import compile_plan

        artifacts = compile_plan(planner.plan("fix_ref"))
        for name, code in artifacts.streaming_programs.items():
            compile(code, f"<{name}>", "exec")
