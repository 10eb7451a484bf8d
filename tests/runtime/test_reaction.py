"""Tests for closed-loop mitigation."""

import pytest

from repro.obs import Observability
from repro.packets import BackboneConfig, Trace, attacks, generate_backbone
from repro.planner import QueryPlanner
from repro.queries.library import build_query
from repro.runtime import SonataRuntime
from repro.runtime.reaction import (
    MitigationPolicy,
    Mitigator,
    run_with_mitigation,
)
from repro.runtime.runtime import WindowReport

VICTIM = 0x0A000001


@pytest.fixture(scope="module")
def setup(request):
    backbone = request.getfixturevalue("backbone_medium")
    attack = attacks.syn_flood(VICTIM, start=0.0, duration=12.0, pps=150, seed=2)
    trace = Trace.merge([backbone, attack])
    query = build_query("newly_opened_tcp_conns", qid=1, Th=120)
    planner = QueryPlanner([query], trace, window=3.0, time_limit=20)
    return trace, planner


class TestMitigation:
    def test_blocks_after_confirmation(self, setup):
        trace, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        policy = MitigationPolicy(qid=1, field="ipv4.dIP", confirm_windows=2)
        report, mitigator = run_with_mitigation(runtime, trace, [policy])
        blocks = [e for e in mitigator.log if e.action == "block"]
        assert any(e.value == VICTIM for e in blocks)
        # Blocking happens after exactly confirm_windows detections.
        first_block = min(e.window_index for e in blocks if e.value == VICTIM)
        assert first_block == 1  # detected in windows 0 and 1

    def test_dropped_traffic_disappears_from_telemetry(self, setup):
        trace, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        policy = MitigationPolicy(
            qid=1, field="ipv4.dIP", confirm_windows=1, ttl_windows=100
        )
        report, mitigator = run_with_mitigation(runtime, trace, [policy])
        assert runtime.switch.packets_dropped > 0
        # once blocked, the victim stops being detected
        later = [
            row["ipv4.dIP"]
            for w in report.windows[2:]
            for row in w.detections.get(1, [])
        ]
        assert VICTIM not in later

    def test_rules_expire(self, setup):
        trace, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        policy = MitigationPolicy(
            qid=1, field="ipv4.dIP", confirm_windows=1, ttl_windows=1
        )
        report, mitigator = run_with_mitigation(runtime, trace, [policy])
        expires = [e for e in mitigator.log if e.action == "expire"]
        assert expires, "short-TTL rules must expire during the run"

    def test_confirmation_spares_transients(self, setup):
        trace, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        mitigator = Mitigator(
            runtime,
            [MitigationPolicy(qid=1, field="ipv4.dIP", confirm_windows=3)],
        )
        # one-off detection followed by silence: never blocked
        w0 = WindowReport(0, 0, 3, 100, {1: 1},
                          {1: [{"ipv4.dIP": 99, "count": 200}]}, {})
        w1 = WindowReport(1, 3, 6, 100, {1: 0}, {1: []}, {})
        mitigator.observe(w0)
        mitigator.observe(w1)
        mitigator.observe(w0)
        assert mitigator.active_rules() == set()

    def test_expiry_names_the_query_that_installed_the_rule(self, setup):
        _, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        mitigator = Mitigator(
            runtime,
            [
                MitigationPolicy(qid=1, field="ipv4.dIP", confirm_windows=1,
                                 ttl_windows=1),
                MitigationPolicy(qid=2, field="ipv4.dIP", confirm_windows=1,
                                 ttl_windows=1),
            ],
        )
        fires = WindowReport(0, 0, 3, 100, {2: 1},
                             {2: [{"ipv4.dIP": 99, "count": 200}]}, {})
        quiet = WindowReport(1, 3, 6, 100, {2: 0}, {2: []}, {})
        mitigator.observe(fires)
        mitigator.observe(quiet)
        assert [(e.action, e.qid) for e in mitigator.log] == [
            ("block", 2), ("expire", 2)
        ]

    def test_empty_trace_is_marked(self, setup):
        _, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        policy = MitigationPolicy(qid=1, field="ipv4.dIP")
        report, mitigator = run_with_mitigation(runtime, Trace.empty(), [policy])
        assert report.empty_trace
        assert report.windows == [] and mitigator.log == []

    def test_run_bookkeeping(self, setup):
        """A mitigation run is a run: one ``run`` span and a metrics
        snapshot under an enabled Observability."""
        trace, planner = setup
        obs = Observability()
        runtime = SonataRuntime(planner.plan("max_dp"), obs=obs)
        policy = MitigationPolicy(qid=1, field="ipv4.dIP")
        report, _ = run_with_mitigation(runtime, trace, [policy])
        assert report.metrics is not None
        assert len(obs.tracer.spans_named("run")) == 1
        windows = obs.tracer.spans_named("window")
        assert len(windows) == len(report.windows)

    def test_control_plane_cost_charged(self, setup):
        trace, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        before = runtime.switch.control_plane_seconds
        runtime.switch.add_drop_rule("ipv4.dIP", VICTIM)
        assert runtime.switch.control_plane_seconds > before


class TestRetrainingSignal:
    def test_overflow_triggers_retrain_callback(self, setup):
        """§5: 'when it detects too many hash collisions, the runtime
        triggers the query planner to re-run the ILP'."""
        from repro.switch.registers import RegisterSpec

        trace, planner = setup
        plan = planner.plan("max_dp")
        inst = plan.query_plans[1].instances[0]
        inst.tables = [
            t.sized(
                RegisterSpec(t.register.name, n_slots=8, d=1,
                             key_bits=t.register.key_bits,
                             value_bits=t.register.value_bits)
            )
            if t.stateful
            else t
            for t in inst.tables
        ]
        inst.stage_assignment = None
        runtime = SonataRuntime(plan, retrain_overflow_threshold=0.05)
        fired = []

        def on_window(report):
            if runtime.retrain_signals[-1:] == [report.index]:
                fired.append(report)

        runtime.run(trace, on_window=on_window)
        assert runtime.retrain_signals, "undersized registers must signal"
        assert [r.index for r in fired] == runtime.retrain_signals
        assert fired[0].overflow_stats

    def test_well_sized_registers_stay_quiet(self, setup):
        trace, planner = setup
        runtime = SonataRuntime(planner.plan("max_dp"))
        runtime.run(trace)
        assert runtime.retrain_signals == []


class TestReplanClosesTheLoop:
    def test_replan_fixes_undersized_registers(self, setup):
        """§5 end to end: overflow signal -> re-plan on recent traffic ->
        the new plan's registers absorb the key population."""
        from repro.planner.planner import replan
        from repro.switch.registers import RegisterSpec

        trace, planner = setup
        plan = planner.plan("max_dp")
        inst = plan.query_plans[1].instances[0]
        inst.tables = [
            t.sized(
                RegisterSpec(t.register.name, n_slots=8, d=1,
                             key_bits=t.register.key_bits,
                             value_bits=t.register.value_bits)
            )
            if t.stateful
            else t
            for t in inst.tables
        ]
        inst.stage_assignment = None

        runtime = SonataRuntime(plan)
        signalled = []

        def on_window(report):
            if runtime.retrain_signals[-1:] == [report.index]:
                signalled.append(report.index)

        first_run = runtime.run(trace, on_window=on_window)
        assert signalled, "the undersized plan must signal"

        # Re-plan on the traffic that caused the signal, swap runtimes.
        new_plan = replan(plan, trace, window=3.0, time_limit=20)
        new_runtime = SonataRuntime(new_plan)
        second_run = new_runtime.run(trace)
        assert not new_runtime.retrain_signals, "re-planned registers hold"
        assert second_run.total_tuples <= first_run.total_tuples


class TestRepeatedMitigationRuns:
    """Every run starts from a fresh install: a drop rule a mitigation run
    leaves behind does not leak into the next run (the set-up of
    ``examples/closed_loop_mitigation.py``)."""

    @pytest.fixture(scope="class")
    def flood(self):
        backbone = generate_backbone(BackboneConfig(duration=24.0, pps=1_500))
        attack = attacks.syn_flood(0xCB007132, start=3.0, duration=21.0, pps=200)
        trace = Trace.merge([backbone, attack])
        query = build_query("newly_opened_tcp_conns", qid=1, Th=150)
        plan = QueryPlanner([query], trace, window=3.0).plan("sonata")
        policy = MitigationPolicy(
            qid=1, field="ipv4.dIP", confirm_windows=2, ttl_windows=3
        )
        return trace, plan, policy

    @staticmethod
    def _per_window(report):
        return [(w.detections, w.tuples_to_sp) for w in report.windows]

    def test_run_after_mitigation_equals_a_fresh_run(self, flood):
        trace, plan, policy = flood
        runtime = SonataRuntime(plan)
        mitigated, mitigator = run_with_mitigation(runtime, trace, [policy])
        assert mitigator.active_rules(), "the set-up ends with a rule installed"
        fresh = SonataRuntime(plan).run(trace)
        assert self._per_window(runtime.run(trace)) == self._per_window(fresh)
        assert self._per_window(mitigated) != self._per_window(fresh)

    def test_mitigation_runs_repeat(self, flood):
        trace, plan, policy = flood
        runtime = SonataRuntime(plan)
        first, first_mitigator = run_with_mitigation(runtime, trace, [policy])
        second, second_mitigator = run_with_mitigation(runtime, trace, [policy])
        assert first_mitigator.log
        assert second == first
        assert second_mitigator.log == first_mitigator.log
