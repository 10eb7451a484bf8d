"""FaultInjector channel behaviour + fault-injected runtime execution."""

import numpy as np
import pytest

from repro.faults import DegradationPolicy, FaultInjector, FaultSpec
from repro.faults.injector import SWITCH_FAILED, SWITCH_OK, SWITCH_TIMEOUT
from repro.packets import Trace, attacks
from repro.planner import QueryPlanner
from repro.queries.library import build_query
from repro.runtime import SonataRuntime
from repro.switch.mirror import MirroredBatch
from repro.switch.simulator import MirroredTuple

VICTIM = 0x0A000001


def make_tuples(n):
    return [
        MirroredTuple(instance="q1", kind="stream", fields={"i": i}, op_index=0)
        for i in range(n)
    ]


class TestMirrorChannel:
    def test_no_rates_is_identity(self):
        injector = FaultInjector(FaultSpec(seed=1))
        tuples = make_tuples(10)
        assert injector.mirror(tuples) is tuples
        assert injector.take_window_counts() == {}

    def test_drop_all(self):
        injector = FaultInjector(FaultSpec(seed=1, mirror_drop=1.0))
        assert injector.mirror(make_tuples(20)) == []
        assert injector.take_window_counts() == {"mirror_drop": 20}

    def test_duplicate_all(self):
        injector = FaultInjector(FaultSpec(seed=1, mirror_duplicate=1.0))
        out = injector.mirror(make_tuples(5))
        assert len(out) == 10
        assert [t.fields["i"] for t in out] == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]

    def test_reorder_defers_to_window_end(self):
        injector = FaultInjector(FaultSpec(seed=1, mirror_reorder=0.5))
        out = [t.fields["i"] for t in injector.mirror(make_tuples(40))]
        late = injector.take_window_counts()["mirror_reorder"]
        assert 0 < late < 40
        # nothing is lost; on-time tuples keep their order, and the
        # delayed ones follow them, in order, at the window deadline
        assert sorted(out) == list(range(40))
        on_time, deferred = out[: 40 - late], out[40 - late :]
        assert on_time == sorted(on_time) and deferred == sorted(deferred)
        assert out != list(range(40))

    def test_late_drop_applies_only_to_deferred(self):
        injector = FaultInjector(
            FaultSpec(seed=1, mirror_reorder=1.0, late_drop=1.0)
        )
        assert injector.mirror(make_tuples(4)) == []
        assert injector.take_window_counts() == {
            "mirror_reorder": 4,
            "late_drop": 4,
        }

    def test_key_reports_never_reordered(self):
        injector = FaultInjector(FaultSpec(seed=1, mirror_reorder=1.0))
        out = injector.mirror(make_tuples(6), allow_reorder=False)
        assert len(out) == 6

    def test_deterministic_across_instances(self):
        spec = FaultSpec(seed=9, mirror_drop=0.4, mirror_duplicate=0.2)
        a = FaultInjector(spec, scope="x").mirror(make_tuples(200))
        b = FaultInjector(spec, scope="x").mirror(make_tuples(200))
        assert [t.fields["i"] for t in a] == [t.fields["i"] for t in b]

    def test_batch_plan_matches_tuple_plan(self):
        """A columnar batch and its per-packet tuples get the same plan."""
        spec = FaultSpec(
            seed=4, mirror_drop=0.2, mirror_duplicate=0.2,
            mirror_reorder=0.2, late_drop=0.3,
        )
        tuples = make_tuples(300)
        batch = MirroredBatch.from_tuples("q1", "stream", 0, tuples)
        batch.rows = np.arange(300)
        a = FaultInjector(spec, scope="s")
        b = FaultInjector(spec, scope="s")
        for injector in (a, b):
            injector.begin_window(3)
        by_tuple = [t.fields for t in a.mirror(tuples)]
        by_batch = b.mirror_batch(batch)
        assert [t.fields for t in by_batch.materialize()] == by_tuple
        assert by_batch.rows.tolist() == [f["i"] for f in by_tuple]
        assert a.take_window_counts() == b.take_window_counts()
        assert a.rng_draws() == b.rng_draws()

    def test_streams_are_keyed_by_window_and_position(self):
        spec = FaultSpec(seed=9, mirror_drop=0.5)
        injector = FaultInjector(spec)
        injector.begin_window(0)
        first = [t.fields["i"] for t in injector.mirror(make_tuples(200))]
        # the same stream, continued, draws new positions...
        again = [t.fields["i"] for t in injector.mirror(make_tuples(200))]
        assert again != first
        # ...and restarts when the window is begun again
        injector.begin_window(0)
        assert [t.fields["i"] for t in injector.mirror(make_tuples(200))] == first
        injector.begin_window(1)
        assert [t.fields["i"] for t in injector.mirror(make_tuples(200))] != first

    def test_scopes_are_independent_streams(self):
        spec = FaultSpec(seed=9, mirror_drop=0.5)
        a = FaultInjector(spec, scope="switch0").mirror(make_tuples(200))
        b = FaultInjector(spec, scope="switch1").mirror(make_tuples(200))
        assert [t.fields["i"] for t in a] != [t.fields["i"] for t in b]


class TestOtherChannels:
    def test_force_overflow_rates(self):
        assert not FaultInjector(FaultSpec(seed=1)).force_overflow("q1")
        injector = FaultInjector(FaultSpec(seed=1, overflow_pressure=1.0))
        assert all(injector.force_overflow("q1") for _ in range(10))
        assert injector.take_window_counts() == {"forced_overflow": 10}

    def test_force_overflow_mask_matches_per_update_draws(self):
        spec = FaultSpec(seed=3, overflow_pressure=0.3)
        per_update = FaultInjector(spec)
        vectorized = FaultInjector(spec)
        expected = [per_update.force_overflow("q1", 2) for _ in range(500)]
        mask = vectorized.force_overflow_mask("q1", 2, 200)
        mask = np.concatenate([mask, vectorized.force_overflow_mask("q1", 2, 300)])
        assert mask.tolist() == expected
        assert 0 < sum(expected) < 500
        assert per_update.rng_draws() == vectorized.rng_draws() == {"overflow": 500}

    def test_filter_update_outcomes(self):
        assert FaultInjector(FaultSpec(seed=1)).filter_update_outcome() == "ok"
        lossy = FaultInjector(FaultSpec(seed=1, filter_update_loss=1.0))
        assert lossy.filter_update_outcome() == "loss"
        slow = FaultInjector(FaultSpec(seed=1, filter_update_delay=1.0))
        assert slow.filter_update_outcome() == "delay"

    def test_switch_down_always_failed(self):
        injector = FaultInjector(FaultSpec(seed=1, switch_down=(1,)))
        assert injector.switch_report(1, 0) == SWITCH_FAILED
        assert injector.switch_report(0, 0) == SWITCH_OK
        assert injector.switch_report(2, 5) == SWITCH_OK

    def test_switch_report_deterministic_per_window(self):
        spec = FaultSpec(seed=7, switch_fail=0.5, collector_timeout=0.5)
        a = FaultInjector(spec, scope="collector")
        b = FaultInjector(spec, scope="collector")
        # order of queries must not matter
        outcomes_a = [a.switch_report(s, w) for w in range(8) for s in range(3)]
        outcomes_b = [
            b.switch_report(s, w) for s in range(3) for w in range(8)
        ]
        as_map_a = dict(zip([(s, w) for w in range(8) for s in range(3)], outcomes_a))
        as_map_b = dict(zip([(s, w) for s in range(3) for w in range(8)], outcomes_b))
        assert as_map_a == as_map_b
        assert SWITCH_FAILED in outcomes_a and SWITCH_TIMEOUT in outcomes_a


@pytest.fixture(scope="module")
def flood_trace(request):
    backbone = request.getfixturevalue("backbone_small")
    attack = attacks.syn_flood(VICTIM, start=0.0, duration=6.0, pps=150, seed=2)
    return Trace.merge([backbone, attack])


@pytest.fixture(scope="module")
def flood_plan(flood_trace):
    query = build_query("newly_opened_tcp_conns", qid=1, Th=100)
    planner = QueryPlanner([query], flood_trace, window=3.0, time_limit=15)
    return planner.plan("sonata")


class TestRuntimeInjection:
    def test_same_seed_identical_accounting(self, flood_plan, flood_trace):
        spec = FaultSpec(
            seed=13, mirror_drop=0.2, mirror_duplicate=0.1,
            mirror_reorder=0.2, late_drop=0.3, overflow_pressure=0.2,
        )
        a = SonataRuntime(flood_plan, faults=spec).run(flood_trace)
        b = SonataRuntime(flood_plan, faults=spec).run(flood_trace)
        assert a.total_tuples == b.total_tuples
        for wa, wb in zip(a.windows, b.windows):
            assert wa.faults_injected == wb.faults_injected
            assert wa.tuples_to_sp == wb.tuples_to_sp
            assert wa.detections == wb.detections
            assert wa.degraded == wb.degraded

    def test_different_seed_differs(self):
        a = FaultInjector(FaultSpec(seed=13, mirror_drop=0.5)).mirror(
            make_tuples(500)
        )
        b = FaultInjector(FaultSpec(seed=14, mirror_drop=0.5)).mirror(
            make_tuples(500)
        )
        assert [t.fields["i"] for t in a] != [t.fields["i"] for t in b]

    def test_null_spec_matches_no_faults_exactly(self, flood_plan, flood_trace):
        plain = SonataRuntime(flood_plan).run(flood_trace)
        nulled = SonataRuntime(flood_plan, faults=FaultSpec(seed=99)).run(
            flood_trace
        )
        assert nulled.total_tuples == plain.total_tuples
        for wa, wb in zip(nulled.windows, plain.windows):
            assert wa.detections == wb.detections
            assert wa.faults_injected == {}
            assert not wa.degraded

    def test_drop_sheds_tuples(self, flood_plan, flood_trace):
        plain = SonataRuntime(flood_plan).run(flood_trace)
        dropped = SonataRuntime(
            flood_plan, faults=FaultSpec(seed=5, mirror_drop=0.6)
        ).run(flood_trace)
        assert dropped.total_tuples < plain.total_tuples
        assert dropped.total_faults()["mirror_drop"] > 0

    def test_reorder_within_window_is_harmless(self, flood_plan, flood_trace):
        """Pure reorder (no deadline misses) must not change results."""
        plain = SonataRuntime(flood_plan).run(flood_trace)
        shuffled = SonataRuntime(
            flood_plan, faults=FaultSpec(seed=5, mirror_reorder=0.5)
        ).run(flood_trace)
        for wa, wb in zip(shuffled.windows, plain.windows):
            assert wa.detections == wb.detections
        assert shuffled.total_tuples == plain.total_tuples

    def test_overflow_pressure_triggers_retrain_signal(
        self, flood_plan, flood_trace
    ):
        runtime = SonataRuntime(
            flood_plan,
            faults=FaultSpec(seed=5, overflow_pressure=0.5),
            retrain_overflow_threshold=0.05,
        )
        runtime.run(flood_trace)
        assert runtime.retrain_signals

    def test_fallback_to_raw_mirror(self, flood_plan, flood_trace):
        runtime = SonataRuntime(
            flood_plan,
            faults=FaultSpec(seed=5, overflow_pressure=0.9),
            degradation=DegradationPolicy(fallback_overflow_threshold=0.3),
        )
        report = runtime.run(flood_trace)
        assert runtime.fallen_back
        assert not runtime.switch.instances  # the sole instance came off
        fallback_window = next(
            w.index
            for w in report.windows
            if any(e.startswith("fallback:") for e in w.degradation_events)
        )
        # every window from the fallback on is marked degraded…
        assert all(w.degraded for w in report.windows[fallback_window:])
        # …and raw-mirror execution is exact: detections match ground truth
        from repro.analytics import execute_query

        query = flood_plan.query_plans[1].query
        for window, (_, sub) in zip(
            report.windows, flood_trace.windows(3.0)
        ):
            if window.index <= fallback_window:
                continue
            truth = {row["ipv4.dIP"] for row in execute_query(query, sub)}
            got = {row["ipv4.dIP"] for row in window.detections.get(1, [])}
            assert got == truth

    def test_wire_check_composes_with_faults(self, flood_plan, flood_trace):
        spec = FaultSpec(seed=3, mirror_drop=0.2, mirror_duplicate=0.2)
        checked = SonataRuntime(flood_plan, faults=spec, wire_check=True).run(
            flood_trace
        )
        plain = SonataRuntime(flood_plan, faults=spec).run(flood_trace)
        assert checked.total_tuples == plain.total_tuples


class TestFilterUpdateDegradation:
    @pytest.fixture(scope="class")
    def refined_plan(self, flood_trace):
        query = build_query("newly_opened_tcp_conns", qid=1, Th=100)
        planner = QueryPlanner([query], flood_trace, window=3.0, time_limit=15)
        return planner.plan("fix_ref")

    def test_lost_updates_recorded_not_raised(self, refined_plan, flood_trace):
        runtime = SonataRuntime(
            refined_plan, faults=FaultSpec(seed=2, filter_update_loss=1.0)
        )
        report = runtime.run(flood_trace)  # must not raise
        lost = [
            e
            for w in report.windows
            for e in w.degradation_events
            if e.startswith("filter_update_lost:")
        ]
        assert lost
        assert any(w.degraded for w in report.windows)
        assert report.total_faults()["filter_update_loss"] > 0
        # each loss burned the full retry budget
        policy = runtime.degradation
        assert report.total_faults()["filter_update_loss"] == len(lost) * (
            policy.filter_update_retries + 1
        )

    def test_retry_recovers_transient_loss(self, refined_plan, flood_trace):
        """A 50% lossy control plane: every loss this seeded run sees is
        recovered within the retry budget, so refinement state — and
        therefore every detection — matches the fault-free run exactly."""
        base = SonataRuntime(refined_plan).run(flood_trace)
        runtime = SonataRuntime(
            refined_plan, faults=FaultSpec(seed=6, filter_update_loss=0.5)
        )
        report = runtime.run(flood_trace)
        assert report.total_faults()["filter_update_loss"] > 0
        lost = [
            e
            for w in report.windows
            for e in w.degradation_events
            if e.startswith("filter_update_lost:")
        ]
        assert not lost  # transient: retries absorbed every loss
        for wa, wb in zip(report.windows, base.windows):
            assert wa.detections == wb.detections
            assert wa.level_outputs == wb.level_outputs
        # the backoff latency of the retries is charged to the window
        assert any(
            wa.filter_update_seconds > wb.filter_update_seconds
            for wa, wb in zip(report.windows, base.windows)
        )

    def test_delayed_update_lands_next_window(self, refined_plan, flood_trace):
        runtime = SonataRuntime(
            refined_plan, faults=FaultSpec(seed=2, filter_update_delay=1.0)
        )
        report = runtime.run(flood_trace)
        delayed = [
            e
            for w in report.windows
            for e in w.degradation_events
            if e.startswith("filter_update_delayed:")
        ]
        assert delayed
        # delayed (stale-by-one-window) refinement can slow zooming but
        # must never invent detections
        from repro.analytics import execute_query

        query = refined_plan.query_plans[1].query
        for window, (_, sub) in zip(report.windows, flood_trace.windows(3.0)):
            truth = {row["ipv4.dIP"] for row in execute_query(query, sub)}
            got = {row["ipv4.dIP"] for row in window.detections.get(1, [])}
            assert got <= truth
