"""Tests for the emitter: buffering, accounting, overflow adjustment."""

import pytest

from repro.core.expressions import Const
from repro.core.fields import TCP_SYN
from repro.core.query import PacketStream, Query
from repro.planner.plans import InstancePlan
from repro.runtime.emitter import Emitter
from repro.switch.compiler import compile_subquery
from repro.switch.mirror import MirroredBatch
from repro.switch.simulator import MirroredTuple


def make_plan(cut=4, threshold=10):
    stream = (
        PacketStream(name="q", qid=1)
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
        .filter(("count", "gt", threshold))
    )
    sq = Query(stream).subquery(0)
    compiled = compile_subquery(sq)
    return InstancePlan(
        qid=1,
        subid=0,
        r_prev=0,
        r_level=32,
        cut=cut,
        augmented=sq,
        compiled=compiled,
        tables=compiled.tables_for_partition(cut),
        stage_assignment=None,
        residual_ops=compiled.residual_operators(cut),
        est_tuples=0.0,
        read_filter_table=None,
    )


def mirrored(kind, fields, op_index, instance="q1.s0@0-32"):
    return MirroredTuple(instance=instance, kind=kind, fields=fields, op_index=op_index)


class TestBuffering:
    def test_stream_tuples_pass_through(self):
        plan = make_plan(cut=1)
        emitter = Emitter({plan.key: plan})
        emitter.ingest([mirrored("stream", {"ipv4.dIP": 5}, 1, plan.key)])
        batches = emitter.end_window({})
        assert batches[plan.key].rows == [{"ipv4.dIP": 5}]
        assert batches[plan.key].tuples_sent == 1

    def test_key_reports_counted(self):
        plan = make_plan()
        emitter = Emitter({plan.key: plan})
        reports = {
            plan.key: [mirrored("key_report", {"ipv4.dIP": 1, "count": 12}, 4, plan.key)]
        }
        batches = emitter.end_window(reports)
        assert batches[plan.key].tuples_sent == 1

    def test_window_isolation(self):
        plan = make_plan(cut=1)
        emitter = Emitter({plan.key: plan})
        emitter.ingest([mirrored("stream", {"ipv4.dIP": 5}, 1, plan.key)])
        emitter.end_window({})
        assert emitter.end_window({}) == {}

    def test_unexpected_kind_rejected(self):
        plan = make_plan()
        emitter = Emitter({plan.key: plan})
        with pytest.raises(ValueError):
            emitter.ingest([mirrored("key_report", {}, 4, plan.key)])


class TestBatches:
    def test_schema_conflict_raises(self):
        """No silent fallback: one instance's batches must share a schema."""
        plan = make_plan(cut=1)
        emitter = Emitter({plan.key: plan})
        emitter.ingest_items([
            MirroredBatch.from_tuples(
                plan.key, "stream", 1, [mirrored("stream", fields, 1)]
            )
            for fields in ({"ipv4.dIP": 5}, {"ipv4.dIP": 5, "ipv4.sIP": 1})
        ])
        with pytest.raises(ValueError):
            emitter.end_window({})


class TestOverflowAdjustment:
    def test_disjoint_overflow_union(self):
        """Overflowed keys are re-aggregated at the SP and thresholded."""
        plan = make_plan(cut=4, threshold=2)
        emitter = Emitter({plan.key: plan})
        # key 7 overflowed on every packet (op_index 2 = the reduce)
        for _ in range(4):
            emitter.ingest(
                [mirrored("overflow", {"ipv4.dIP": 7, "count": 1}, 2, plan.key)]
            )
        poll = emitter.overflow_instances()
        assert list(poll) == [plan.key]
        assert poll[plan.key].columns["ipv4.dIP"].tolist() == [7]
        # registers held key 9 with count 5 (polled, pre-threshold)
        reports = {
            plan.key: [mirrored("key_report", {"ipv4.dIP": 9, "count": 5}, 3, plan.key)]
        }
        batches = emitter.end_window(reports)
        rows = {r["ipv4.dIP"]: r["count"] for r in batches[plan.key].rows}
        assert rows == {7: 4, 9: 5}  # both above threshold 2

    def test_threshold_reapplied_after_merge(self):
        plan = make_plan(cut=4, threshold=10)
        emitter = Emitter({plan.key: plan})
        emitter.ingest(
            [mirrored("overflow", {"ipv4.dIP": 7, "count": 1}, 2, plan.key)]
        )
        reports = {
            plan.key: [mirrored("key_report", {"ipv4.dIP": 9, "count": 5}, 3, plan.key)]
        }
        batches = emitter.end_window(reports)
        assert batches[plan.key].rows == []  # neither key crosses 10
        assert batches[plan.key].tuples_sent == 2  # but both crossed the wire

    def test_split_key_contributions_merge(self):
        """A key counted partly on the switch and partly in overflow."""
        plan = make_plan(cut=4, threshold=5)
        emitter = Emitter({plan.key: plan})
        for _ in range(3):
            emitter.ingest(
                [mirrored("overflow", {"ipv4.dIP": 9, "count": 1}, 2, plan.key)]
            )
        reports = {
            plan.key: [mirrored("key_report", {"ipv4.dIP": 9, "count": 4}, 3, plan.key)]
        }
        batches = emitter.end_window(reports)
        assert batches[plan.key].rows == [{"ipv4.dIP": 9, "count": 7}]
