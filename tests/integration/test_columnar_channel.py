"""The columnar mirror channel carries every library query without rows.

On the batched engine the switch's :class:`~repro.switch.mirror.MirroredBatch`
items travel switch → emitter → stream processor as batches: no per-tuple
ingest, no row assembly in the emitter and no row-wise residual execution
at the stream processor. Each library query is run on that channel with
those row paths probed, and its window reports — ``level_outputs`` and
``faults_injected`` included — must equal the per-packet
``engine="rowwise"`` oracle's.
"""

import pytest

from repro.evaluation.workloads import build_workload
from repro.planner import QueryPlanner
from repro.queries.library import QUERY_LIBRARY, build_queries
from repro.runtime import SonataRuntime
from repro.runtime.emitter import Emitter
from repro.streaming.engine import StreamProcessor

QUERY_NAMES = sorted(QUERY_LIBRARY)

# Row paths that the columnar channel must never enter.
ROW_PATHS = (
    (Emitter, "ingest"),
    (Emitter, "_assemble_rows"),
    (StreamProcessor, "process"),
)


def _canon(rows):
    return sorted(tuple(sorted(r.items())) for r in rows)


def _digest(report):
    return [
        (
            w.index,
            w.packets,
            w.tuples_to_sp,
            {qid: _canon(rows) for qid, rows in w.detections.items()},
            {k: _canon(rows) for k, rows in w.level_outputs.items()},
            w.tuples_per_instance,
            w.overflow_stats,
            w.faults_injected,
            w.degraded,
        )
        for w in report.windows
    ]


@pytest.mark.parametrize("name", QUERY_NAMES)
def test_library_query_channel_differential(name, monkeypatch):
    """columnar channel == rowwise oracle, with no row path entered."""
    workload = build_workload([name], duration=9.0, pps=1_000, seed=13)
    plan = QueryPlanner(
        build_queries([name]), workload.trace, window=3.0, time_limit=20
    ).plan("sonata")
    oracle = SonataRuntime(plan, engine="rowwise").run(workload.trace)

    entered = []
    for owner, attr in ROW_PATHS:
        original = getattr(owner, attr)

        def probe(self, *args, _original=original, _attr=attr, **kwargs):
            entered.append(_attr)
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, attr, probe)
    channel = SonataRuntime(plan, engine="batched").run(workload.trace)

    assert entered == []
    assert _digest(channel) == _digest(oracle)
