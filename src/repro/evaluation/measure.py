"""Trace-driven measurement of a plan's stream-processor load.

This is the vectorized twin of :class:`~repro.runtime.SonataRuntime`: it
replays a trace window by window through the columnar engine, honouring
the plan's partitioning cuts and pipelined refinement (level-r filter
tables are fed by the previous window's level-r_prev output), and counts
the tuples that cross to the stream processor — the paper's Figure 7/8
metric. Register-overflow extras are not simulated here (they are covered
by the per-packet runtime); everything else matches the runtime
semantically, which the integration tests assert.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.analytics import execute_subquery
from repro.exec import ColumnarState, Row, materialize_rows
from repro.exec.columns import column_set
from repro.packets.trace import Trace
from repro.planner.plans import Plan
from repro.planner.refinement import filter_table_name
from repro.streaming.batchops import assemble_join_tree


@dataclass
class PlanMeasurement:
    """Per-window and total stream-processor load for one plan."""

    mode: str
    per_window: list[dict[int, int]] = field(default_factory=list)  # qid -> tuples
    detections: list[tuple[int, int, Row]] = field(default_factory=list)
    # (window index, qid, row)

    @property
    def windows(self) -> int:
        return len(self.per_window)

    def total_tuples(self, qid: int | None = None, skip_windows: int = 0) -> int:
        """Total tuples at the SP, optionally skipping warm-up windows.

        Refinement pipelines take |path| windows to fill; the paper's
        10-minute traces (200 windows) make that transient negligible, but
        on short traces steady-state comparisons should skip it.
        """
        tail = self.per_window[skip_windows:]
        if qid is None:
            return sum(sum(w.values()) for w in tail)
        return sum(w.get(qid, 0) for w in tail)

    def tuples_per_query(self) -> dict[int, int]:
        out: dict[int, int] = defaultdict(int)
        for w in self.per_window:
            for qid, count in w.items():
                out[qid] += count
        return dict(out)


def evaluate_plan(
    plan: Plan, trace: Trace, window: float | None = None
) -> PlanMeasurement:
    """Measure ``plan`` over ``trace`` with pipelined refinement feeds."""
    if window is None:
        window = next(iter(plan.query_plans.values())).query.window
    measurement = PlanMeasurement(mode=plan.mode)
    # (qid, level) -> output keys from the previous window.
    feeds: dict[tuple[int, int], set] = {}

    for w_index, (_, window_trace) in enumerate(trace.windows(window)):
        tables = {
            filter_table_name(qid, level): keys
            for (qid, level), keys in feeds.items()
        }
        window_tuples: dict[int, int] = defaultdict(int)
        new_feeds: dict[tuple[int, int], set] = {}

        for qid, qplan in plan.query_plans.items():
            finest = qplan.path[-1]
            for r_prev, r_level in qplan.transitions():
                leaf_outputs: dict[int, ColumnarState | None] = {
                    sq.subid: None for sq in qplan.query.subqueries
                }
                raw_mirror = False
                for inst in qplan.instances_for(r_prev, r_level):
                    result = execute_subquery(
                        inst.augmented, window_trace, tables
                    )
                    leaf_outputs[inst.subid] = result.final
                    if inst.on_switch:
                        window_tuples[qid] += result.rows_after(inst.cut - 1)
                    else:
                        raw_mirror = True
                if raw_mirror:
                    window_tuples[qid] += len(window_trace)

                output = assemble_join_tree(
                    qplan.query.join_tree, leaf_outputs, tables
                ) or ColumnarState(columns={})
                if r_level == finest:
                    measurement.detections.extend(
                        (w_index, qid, row) for row in materialize_rows(output)
                    )
                elif qplan.spec is not None:
                    new_feeds[(qid, r_level)] = column_set(
                        output, qplan.spec.key_field
                    )
        measurement.per_window.append(dict(window_tuples))
        feeds = new_feeds
    return measurement
