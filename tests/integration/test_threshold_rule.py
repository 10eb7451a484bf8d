"""Bounds and falling aggregates end to end, against the ground truth.

The switch folds a filter into its reduce and reports a key on the first
running aggregate that passes it, and refinement runs coarse levels on
merged aggregates. Both are sound only for thresholds (``gt``/``ge`` on
an aggregate that never falls). These chains carry a bound (``lt``) or a
falling aggregate (``min``), so a runtime that folded or coarsened them
would report keys the All-SP ground truth does not hold. A chain with two
thresholds on one field checks that the finest level keeps both: the
planner keeps one relaxed value per field.
"""

import pytest

from repro.analytics import execute_query
from repro.core.expressions import Const, FieldRef
from repro.core.fields import TCP_SYN
from repro.core.query import PacketStream, Query
from repro.evaluation.workloads import build_workload
from repro.planner import QueryPlanner
from repro.planner.refinement import RefinementSpec
from repro.runtime import SonataRuntime

WINDOW = 3.0


def syn_count(*clauses):
    """SYNs per destination, then each clause as its own filter."""
    stream = (
        PacketStream(name="syn", qid=1, window=WINDOW)
        .filter(("tcp.flags", "eq", TCP_SYN))
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
    )
    for clause in clauses:
        stream = stream.filter(clause)
    return Query(stream)


def smallest_packet_over(threshold):
    return Query(
        PacketStream(name="small", qid=1, window=WINDOW)
        .map(keys=("ipv4.dIP",), values=(FieldRef("pktlen"),))
        .reduce(keys=("ipv4.dIP",), func="min", out="small")
        .filter(("small", "gt", threshold))
    )


def per_window(trace, query, report):
    """(detected, true) destination sets per window."""
    truth = [
        {row["ipv4.dIP"] for row in execute_query(query, window)}
        for _, window in trace.windows(WINDOW)
    ]
    got = [
        {row["ipv4.dIP"] for row in window.detections.get(query.qid, [])}
        for window in report.windows
    ]
    return got, truth


@pytest.fixture(scope="module")
def trace():
    return build_workload(
        ["newly_opened_tcp_conns"], duration=9.0, pps=1_500, seed=3
    ).trace


@pytest.mark.parametrize(
    "query",
    [
        syn_count(("count", "lt", 3)),
        smallest_packet_over(200),
        syn_count(("count", "gt", 20), ("count", "ge", 5)),
    ],
    ids=["lt-bound", "min-reduce", "two-thresholds-one-field"],
)
def test_max_dp_matches_truth(trace, query):
    plan = QueryPlanner([query], trace, window=WINDOW, time_limit=10).plan("max_dp")
    got, truth = per_window(trace, query, SonataRuntime(plan).run(trace))
    assert all(truth)
    assert got == truth


@pytest.mark.parametrize(
    "mode, levels",
    [("sonata", None), ("fix_ref", (8, 16, 32))],
    ids=["sonata", "fix_ref-8-16-32"],
)
def test_refined_plan_with_bound_matches_truth(mode, levels):
    """Coarse levels drop the bound and the finest level applies it to
    final aggregates, so once the refinement pipeline fills every window
    equals the truth. Coarse levels without a threshold prune nothing, so
    the sonata planner may not refine this query; fix_ref must."""
    trace = build_workload(
        ["newly_opened_tcp_conns"], duration=15.0, pps=1_500, seed=3
    ).trace
    query = syn_count(("count", "lt", 3))
    specs = {1: RefinementSpec("ipv4.dIP", levels)} if levels else None
    plan = QueryPlanner(
        [query], trace, window=WINDOW, time_limit=10, refinement_specs=specs
    ).plan(mode)
    delay = plan.query_plans[1].detection_delay_windows
    got, truth = per_window(trace, query, SonataRuntime(plan).run(trace))
    if levels:
        assert plan.query_plans[1].path == levels
    assert any(truth[delay:])
    assert got[delay:] == truth[delay:]


def test_two_thresholds_on_one_field_relax_soundly():
    """``count > 2 and count >= 10`` selects what ``count >= 10`` does. The
    planner relaxes one value per field at coarse levels, so relaxing it
    from the larger threshold would turn the ``gt`` into ``count > 10``
    and lose prefixes whose aggregate is exactly 10."""
    trace = build_workload(
        ["newly_opened_tcp_conns"], duration=18.0, pps=1_500, seed=3
    ).trace
    specs = {1: RefinementSpec("ipv4.dIP", (24, 32))}
    detected = {}
    for name, query in (
        ("both", syn_count(("count", "gt", 2), ("count", "ge", 10))),
        ("ge", syn_count(("count", "ge", 10))),
    ):
        plan = QueryPlanner(
            [query], trace, window=WINDOW, time_limit=10, refinement_specs=specs
        ).plan("fix_ref")
        detected[name], truth = per_window(trace, query, SonataRuntime(plan).run(trace))
    assert any(detected["ge"])
    assert all(g <= b <= t for g, b, t in zip(detected["ge"], detected["both"], truth))
