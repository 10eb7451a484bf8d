"""Tests for network-wide (multi-switch) query execution."""

import numpy as np
import pytest

from repro.evaluation.workloads import build_workload
from repro.network import NetworkRuntime, Topology
from repro.network.topology import prefix_ingress
from repro.queries.library import build_queries


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        ["newly_opened_tcp_conns", "ddos"], duration=12.0, pps=2_000, seed=17
    )


@pytest.fixture(scope="module")
def queries():
    return build_queries(["newly_opened_tcp_conns", "ddos"])


class TestTopology:
    def test_split_partitions_trace(self, workload):
        topo = Topology.ecmp(4, seed=1)
        splits = topo.split(workload.trace)
        assert len(splits) == 4
        assert sum(len(s) for s in splits) == len(workload.trace)

    def test_ecmp_spreads_evenly(self, workload):
        topo = Topology.ecmp(4, seed=1)
        sizes = [len(s) for s in topo.split(workload.trace)]
        assert min(sizes) > 0.5 * max(sizes)

    def test_prefix_ingress_is_sticky(self, workload):
        assign = prefix_ingress(4)
        a = assign(workload.trace.array)
        b = assign(workload.trace.array)
        assert np.array_equal(a, b)
        # all packets of one source prefix land on one switch
        sips = workload.trace.array["sip"] >> 24
        for prefix in np.unique(sips)[:10]:
            mask = sips == prefix
            assert len(np.unique(a[mask])) == 1

    def test_empty_trace(self):
        from repro.packets.trace import Trace

        topo = Topology.ecmp(3)
        assert [len(s) for s in topo.split(Trace.empty())] == [0, 0, 0]


class TestNetworkRuntime:
    @pytest.fixture(scope="class")
    def scaled_report(self, workload, queries):
        net = NetworkRuntime(
            queries, Topology.ecmp(4, seed=3), workload.trace,
            window=3.0, time_limit=10,
        )
        return net.run(workload.trace)

    def test_detects_sprayed_attacks(self, workload, queries, scaled_report):
        """ECMP spreads each attack over all switches; only the merged
        view crosses the original threshold."""
        for qid, name in enumerate(["newly_opened_tcp_conns", "ddos"], start=1):
            victim = workload.victims[name]
            hit = any(
                row.get("ipv4.dIP") == victim
                for _, q, row in scaled_report.detections()
                if q == qid
            )
            assert hit, f"{name} missed across switches"

    def test_collector_sees_few_tuples(self, workload, queries, scaled_report):
        assert scaled_report.total_collector_tuples < len(workload.trace) / 100

    def test_exact_variant_never_cheaper(self, workload, queries, scaled_report):
        exact = NetworkRuntime(
            queries, Topology.ecmp(4, seed=3), workload.trace,
            window=3.0, time_limit=10, local_threshold_scale=False,
        ).run(workload.trace)
        assert exact.total_collector_tuples >= scaled_report.total_collector_tuples
        # and the exact variant also finds the victims
        for qid, name in enumerate(["newly_opened_tcp_conns", "ddos"], start=1):
            victim = workload.victims[name]
            assert any(
                row.get("ipv4.dIP") == victim
                for _, q, row in exact.detections()
                if q == qid
            )

    def test_merged_counts_match_single_switch_truth(self, workload, queries):
        """Network-wide counts (exact variant) equal the counts a single
        switch observing all traffic would compute."""
        from repro.analytics import execute_query

        net = NetworkRuntime(
            queries, Topology.ecmp(2, seed=5), workload.trace,
            window=3.0, time_limit=10, local_threshold_scale=False,
        )
        report = net.run(workload.trace)
        for index, (_, window_trace) in enumerate(
            workload.trace.windows(3.0)
        ):
            truth = {
                row["ipv4.dIP"]: row["count"]
                for row in execute_query(queries[0], window_trace)
            }
            got = {
                row["ipv4.dIP"]: row["count"]
                for row in report.windows[index].detections.get(1, [])
            }
            assert got == truth

    def test_ge_threshold_detections_match_truth(self, workload):
        """The collector applies each original threshold with its own op:
        keys whose merged count sits exactly at a ``ge`` threshold are
        detected, as a single switch observing all traffic would."""
        from repro.analytics import execute_query
        from repro.core.expressions import Const
        from repro.core.fields import TCP_SYN
        from repro.core.query import PacketStream, Query

        query = Query(
            PacketStream(name="syn_ge", qid=1, window=3.0)
            .filter(("tcp.flags", "eq", TCP_SYN))
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
            .filter(("count", "ge", 6))
        )
        report = NetworkRuntime(
            [query], Topology.ecmp(2, seed=5), workload.trace,
            window=3.0, time_limit=10, local_threshold_scale=False,
        ).run(workload.trace)
        at_threshold = 0
        for index, (_, window_trace) in enumerate(workload.trace.windows(3.0)):
            truth = {
                row["ipv4.dIP"]: row["count"]
                for row in execute_query(query, window_trace)
            }
            got = {
                row["ipv4.dIP"]: row["count"]
                for row in report.windows[index].detections.get(1, [])
            }
            assert got == truth
            at_threshold += sum(count == 6 for count in truth.values())
        assert at_threshold > 0

    @pytest.fixture(scope="class")
    def band(self):
        """SYNs per destination between two comparisons: ``count > 2`` is
        a threshold, ``count < 6`` a bound."""
        from repro.analytics import execute_query
        from repro.core.expressions import Const
        from repro.core.fields import TCP_SYN
        from repro.core.query import PacketStream, Query

        query = Query(
            PacketStream(name="syn_band", qid=1, window=3.0)
            .filter(("tcp.flags", "eq", TCP_SYN))
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
            .filter(("count", "gt", 2))
            .filter(("count", "lt", 6))
        )
        trace = build_workload(
            ["newly_opened_tcp_conns"], duration=9.0, pps=1_500, seed=3
        ).trace
        truth = [
            {row["ipv4.dIP"] for row in execute_query(query, window)}
            for _, window in trace.windows(3.0)
        ]
        assert all(truth)

        def detected(scale):
            report = NetworkRuntime(
                [query], Topology.ecmp(2, seed=3), trace,
                window=3.0, time_limit=10, local_threshold_scale=scale,
            ).run(trace)
            return [
                {row["ipv4.dIP"] for row in window.detections.get(1, [])}
                for window in report.windows
            ]

        return detected, truth

    def test_exact_bound_detections_match_truth(self, band):
        """Switches drop the bound and the collector applies it to the
        merged counts, so the exact variant matches a single switch
        observing all traffic."""
        detected, truth = band
        assert detected(False) == truth

    def test_scaled_bound_reports_no_false_key(self, band):
        """Scaled local thresholds may miss keys at the margin, but the
        bound, applied only at the collector, adds none."""
        detected, truth = band
        got = detected(True)
        assert len(got) == len(truth)
        assert all(g <= t for g, t in zip(got, truth))

    def test_bound_on_earlier_aggregate_rejected(self, workload):
        """The collector re-applies thresholds and bounds to the merged
        last aggregate only; one on an earlier aggregate fails at
        construction."""
        from repro.core.errors import PlanningError
        from repro.core.expressions import Const
        from repro.core.query import PacketStream, Query

        query = Query(
            PacketStream(name="twice", qid=1, window=3.0)
            .map(keys=("ipv4.dIP", "ipv4.sIP"), values=(Const(1),))
            .reduce(keys=("ipv4.dIP", "ipv4.sIP"), func="sum")
            .filter(("count", "lt", 3))
            .map(keys=("ipv4.dIP",), values=(Const(1),))
            .reduce(keys=("ipv4.dIP",), func="sum")
        )
        with pytest.raises(PlanningError, match="count lt 3"):
            NetworkRuntime([query], Topology.ecmp(2), workload.trace)

    def test_no_queries_rejected(self, workload):
        from repro.core.errors import PlanningError

        with pytest.raises(PlanningError):
            NetworkRuntime([], Topology.ecmp(2), workload.trace)

    def test_renamed_merge_key_rejected(self, workload):
        """The collector re-aggregates a sub-query's output by its last
        reduce; an output that renames that reduce's key away fails at
        construction, naming the sub-query and the dropped field."""
        from repro.core.errors import PlanningError
        from tests.planner.test_refinement import renamed_victim

        with pytest.raises(PlanningError, match=r"'renamed\.sq0'.*drops ipv4\.dIP"):
            NetworkRuntime(
                [renamed_victim()], Topology.ecmp(2, seed=3), workload.trace
            )

    def test_library_queries_construct(self, workload):
        from repro.queries.library import QUERY_LIBRARY

        net = NetworkRuntime(
            build_queries(list(QUERY_LIBRARY)), Topology.ecmp(2, seed=3),
            workload.trace, window=3.0, time_limit=10,
        )
        assert len(net.runtimes) == 2
        assert len(net.queries) == len(QUERY_LIBRARY) == 11
