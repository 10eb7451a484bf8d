"""Tests for the stream-processor engine."""

import pytest

from repro.core.errors import PlanningError
from repro.core.expressions import Const, Ratio
from repro.core.fields import TCP_SYN
from repro.core.operators import Filter, Predicate
from repro.core.query import PacketStream, Query
from repro.exec import materialize_rows, state_from_rows
from repro.streaming.engine import StreamProcessor


class TestRegistration:
    def test_register_and_process(self):
        sp = StreamProcessor()
        sp.register("i1", [Filter((Predicate("count", "gt", 5),))])
        out = sp.process("i1", [{"count": 10}, {"count": 1}])
        assert out == [{"count": 10}]

    def test_duplicate_rejected(self):
        sp = StreamProcessor()
        sp.register("i1", [])
        with pytest.raises(PlanningError):
            sp.register("i1", [])

    def test_unknown_instance_rejected(self):
        with pytest.raises(PlanningError):
            StreamProcessor().process("ghost", [])


class TestJoinAssembly:
    def _query(self):
        right = (
            PacketStream(name="bytes")
            .filter(("ipv4.proto", "eq", 6))
            .map(keys=("ipv4.dIP",), values=("pktlen",))
            .reduce(keys=("ipv4.dIP",), func="sum", out="bytes")
        )
        stream = (
            PacketStream(name="joined")
            .filter(("tcp.flags", "eq", TCP_SYN))
            .map(keys=("ipv4.dIP",), values=(Const(1, "conns"),))
            .reduce(keys=("ipv4.dIP",), func="sum", out="conns")
            .join(right, keys=("ipv4.dIP",))
            .map(keys=("ipv4.dIP",), values=(Ratio("conns", "bytes", "cpb"),))
            .filter(("cpb", "gt", 1000))
        )
        return Query(stream)

    def test_join_tree_execution(self):
        query = self._query()
        sp = StreamProcessor()
        out = sp.execute_join_tree(
            query.join_tree,
            {
                0: state_from_rows(
                    [{"ipv4.dIP": 1, "conns": 50}, {"ipv4.dIP": 2, "conns": 1}]
                ),
                1: state_from_rows(
                    [{"ipv4.dIP": 1, "bytes": 100}, {"ipv4.dIP": 2, "bytes": 100_000}]
                ),
            },
        )
        assert materialize_rows(out) == [{"ipv4.dIP": 1, "cpb": 500_000}]

    def test_inactive_leaf(self):
        query = self._query()
        sp = StreamProcessor()
        right = state_from_rows([{"ipv4.dIP": 7, "bytes": 5}])
        out = sp.execute_join_tree(query.join_tree, {0: None, 1: right})
        assert materialize_rows(out) == [{"ipv4.dIP": 7, "bytes": 5}]

    def test_all_inactive_empty(self):
        query = self._query()
        sp = StreamProcessor()
        out = sp.execute_join_tree(query.join_tree, {0: None, 1: None})
        assert materialize_rows(out) == []


class TestObsCounterAgreement:
    """The in/out counters count every path into an instance."""

    def test_process_updates_counters(self):
        from repro.obs import Observability

        obs = Observability()
        sp = StreamProcessor(obs=obs)
        sp.register("i1", [Filter((Predicate("count", "gt", 5),))])
        sp.process("i1", [{"count": 10}, {"count": 1}])
        snap = obs.snapshot()
        assert snap.value("sonata_sp_tuples_in_total", instance="i1") == 2
        assert snap.value("sonata_sp_tuples_out_total", instance="i1") == 1

    def test_raw_mirror_keeps_counters_in_lockstep(self):
        from repro.obs import Observability

        obs = Observability()
        sp = StreamProcessor(obs=obs)
        sp.register("i1", [Filter((Predicate("count", "gt", 5),))])
        sp.process("i1", [{"count": 10}, {"count": 1}])
        # The raw-fallback path adds to the same counters.
        sp.record_raw_mirror("i1", 3, 3)
        snap = obs.snapshot()
        assert snap.value("sonata_sp_tuples_in_total", instance="i1") == 5
        assert snap.value("sonata_sp_tuples_out_total", instance="i1") == 4
