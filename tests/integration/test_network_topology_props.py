"""Property tests for topology assignment."""

from hypothesis import given, settings, strategies as st

from repro.network.topology import Topology, hash_ingress, prefix_ingress
from repro.packets.packet import Packet
from repro.packets.trace import Trace

packets = st.lists(
    st.builds(
        Packet,
        ts=st.floats(min_value=0, max_value=10, allow_nan=False),
        sip=st.integers(min_value=0, max_value=0xFFFFFFFF),
        dip=st.integers(min_value=0, max_value=0xFFFFFFFF),
        sport=st.integers(min_value=0, max_value=65535),
        dport=st.integers(min_value=0, max_value=65535),
    ),
    max_size=80,
)


class TestTopologyProperties:
    @settings(max_examples=25, deadline=None)
    @given(packets, st.integers(min_value=1, max_value=8))
    def test_split_is_a_partition(self, pkts, n_switches):
        trace = Trace.from_packets(pkts)
        splits = Topology.ecmp(n_switches).split(trace)
        assert len(splits) == n_switches
        assert sum(len(s) for s in splits) == len(trace)

    @settings(max_examples=25, deadline=None)
    @given(packets, st.integers(min_value=1, max_value=8))
    def test_flow_affinity_under_ecmp(self, pkts, n_switches):
        """All packets of one 5-tuple land on the same switch."""
        trace = Trace.from_packets(pkts)
        if len(trace) == 0:
            return
        assignment = hash_ingress(n_switches)(trace.array)
        seen: dict[tuple, int] = {}
        for row, switch in zip(trace.array, assignment):
            key = (
                int(row["sip"]), int(row["dip"]), int(row["sport"]),
                int(row["dport"]),
            )
            if key in seen:
                assert seen[key] == int(switch)
            seen[key] = int(switch)

    @settings(max_examples=25, deadline=None)
    @given(packets, st.integers(min_value=1, max_value=8))
    def test_prefix_affinity(self, pkts, n_switches):
        trace = Trace.from_packets(pkts)
        if len(trace) == 0:
            return
        assignment = prefix_ingress(n_switches)(trace.array)
        seen: dict[int, int] = {}
        for row, switch in zip(trace.array, assignment):
            prefix = int(row["sip"]) >> 24
            if prefix in seen:
                assert seen[prefix] == int(switch)
            seen[prefix] = int(switch)

    @settings(max_examples=25, deadline=None)
    @given(packets, st.integers(min_value=1, max_value=8))
    def test_split_returns_views_over_one_base(self, pkts, n_switches):
        """split() must not copy per switch: every non-empty sub-trace is
        a contiguous view into one shared grouped array (one allocation
        for the whole fan-out, which forked workers then inherit)."""
        trace = Trace.from_packets(pkts)
        if len(trace) == 0:
            return
        splits = Topology.ecmp(n_switches).split(trace)
        bases = {
            id(s.array.base)
            for s in splits
            if len(s) and s.array.base is not None
        }
        assert len(bases) <= 1
        for s in splits:
            if len(s):
                assert s.array.base is not None, "sub-trace is a copy"
                assert s.array.flags["C_CONTIGUOUS"]
