"""Tests for the synthetic backbone generator: statistical shape, exact bytes, memory."""

import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.fields import PROTO_TCP, PROTO_UDP, TCP_SYN, TCP_SYNACK
from repro.evaluation import workloads
from repro.evaluation.workloads import build_workload
from repro.packets.generator import BackboneConfig, generate_backbone
from repro.queries.library import QUERY_LIBRARY


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = generate_backbone(BackboneConfig(duration=2.0, pps=500, seed=1))
        b = generate_backbone(BackboneConfig(duration=2.0, pps=500, seed=1))
        assert np.array_equal(a.array, b.array)

    def test_different_seed_differs(self):
        a = generate_backbone(BackboneConfig(duration=2.0, pps=500, seed=1))
        b = generate_backbone(BackboneConfig(duration=2.0, pps=500, seed=2))
        assert not np.array_equal(a.array, b.array)


class TestShape:
    def test_packet_budget_roughly_met(self, backbone_small):
        # duration 6s * 1000 pps; TCP control packets add overhead.
        assert 5_000 <= len(backbone_small) <= 12_000

    def test_timestamps_sorted_and_in_range(self, backbone_small):
        ts = backbone_small.array["ts"]
        assert (np.diff(ts) >= 0).all()
        assert ts[0] >= 0.0

    def test_protocol_mix(self, backbone_small):
        protos = backbone_small.array["proto"]
        tcp_share = (protos == PROTO_TCP).mean()
        udp_share = (protos == PROTO_UDP).mean()
        assert 0.7 < tcp_share < 0.97
        assert 0.005 < udp_share < 0.25

    def test_handshakes_present(self, backbone_small):
        flags = backbone_small.array["tcpflags"]
        syns = (flags == TCP_SYN).sum()
        synacks = (flags == TCP_SYNACK).sum()
        assert syns > 0 and synacks > 0
        # one SYN-ACK per SYN in the generator
        assert abs(int(syns) - int(synacks)) < 0.1 * syns + 5

    def test_dns_queries_have_responses_and_names(self, backbone_small):
        arr = backbone_small.array
        dns = arr[arr["dport"] == 53]
        responses = arr[(arr["sport"] == 53) & (arr["dns_qr"] == 1)]
        assert len(dns) > 0 and len(responses) > 0
        assert (responses["dns_name_id"] >= 0).all()
        assert len(backbone_small.qnames) > 0

    def test_zipf_endpoint_popularity(self, backbone_medium):
        dips, counts = np.unique(backbone_medium.array["dip"], return_counts=True)
        counts = np.sort(counts)[::-1]
        # top 10% of destinations should carry the majority of packets
        top = counts[: max(len(counts) // 10, 1)].sum()
        assert top > 0.5 * counts.sum()

    def test_no_payloads_in_backbone(self, backbone_small):
        assert backbone_small.payloads == []
        assert (backbone_small.array["payload_id"] == -1).all()

    def test_server_ports_realistic(self, backbone_small):
        arr = backbone_small.array
        tcp = arr[arr["proto"] == PROTO_TCP]
        web = ((tcp["dport"] == 80) | (tcp["dport"] == 443)).sum()
        syn_like = (tcp["tcpflags"] == TCP_SYN).sum()
        assert web > 0


def _digests(trace) -> tuple[str, str, str]:
    """sha256 prefixes of a trace's records, DNS names and payloads."""
    records = hashlib.sha256(np.ascontiguousarray(trace.array).tobytes())
    qnames = hashlib.sha256("\n".join(trace.qnames).encode())
    payloads = hashlib.sha256()
    for payload in trace.payloads:
        payloads.update(len(payload).to_bytes(4, "little") + payload)
    return tuple(h.hexdigest()[:16] for h in (records, qnames, payloads))


class TestGoldenBytes:
    """Generated traces are pinned byte for byte: a faster or leaner
    generator must produce exactly these records, names and payloads."""

    BACKBONE = {
        1: ("7c2e53f77f685b9f", "ae7202bbbcd13f8b", "e3b0c44298fc1c14"),
        2: ("30aeddc0f396c6a0", "2aa5db1e0714c0d3", "e3b0c44298fc1c14"),
    }
    #: All 11 library queries: every attack recipe goes through
    #: ``Trace.merge``, including the DNS-name remaps and zorro's payloads.
    WORKLOAD = {
        1: ("557c654c84c618e6", "a3dc78a6a101df33", "52efb55985faac02"),
        2: ("fea7caa1b1ec527e", "20bda82d5b7ca9c2", "e460ac74578520c7"),
    }

    @pytest.mark.parametrize("seed", sorted(BACKBONE))
    def test_backbone(self, seed):
        trace = generate_backbone(BackboneConfig(duration=6.0, pps=3_000, seed=seed))
        assert _digests(trace) == self.BACKBONE[seed]

    @pytest.mark.parametrize("seed", sorted(WORKLOAD))
    def test_all_queries_workload(self, seed):
        workload = build_workload(list(QUERY_LIBRARY), duration=6.0, pps=3_000, seed=seed)
        assert _digests(generate_backbone(workload.config)) == self.BACKBONE[seed]
        assert _digests(workload.trace) == self.WORKLOAD[seed]


class TestGenerationMemory:
    """Generation holds about two copies of its output at its peak: the
    fragments and the records overlap by one column, and merging places
    pieces into one new array (tracemalloc sees numpy's buffers). Once a
    workload is built, only its merged trace is kept."""

    CONFIG = dict(duration=10.0, pps=30_000.0, seed=5)  # ~300k packets
    NAMES = ["ddos", "newly_opened_tcp_conns", "superspreader"]
    MAX_RATIO = 2.5
    MAX_KEPT_RATIO = 1.2

    @staticmethod
    def _traced(make):
        """``make()``'s result, and tracemalloc's current and peak bytes."""
        tracemalloc.start()
        try:
            result = make()
            return (result, *tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()

    def test_backbone_peak(self):
        trace, _, peak = self._traced(lambda: generate_backbone(BackboneConfig(**self.CONFIG)))
        assert len(trace) > 250_000
        assert peak <= self.MAX_RATIO * trace.array.nbytes, peak / trace.array.nbytes

    def test_workload_peak(self):
        workload, _, peak = self._traced(lambda: build_workload(self.NAMES, **self.CONFIG))
        nbytes = workload.trace.array.nbytes
        assert peak <= self.MAX_RATIO * nbytes, peak / nbytes

    def test_workload_retains_one_copy(self, monkeypatch):
        backbones = []

        def generate(config):
            backbone = generate_backbone(config)
            backbones.append(weakref.ref(backbone))
            return backbone

        monkeypatch.setattr(workloads, "generate_backbone", generate)
        workload, current, _ = self._traced(lambda: build_workload(self.NAMES, **self.CONFIG))
        nbytes = workload.trace.array.nbytes
        assert current <= self.MAX_KEPT_RATIO * nbytes, current / nbytes
        assert len(backbones) == 1 and backbones[0]() is None
