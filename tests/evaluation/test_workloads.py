"""Tests for workload composition."""

import numpy as np
import pytest

from repro.evaluation.workloads import build_workload
from repro.packets import generate_backbone
from repro.queries.library import TOP8


class TestBuildWorkload:
    def test_every_query_gets_a_victim(self):
        workload = build_workload(list(TOP8), duration=6.0, pps=1_000, seed=3)
        assert set(workload.victims) == set(TOP8)

    def test_victims_mostly_distinct(self):
        workload = build_workload(list(TOP8), duration=6.0, pps=1_000, seed=3)
        values = list(workload.victims.values())
        assert len(set(values)) >= len(values) - 2

    def test_attack_traffic_added(self):
        workload = build_workload(["ddos"], duration=6.0, pps=1_000, seed=3)
        assert len(workload.trace) > len(generate_backbone(workload.config))

    def test_deterministic(self):
        a = build_workload(["ddos"], duration=4.0, pps=800, seed=5)
        b = build_workload(["ddos"], duration=4.0, pps=800, seed=5)
        assert np.array_equal(a.trace.array, b.trace.array)

    def test_unknown_query_rejected(self):
        with pytest.raises(KeyError):
            build_workload(["not_a_query"], duration=4.0)

    def test_victims_drawn_from_backbone_servers(self):
        workload = build_workload(
            ["newly_opened_tcp_conns", "syn_flood"], duration=6.0, pps=1_000, seed=3
        )
        backbone_dips = set(np.unique(generate_backbone(workload.config).array["dip"]))
        for name in ("newly_opened_tcp_conns", "syn_flood"):
            assert workload.victims[name] in backbone_dips
