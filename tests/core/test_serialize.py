"""Tests for query (de)serialization."""

import json

import pytest

from repro.core.errors import QueryValidationError
from repro.core.serialize import (
    expression_from_dict,
    operator_from_dict,
    query_from_dict,
    query_to_dict,
)
from repro.queries.library import EXTENSION_QUERIES, QUERY_LIBRARY, build_query


def canonical(query):
    """Stable textual form for equality: operator descriptions + schema."""
    parts = [sq.describe() for sq in query.subqueries]
    parts.append(str(query.output_schema().fields))
    return "\n".join(parts)


class TestRoundTrip:
    @pytest.mark.parametrize("name", list(QUERY_LIBRARY))
    def test_library_queries_roundtrip(self, name):
        query = build_query(name, qid=700 + QUERY_LIBRARY[name].number)
        data = query_to_dict(query)
        json.dumps(data)  # must be valid JSON
        restored = query_from_dict(data)
        assert canonical(restored) == canonical(query)
        assert restored.window == query.window
        assert restored.qid == query.qid

    def test_extension_query_roundtrips(self):
        query = EXTENSION_QUERIES["malicious_domains"].query(qid=750)
        restored = query_from_dict(query_to_dict(query))
        assert canonical(restored) == canonical(query)

    def test_bytes_values_roundtrip(self):
        query = build_query("zorro", qid=751)
        data = query_to_dict(query)
        text = json.dumps(data)  # bytes encoded as latin-1 strings
        restored = query_from_dict(json.loads(text))
        payload_preds = [
            pred
            for node in restored.join_tree.post_ops
            if hasattr(node, "predicates")
            for pred in node.predicates
        ]
        assert any(pred.value == b"zorro" for pred in payload_preds)

    def test_restored_query_plans_and_runs(self, synflood_trace):
        from repro.analytics import execute_query

        query = build_query("newly_opened_tcp_conns", qid=752, Th=100)
        restored = query_from_dict(query_to_dict(query))
        original = execute_query(query, synflood_trace)
        again = execute_query(restored, synflood_trace)
        assert original == again


class TestErrors:
    def test_unknown_expression(self):
        with pytest.raises(QueryValidationError):
            expression_from_dict({"expr": "sqrt", "field": "x"})

    def test_unknown_operator(self):
        with pytest.raises(QueryValidationError):
            operator_from_dict({"op": "window"})

    def test_bad_clause_arity(self):
        with pytest.raises(QueryValidationError):
            operator_from_dict({"op": "filter", "clauses": [["a", "eq"]]})

    def test_invalid_query_rejected_on_load(self):
        data = {
            "name": "bad",
            "operators": [{"op": "reduce", "keys": ["nonexistent"]}],
        }
        with pytest.raises(QueryValidationError):
            query_from_dict(data)

    @pytest.mark.parametrize("how", ["left", "outer"])
    def test_non_inner_join_rejected_on_load(self, how):
        """Only inner joins exist. A left join's unmatched rows would lack
        the right-side fields its schema promises: SYNs left-joined to
        FINs and mapped through ``Difference("syns", "fins")`` once
        crashed with a bare ``KeyError: 'fins'``."""
        data = query_to_dict(build_query("incomplete_flows", qid=753))
        join = next(op for op in data["operators"] if op["op"] == "join")
        join["how"] = "inner"
        assert canonical(query_from_dict(data)) == canonical(
            build_query("incomplete_flows", qid=753)
        )
        join["how"] = how
        with pytest.raises(QueryValidationError, match="join type"):
            query_from_dict(data)
