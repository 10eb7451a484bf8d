"""Query (de)serialization to a JSON-friendly dict format.

Lets operators keep telemetry queries in version-controlled files and pass
them to the CLI (``repro plan --query-file``), and lets remote components
(the network-wide collector, a future REST control plane) ship queries
without Python object graphs. The format mirrors the DSL one-to-one::

    {
      "name": "newly_opened", "qid": 1, "window": 3.0,
      "operators": [
        {"op": "filter", "clauses": [["tcp.flags", "eq", 2]]},
        {"op": "map", "keys": ["ipv4.dIP"],
         "values": [{"expr": "const", "value": 1, "name": "count"}]},
        {"op": "reduce", "keys": ["ipv4.dIP"], "func": "sum"},
        {"op": "filter", "clauses": [["count", "gt", 40]]}
      ]
    }

Every operator and expression type of :mod:`repro.core` round-trips;
byte values (payload patterns) are encoded as latin-1 strings under a
``{"bytes": ...}`` wrapper.
"""

from __future__ import annotations

from typing import Any

from repro.core.errors import QueryValidationError
from repro.core.expressions import (
    Const,
    Difference,
    Expression,
    FieldRef,
    Prefixed,
    Quantized,
    Ratio,
)
from repro.core.operators import (
    Distinct,
    Filter,
    Join,
    Map,
    Operator,
    Predicate,
    Reduce,
)
from repro.core.query import PacketStream, Query


def _encode_value(value: Any) -> Any:
    if isinstance(value, (bytes, bytearray)):
        return {"bytes": bytes(value).decode("latin-1")}
    return value


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict) and set(value) == {"bytes"}:
        return value["bytes"].encode("latin-1")
    return value


# -- expressions -----------------------------------------------------------
def expression_to_dict(expr: Expression) -> dict:
    if isinstance(expr, FieldRef):
        return {"expr": "field", "field": expr.field, "name": expr.rename}
    if isinstance(expr, Const):
        return {"expr": "const", "value": expr.value, "name": expr.rename}
    if isinstance(expr, Prefixed):
        return {
            "expr": "prefix",
            "field": expr.field,
            "level": expr.level,
            "name": expr.rename,
        }
    if isinstance(expr, Quantized):
        return {
            "expr": "quantize",
            "field": expr.field,
            "step": expr.step,
            "name": expr.rename,
        }
    if isinstance(expr, Ratio):
        return {
            "expr": "ratio",
            "numerator": expr.numerator,
            "denominator": expr.denominator,
            "name": expr.rename,
            "scale": expr.scale,
        }
    if isinstance(expr, Difference):
        return {
            "expr": "difference",
            "left": expr.left,
            "right": expr.right,
            "name": expr.rename,
        }
    raise QueryValidationError(f"cannot serialize expression {expr!r}")


def expression_from_dict(data: dict) -> Expression:
    kind = data.get("expr")
    if kind == "field":
        return FieldRef(data["field"], data.get("name"))
    if kind == "const":
        return Const(data["value"], data.get("name") or "count")
    if kind == "prefix":
        return Prefixed(data["field"], data["level"], data.get("name"))
    if kind == "quantize":
        return Quantized(data["field"], data["step"], data.get("name"))
    if kind == "ratio":
        return Ratio(
            data["numerator"],
            data["denominator"],
            data.get("name") or "ratio",
            data.get("scale", 1_000_000),
        )
    if kind == "difference":
        return Difference(data["left"], data["right"], data.get("name") or "diff")
    raise QueryValidationError(f"unknown expression kind {kind!r}")


# -- operators ----------------------------------------------------------------
def _predicate_to_list(pred: Predicate) -> list:
    clause = [pred.field, pred.op, _encode_value(pred.value)]
    if pred.level is not None:
        clause.append(pred.level)
    return clause


def _predicate_from_list(clause: list) -> Predicate:
    if len(clause) == 3:
        field, op, value = clause
        level = None
    elif len(clause) == 4:
        field, op, value, level = clause
    else:
        raise QueryValidationError(f"bad predicate clause {clause!r}")
    return Predicate(field, op, _decode_value(value), level=level)


def operator_to_dict(op: Operator) -> dict:
    if isinstance(op, Filter):
        return {
            "op": "filter",
            "clauses": [_predicate_to_list(p) for p in op.predicates],
        }
    if isinstance(op, Map):
        return {
            "op": "map",
            "keys": [expression_to_dict(e) for e in op.keys],
            "values": [expression_to_dict(e) for e in op.values],
        }
    if isinstance(op, Reduce):
        return {
            "op": "reduce",
            "keys": list(op.keys),
            "func": op.func,
            "value_field": op.value_field,
            "out": op.out,
        }
    if isinstance(op, Distinct):
        return {"op": "distinct", "keys": list(op.keys)}
    if isinstance(op, Join):
        return {
            "op": "join",
            "keys": list(op.keys),
            "right": stream_to_dict(op.right),
        }
    raise QueryValidationError(f"cannot serialize operator {op!r}")


def operator_from_dict(data: dict) -> Operator:
    kind = data.get("op")
    if kind == "filter":
        return Filter(
            tuple(_predicate_from_list(clause) for clause in data["clauses"])
        )
    if kind == "map":
        return Map(
            keys=tuple(expression_from_dict(e) for e in data.get("keys", [])),
            values=tuple(expression_from_dict(e) for e in data.get("values", [])),
        )
    if kind == "reduce":
        return Reduce(
            keys=tuple(data["keys"]),
            func=data.get("func", "sum"),
            value_field=data.get("value_field"),
            out=data.get("out", "count"),
        )
    if kind == "distinct":
        return Distinct(keys=tuple(data.get("keys", ())))
    if kind == "join":
        if data.get("how", "inner") != "inner":
            raise QueryValidationError(f"unsupported join type {data['how']!r}")
        return Join(right=stream_from_dict(data["right"]), keys=tuple(data["keys"]))
    raise QueryValidationError(f"unknown operator kind {kind!r}")


# -- streams / queries ----------------------------------------------------
def stream_to_dict(stream: PacketStream) -> dict:
    return {
        "name": stream.name,
        "qid": stream.qid,
        "window": stream.window,
        "operators": [operator_to_dict(op) for op in stream.operators],
    }


def stream_from_dict(data: dict) -> PacketStream:
    stream = PacketStream(
        name=data.get("name", "query"),
        qid=data.get("qid"),
        window=data.get("window", 3.0),
    )
    stream.operators = tuple(
        operator_from_dict(op) for op in data.get("operators", [])
    )
    return stream


def query_to_dict(query: Query) -> dict:
    """Serialize a validated query."""
    return stream_to_dict(query.stream)


def query_from_dict(data: dict) -> Query:
    """Deserialize and validate a query."""
    return Query(stream_from_dict(data))
