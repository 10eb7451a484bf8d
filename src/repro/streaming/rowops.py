"""Row-wise execution of dataflow operators over dict tuples.

The per-packet reference interpreter: it executes a query's operators
and join trees over dict tuples, one tuple at a time, and is the
differential oracle's alone — the ``engine="rowwise"`` runtime, its
stream processor (:meth:`~repro.streaming.StreamProcessor.process`) and
the emitter's row twin. Every production path runs the columnar
interpreter in :mod:`repro.streaming.batchops`; tested invariants keep
the two identical, row order included.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.errors import QueryValidationError
from repro.core.operators import Distinct, Filter, Join, Map, Operator, Reduce
from repro.core.query import JoinNode
from repro.exec import Row
from repro.exec.alu import UPDATE_FUNCS, init_value


def _apply_reduce(rows: list[Row], op: Reduce) -> list[Row]:
    value_field = op.value_field
    update = UPDATE_FUNCS[op.func]  # shared register-ALU fold semantics
    grouped: dict[tuple, int] = {}
    for row in rows:
        key = tuple(row[k] for k in op.keys)
        value = 1 if value_field is None else int(row[value_field])
        if key not in grouped:
            grouped[key] = init_value(op.func, value)
        else:
            grouped[key] = update(grouped[key], value)
    return [
        {**dict(zip(op.keys, key)), op.out: value} for key, value in grouped.items()
    ]


def apply_operator(
    rows: list[Row],
    op: Operator,
    tables: Mapping[str, set] | None = None,
) -> list[Row]:
    """Apply one operator to a batch of tuples, returning the new batch."""
    if isinstance(op, Filter):
        return [
            row
            for row in rows
            if all(pred.evaluate(row, tables) for pred in op.predicates)
        ]
    if isinstance(op, Map):
        return [
            {expr.name: expr.evaluate(row) for expr in op.keys + op.values}
            for row in rows
        ]
    if isinstance(op, Reduce):
        return _apply_reduce(rows, op)
    if isinstance(op, Distinct):
        keys = op.keys or (tuple(rows[0].keys()) if rows else ())
        seen: set[tuple] = set()
        out: list[Row] = []
        for row in rows:
            key = tuple(row[k] for k in keys)
            if key not in seen:
                seen.add(key)
                out.append({k: row[k] for k in keys})
        return out
    if isinstance(op, Join):
        raise QueryValidationError(
            "joins are executed by the stream processor engine, not apply_operator"
        )
    raise QueryValidationError(f"unsupported operator {op!r}")


def apply_operators(
    rows: list[Row],
    operators: Sequence[Operator],
    tables: Mapping[str, set] | None = None,
) -> list[Row]:
    """Apply a linear operator chain to a batch of tuples."""
    for op in operators:
        rows = apply_operator(rows, op, tables)
    return rows


def assemble_join_tree(
    node: "int | JoinNode",
    leaf_outputs: Mapping[int, "list[Row] | None"],
    tables: Mapping[str, set] | None = None,
) -> "list[Row] | None":
    """Row twin of :func:`repro.streaming.batchops.assemble_join_tree`,
    inactive (``None``) leaves included."""
    return _join_tree(node, leaf_outputs, tables)[0]


def _join_tree(node, leaf_outputs, tables) -> "tuple[list[Row] | None, bool]":
    """:func:`assemble_join_tree`, and whether a leaf under ``node`` is
    inactive."""
    if not isinstance(node, JoinNode):
        rows = leaf_outputs.get(node)
        return rows, rows is None
    left, left_partial = _join_tree(node.left, leaf_outputs, tables)
    right, right_partial = _join_tree(node.right, leaf_outputs, tables)
    if left is None or right is None:
        return (right if left is None else left), True
    joined = join_rows(left, right, node.keys)
    if left_partial or right_partial:
        return joined, True
    return apply_operators(joined, node.post_ops, tables), False


def join_rows(left: list[Row], right: list[Row], keys: Sequence[str]) -> list[Row]:
    """Inner hash join of two tuple batches on ``keys``."""
    index: dict[tuple, list[Row]] = {}
    for row in right:
        index.setdefault(tuple(row[k] for k in keys), []).append(row)
    joined: list[Row] = []
    for row in left:
        key = tuple(row[k] for k in keys)
        for match in index.get(key, []):
            merged = dict(row)
            for name, value in match.items():
                if name in keys:
                    continue
                merged[name if name not in merged else f"{name}_r"] = value
            joined.append(merged)
    return joined
