"""The columnar operator interpreter (batched engine).

The one interpreter for ``Filter``/``Map``/``Reduce``/``Distinct`` and
join trees over :class:`~repro.exec.ColumnarState` batches outside the
switch: the stream processor runs residual operators and joins on it,
the emitter its overflow re-merge, :mod:`repro.analytics` whole queries
(cost estimation, All-SP ground truth, raw mirroring) and the network
collector its merge. It runs on the shared :mod:`repro.exec` kernels,
grouping in first-occurrence order. The row-wise
:mod:`repro.streaming.rowops` is the differential oracle's alone — every
function here must produce exactly the rows its twin there would, in
the same order.

Grouped operators first remap string key columns to canonical ids
(:func:`~repro.exec.canonical_state`), where equal values share one id.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import QueryValidationError
from repro.core.operators import Distinct, Filter, Join, Map, Operator, Reduce
from repro.core.query import JoinNode
from repro.exec import (
    ColumnarState,
    aggregate_groups,
    apply_map,
    canonical_state,
    filter_mask,
    group_first_occurrence,
    group_keys,
    join_states,
    key_columns,
)

__all__ = [
    "apply_operator_state",
    "apply_operators_state",
    "assemble_join_tree",
]


def _apply_reduce(state: ColumnarState, op: Reduce) -> ColumnarState:
    n = state.n_rows
    value_field = op.value_field
    if value_field is None:
        values = np.ones(n, dtype=np.int64)
    else:
        values = state.columns[value_field].astype(np.int64)  # int() truncation
    agg_values = None if op.func == "count" else values
    if not op.keys:
        # Keyless reduce: one group holding every row (dict key ``()``).
        if n == 0:
            return ColumnarState(columns={op.out: np.empty(0, dtype=np.int64)})
        agg = aggregate_groups(
            np.zeros(n, dtype=np.int64), agg_values, 1, op.func
        )
        return ColumnarState(columns={op.out: agg})
    grouped = canonical_state(state, op.keys)
    unique, _first, inv = group_first_occurrence(grouped, op.keys)
    agg = aggregate_groups(inv, agg_values, len(unique), op.func)
    columns = key_columns(grouped, op.keys, unique)
    columns[op.out] = agg
    vocabs = {k: grouped.vocabs[k] for k in op.keys if k in grouped.vocabs}
    return ColumnarState(columns=columns, vocabs=vocabs)


def _apply_distinct(state: ColumnarState, op: Distinct) -> ColumnarState:
    keys = op.keys or tuple(state.columns)
    if not keys:
        # No columns at all — nothing to project (n_rows is 0 too).
        return ColumnarState(columns={})
    grouped = canonical_state(state, keys)
    unique, _first = group_keys(grouped, keys)
    columns = key_columns(grouped, keys, unique)
    vocabs = {k: grouped.vocabs[k] for k in keys if k in grouped.vocabs}
    return ColumnarState(columns=columns, vocabs=vocabs)


def apply_operator_state(
    state: ColumnarState,
    op: Operator,
    tables: Mapping[str, set] | None = None,
) -> ColumnarState:
    """Apply one operator to a columnar batch, returning the new batch."""
    if isinstance(op, Filter):
        mask = filter_mask(op, state, tables)
        return state if mask.all() else state.select(mask)
    if isinstance(op, Map):
        return apply_map(op, state)
    if isinstance(op, Reduce):
        return _apply_reduce(state, op)
    if isinstance(op, Distinct):
        return _apply_distinct(state, op)
    if isinstance(op, Join):
        raise QueryValidationError(
            "joins are executed by the stream processor engine, not apply_operator"
        )
    raise QueryValidationError(f"unsupported operator {op!r}")


def apply_operators_state(
    state: ColumnarState,
    operators: Sequence[Operator],
    tables: Mapping[str, set] | None = None,
) -> ColumnarState:
    """Apply a linear operator chain to a columnar batch."""
    if state.n_rows == 0:
        # The row engine yields [] for an empty batch regardless of the
        # chain; expressions must not be evaluated against a schemaless
        # empty state (the emitter emits one when nothing was mirrored).
        return ColumnarState(columns={})
    for op in operators:
        state = apply_operator_state(state, op, tables)
    return state


def assemble_join_tree(
    node: "int | JoinNode",
    leaf_outputs: Mapping[int, "ColumnarState | None"],
    tables: Mapping[str, set] | None = None,
) -> "ColumnarState | None":
    """Evaluate a query's join tree (a leaf id or a ``JoinNode``) from
    per-leaf sub-query outputs. A leaf mapped to ``None`` is *inactive*
    (a payload sub-query at a coarse level): its join degrades to the
    active side, and every post-join operator above it is skipped, so the
    refinement keys stay a superset (Figure 9). ``None`` only if every
    leaf under ``node`` is inactive."""
    return _join_tree(node, leaf_outputs, tables)[0]


def _join_tree(node, leaf_outputs, tables) -> "tuple[ColumnarState | None, bool]":
    """:func:`assemble_join_tree`, and whether a leaf under ``node`` is
    inactive."""
    if not isinstance(node, JoinNode):
        state = leaf_outputs.get(node)
        return state, state is None
    left, left_partial = _join_tree(node.left, leaf_outputs, tables)
    right, right_partial = _join_tree(node.right, leaf_outputs, tables)
    if left is None or right is None:
        return (right if left is None else left), True
    joined = join_states(left, right, node.keys)
    if left_partial or right_partial:
        return joined, True
    return apply_operators_state(joined, node.post_ops, tables), False
