"""Vectorized operator kernels over :class:`ColumnarState` columns.

The one columnar evaluator. Both batch engines — the switch's batched
window path and the columnar operator interpreter
(:mod:`repro.streaming.batchops`, which also serves the planner's cost
estimation, the All-SP ground truth and raw mirroring) — execute
filters, maps, grouping and aggregation through these functions, so
their semantics cannot drift apart. :mod:`repro.core` only describes
operators and evaluates them on one tuple; where a column cannot be
compared vectorized (vocab-typed names and payloads, ``contains``), a
kernel applies that scalar definition once per distinct value.
:func:`group_first_occurrence` is the one grouping kernel. The row-wise
interpreters share the scalar half of the ALU via :mod:`repro.exec.alu`.
"""

from __future__ import annotations

import numbers
from typing import Mapping, Sequence

import numpy as np

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
from repro.core.fields import FIELDS, coarsen_value
from repro.core.operators import Filter, Map, Predicate, Reduce, Schema
from repro.exec.columns import ColumnarState, Vocab, canonical_column

_COMPARE = {
    "eq": np.equal,
    "ne": np.not_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "lt": np.less,
    "le": np.less_equal,
}


def _coarsen_ints(name: str, col: np.ndarray, level: int) -> np.ndarray:
    """``coarsen_value`` of every cell of an int column, as one AND."""
    spec = FIELDS.get(name)
    mask = coarsen_value(spec, (1 << spec.width) - 1, level)
    return col & np.array(mask, dtype=col.dtype)


def _vectorized(pred: Predicate) -> bool:
    """Whether an int column can evaluate ``pred`` without the scalar path."""
    if pred.op == "in":
        return True
    if pred.op == "mask":
        return isinstance(pred.value, numbers.Integral)
    return pred.op in _COMPARE and isinstance(pred.value, numbers.Real)


def predicate_mask(
    pred: Predicate,
    state: ColumnarState,
    tables: Mapping[str, set] | None,
) -> np.ndarray:
    """Evaluate one predicate over the current columns.

    Int columns compare vectorized, refinement levels applied by one
    AND. Vocab columns, ``contains`` and constants an int column cannot
    equal apply the scalar :meth:`Predicate.evaluate` once per distinct
    value, so the row engines' semantics hold by construction.
    """
    if pred.field in state.vocabs or not _vectorized(pred):
        # Canonical vocab ids read an absent cell as the empty value.
        ids, values = canonical_column(state, pred.field)
        if values is None:
            distinct, ids = np.unique(ids, return_inverse=True)
            values = distinct.tolist()
        keep = np.fromiter(
            (pred.evaluate({pred.field: v}, tables) for v in values),
            dtype=bool,
            count=len(values),
        )
        return keep[ids]
    col = state.columns[pred.field]
    if pred.level is not None and pred.field in FIELDS:
        col = _coarsen_ints(pred.field, col, pred.level)
    if pred.op == "in":
        table = (tables or {}).get(pred.value)
        if not table:
            return np.zeros(len(col), dtype=bool)
        return np.isin(col, np.fromiter(table, dtype=np.int64, count=len(table)))
    if pred.op == "mask":
        return (col & pred.value) == pred.value
    return _COMPARE[pred.op](col, pred.value)


def filter_mask(
    op: Filter, state: ColumnarState, tables: Mapping[str, set] | None
) -> np.ndarray:
    mask = np.ones(state.n_rows, dtype=bool)
    for pred in op.predicates:
        mask &= predicate_mask(pred, state, tables)
    return mask


def eval_expression(
    expr: Expression, state: ColumnarState
) -> tuple[np.ndarray, Vocab | None]:
    """Evaluate a map expression; returns (column, vocab-or-None)."""
    columns = state.columns
    if isinstance(expr, FieldRef):
        return columns[expr.field], state.vocabs.get(expr.field)
    if isinstance(expr, Const):
        return np.full(state.n_rows, expr.value, dtype=np.int64), None
    if isinstance(expr, Prefixed):
        if expr.field in state.vocabs:
            ids, names = canonical_column(state, expr.field)
            return ids, Vocab((expr.evaluate({expr.field: n}) for n in names), names.kind)
        return _coarsen_ints(expr.field, columns[expr.field], expr.level), None
    if isinstance(expr, Quantized):
        col = columns[expr.field].astype(np.int64)
        return (col // expr.step) * expr.step, None
    if isinstance(expr, Ratio):
        num = columns[expr.numerator].astype(np.int64) * expr.scale
        den = columns[expr.denominator].astype(np.int64)
        out = np.zeros_like(num)
        nonzero = den != 0
        out[nonzero] = num[nonzero] // den[nonzero]
        return out, None
    if isinstance(expr, Difference):
        left = columns[expr.left].astype(np.int64)
        return left - columns[expr.right].astype(np.int64), None
    raise QueryValidationError(f"no columnar kernel for expression {expr!r}")


def apply_map(op: Map, state: ColumnarState) -> ColumnarState:
    columns: dict[str, np.ndarray] = {}
    vocabs: dict[str, Vocab] = {}
    for expr in op.keys + op.values:
        column, vocab = eval_expression(expr, state)
        columns[expr.name] = column
        if vocab is not None:
            vocabs[expr.name] = vocab
    return ColumnarState(columns=columns, vocabs=vocabs)


def _key_matrix(state: ColumnarState, keys: Sequence[str]) -> np.ndarray:
    """Key columns stacked as int64; float columns group by their bits."""
    return np.stack(
        [
            col.astype(np.float64, copy=False).view(np.int64)
            if col.dtype.kind == "f"
            else col.astype(np.int64)
            for col in (state.columns[k] for k in keys)
        ],
        axis=1,
    )


def key_columns(
    state: ColumnarState, keys: Sequence[str], unique: np.ndarray
) -> dict[str, np.ndarray]:
    """The columns of a unique-key matrix: int64, floats restored."""
    return {
        k: unique[:, j].view(np.float64)
        if state.columns[k].dtype.kind == "f"
        else unique[:, j]
        for j, k in enumerate(keys)
    }


def _sorted_groups(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One 1-D sort of ``codes``: ``(order, starts, group_of_sorted)``.

    ``order`` sorts the codes, ``starts`` are the sorted positions where
    a new code begins and ``group_of_sorted[i]`` is the dense id (in code
    order) of the code at sorted position ``i``.
    """
    order = np.argsort(codes)
    ordered = codes[order]
    new_group = np.empty(len(codes), dtype=bool)
    new_group[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_group[1:])
    starts = np.flatnonzero(new_group)
    sizes = np.diff(starts, append=len(codes))
    return order, starts, np.repeat(np.arange(len(starts)), sizes)


def _densify(codes: np.ndarray) -> tuple[np.ndarray, int]:
    """Replace codes by dense group ids; return ``(ids, bit width)``."""
    order, starts, group_of_sorted = _sorted_groups(codes)
    dense = np.empty(len(codes), dtype=np.uint64)
    dense[order] = group_of_sorted
    return dense, (len(starts) - 1).bit_length()


def _pack_codes(matrix: np.ndarray) -> np.ndarray:
    """Fold the key columns of ``matrix`` into one ``uint64`` code per row.

    Rows get equal codes exactly when their keys are equal. Each column is
    shifted to start at zero (in ``uint64``, so any int64 span stays exact)
    and packed in the bits its range needs. When the next column would push
    the code past 64 bits the running code is first densified to group
    ids, and if it still does not fit the column is densified too; dense
    ids need at most ``bit_length(n)`` bits.
    """
    code = np.zeros(len(matrix), dtype=np.uint64)
    width = 0
    for j in range(matrix.shape[1]):
        column = matrix[:, j].view(np.uint64)
        column = column - column.min()
        bits = int(column.max()).bit_length()
        if width + bits > 64:
            code, width = _densify(code)
            if width + bits > 64:
                column, bits = _densify(column)
        code = column if width == 0 else (code << np.uint64(bits)) | column
        width += bits
    return code


def group_first_occurrence(
    state: ColumnarState, keys: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group rows by key columns, uniques ordered by *first occurrence*.

    Returns ``(unique, first_rows, inverse)`` where ``unique`` is the
    ``(n_keys, len(keys))`` int64 key matrix (float columns as their bit
    patterns, see :func:`key_columns`) in the order a row-wise
    engine first encounters each key, ``first_rows[j]`` is the row index
    of key ``j``'s first occurrence, and ``inverse[i]`` is row ``i``'s key
    id in that same order. This ordering is what makes the batched
    register simulation insert keys exactly like the per-packet oracle.

    The key columns are packed into one ``uint64`` code per row (see
    :func:`_pack_codes`) and grouped with a single 1-D sort; the order
    of the codes is irrelevant because groups are ranked by first
    occurrence afterwards.
    """
    n = state.n_rows
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty((0, len(keys)), dtype=np.int64), empty, empty
    matrix = _key_matrix(state, keys)
    order, starts, group_of_sorted = _sorted_groups(_pack_codes(matrix))
    first = np.minimum.reduceat(order, starts)
    # Rank groups by first occurrence: the marked first rows, read in row
    # order, are the groups in the order a row-wise engine meets them.
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    first_rows = np.flatnonzero(is_first)
    rank = np.empty(n, dtype=np.int64)
    rank[first_rows] = np.arange(len(first_rows))
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = rank[first][group_of_sorted]
    return np.take(matrix, first_rows, axis=0), first_rows, inverse


def keys_in(
    unique: np.ndarray,
    keys: Sequence[str],
    vocabs: Mapping[str, list],
    probe: ColumnarState,
) -> np.ndarray:
    """Mask of the rows of key matrix ``unique`` whose key occurs in ``probe``.

    ``unique`` is a :func:`group_first_occurrence` matrix over a state
    canonical for ``keys``, so its vocab-typed columns hold ids into the
    canonical ``vocabs``. ``probe``'s vocab-typed key columns are recoded
    into those vocabularies once per distinct value (a value they lack
    becomes -1, which no canonical id equals); the match itself is one
    membership test on the packed key codes of both matrices.
    """
    if not len(unique) or not probe.n_rows:
        return np.zeros(len(unique), dtype=bool)
    columns = dict(probe.columns)
    for k in keys:
        vocab = vocabs.get(k)
        if vocab is not None:
            ids, values = canonical_column(probe, k)
            index = {value: i for i, value in enumerate(vocab)}
            recoded = np.array([index.get(v, -1) for v in values], dtype=np.int64)
            columns[k] = recoded[ids]
    codes = _pack_codes(
        np.concatenate([unique, _key_matrix(ColumnarState(columns), keys)])
    )
    return np.isin(codes[: len(unique)], codes[len(unique) :])


def reduce_args(
    op: Reduce, state: ColumnarState, schema_in: Schema
) -> tuple[str, np.ndarray]:
    """Resolve a reduce's (ALU function, per-row argument column).

    Matches the per-packet engine: no value field means the argument is 1,
    and ``sum`` over implicit 1s runs as ``count``, whose argument is
    always 1.
    """
    value_field = op.resolved_value_field(schema_in)
    func = "count" if value_field is None and op.func == "sum" else op.func
    if value_field is None or func == "count":
        args = np.ones(state.n_rows, dtype=np.int64)
    else:
        args = state.columns[value_field].astype(np.int64)
    return func, args


