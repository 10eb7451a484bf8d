"""Vectorized operator kernels over :class:`ColumnarState` columns.

One shared kernel layer for both batch engines: the switch's batched
window path and the columnar operator interpreter
(:mod:`repro.streaming.batchops`, which also serves the planner's cost
estimation, the All-SP ground truth and raw mirroring) execute filters,
maps, grouping and aggregation through these functions, so their
semantics cannot drift apart. :func:`group_first_occurrence` is the one
grouping kernel. The row-wise interpreters share the scalar half of the
same definitions via :mod:`repro.exec.alu`.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.core.errors import QueryValidationError
from repro.core.expressions import Expression, Prefixed
from repro.core.fields import FIELDS, coarsen_value
from repro.core.operators import Filter, Map, Predicate, Reduce, Schema
from repro.exec.columns import ColumnarState, is_str_field


def coarsen_vocab(vocab: list[str], level: int) -> tuple[list[str], np.ndarray]:
    """Coarsen every vocab entry; return (new_vocab, id_remap)."""
    spec = FIELDS.get("dns.rr.name")
    new_vocab: list[str] = []
    intern: dict[str, int] = {}
    remap = np.empty(len(vocab), dtype=np.int64)
    for i, name in enumerate(vocab):
        coarse = str(coarsen_value(spec, name, level))
        if coarse not in intern:
            intern[coarse] = len(new_vocab)
            new_vocab.append(coarse)
        remap[i] = intern[coarse]
    return new_vocab, remap


def predicate_mask(
    pred: Predicate,
    state: ColumnarState,
    tables: Mapping[str, set] | None,
) -> np.ndarray:
    """Evaluate one predicate over the current columns."""
    if pred.op == "contains":
        # Byte-substring probes resolve through the payload side table.
        side = {"payloads": state.payloads}
        return pred.evaluate_columnar(state.columns, tables=tables, side_tables=side)
    if is_str_field(pred.field, state):
        vocab = state.vocabs[pred.field]
        ids = state.columns[pred.field]
        if pred.level is not None:
            spec = FIELDS.get(pred.field)
            values = [
                str(coarsen_value(spec, name, pred.level)) for name in vocab
            ]
        else:
            values = list(vocab)
        if pred.op == "in":
            table = (tables or {}).get(pred.value) or set()
            keep = np.array([v in table for v in values], dtype=bool)
        elif pred.op == "eq":
            keep = np.array([v == pred.value for v in values], dtype=bool)
        elif pred.op == "ne":
            keep = np.array([v != pred.value for v in values], dtype=bool)
        else:
            raise QueryValidationError(
                f"predicate op {pred.op!r} unsupported on string field {pred.field}"
            )
        mask = np.zeros(len(ids), dtype=bool)
        valid = ids >= 0
        mask[valid] = keep[ids[valid].astype(np.int64)]
        return mask
    side = {"payloads": state.payloads}
    return pred.evaluate_columnar(state.columns, tables=tables, side_tables=side)


def filter_mask(
    op: Filter, state: ColumnarState, tables: Mapping[str, set] | None
) -> np.ndarray:
    mask = np.ones(state.n_rows, dtype=bool)
    for pred in op.predicates:
        mask &= predicate_mask(pred, state, tables)
    return mask


def eval_expression(
    expr: Expression, state: ColumnarState
) -> tuple[np.ndarray, list[str] | None]:
    """Evaluate a map expression; returns (column, vocab-or-None)."""
    if isinstance(expr, Prefixed) and is_str_field(expr.field, state):
        vocab = state.vocabs[expr.field]
        new_vocab, remap = coarsen_vocab(vocab, expr.level)
        ids = state.columns[expr.field].astype(np.int64)
        if (ids < 0).any():
            # Rows without the field coarsen like the row engines coarsen
            # "" (e.g. "." for DNS names), not to a distinct absent id.
            spec = FIELDS.get(expr.field)
            missing = str(coarsen_value(spec, "", expr.level))
            if missing in new_vocab:
                missing_id = new_vocab.index(missing)
            else:
                missing_id = len(new_vocab)
                new_vocab = new_vocab + [missing]
            out = np.where(ids >= 0, remap[np.clip(ids, 0, None)], missing_id)
        else:
            out = np.where(ids >= 0, remap[np.clip(ids, 0, None)], -1)
        return out, new_vocab
    inputs = expr.inputs()
    column = expr.evaluate_columnar(state.columns)
    vocab = None
    if len(inputs) == 1 and is_str_field(inputs[0], state):
        # Pass-through of a string field keeps its vocabulary.
        vocab = state.vocabs[inputs[0]]
    return column, vocab


def apply_map(op: Map, state: ColumnarState) -> ColumnarState:
    columns: dict[str, np.ndarray] = {}
    vocabs: dict[str, list[str]] = {}
    for expr in op.keys + op.values:
        column, vocab = eval_expression(expr, state)
        columns[expr.name] = column
        if vocab is not None:
            vocabs[expr.name] = vocab
    return ColumnarState(columns=columns, vocabs=vocabs, payloads=state.payloads)


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


def state_bits(schema: Schema, keys: Sequence[str], n_keys: int, value_bits: int) -> int:
    key_bits = sum(schema.width_of(k) for k in keys)
    return n_keys * (key_bits + value_bits)


def threshold_mask(predicates: Sequence[Predicate], values: np.ndarray) -> np.ndarray:
    """Rows whose running aggregate passes every folded threshold predicate.

    The compiler's fold guarantee (``_is_threshold_filter``) means every
    predicate compares the reduce output with gt/ge/lt/le, so the probe
    only needs the aggregate value.
    """
    mask = np.ones(len(values), dtype=bool)
    for pred in predicates:
        if pred.op == "gt":
            mask &= values > pred.value
        elif pred.op == "ge":
            mask &= values >= pred.value
        elif pred.op == "lt":
            mask &= values < pred.value
        elif pred.op == "le":
            mask &= values <= pred.value
        else:  # pragma: no cover - excluded by the compiler's fold check
            raise QueryValidationError(
                f"folded threshold predicate has non-threshold op {pred.op!r}"
            )
    return mask


def reduce_args(
    op: Reduce, state: ColumnarState, schema_in: Schema
) -> tuple[str, np.ndarray]:
    """Resolve a reduce's (ALU function, per-row argument column).

    Matches the per-packet engine: no value field means the argument is 1,
    and ``sum`` over implicit 1s runs as ``count``.
    """
    value_field = op.resolved_value_field(schema_in)
    func = "count" if value_field is None and op.func == "sum" else op.func
    if value_field is None:
        args = np.ones(state.n_rows, dtype=np.int64)
    else:
        args = state.columns[value_field].astype(np.int64)
    return func, args


def materialize_keys(
    state: ColumnarState, keys: Sequence[str], unique: np.ndarray
) -> list[tuple]:
    """Resolve an int64 unique-key matrix to Python key tuples.

    Values match the row-wise engines: ints stay ``int``; vocab-typed
    columns resolve ids to ``str``/``bytes`` (``""``/``b""`` for -1).
    """
    columns = unique.T.tolist()  # Python ints
    for j, k in enumerate(keys):
        vocab = state.vocabs.get(k)
        if vocab is not None:
            missing: str | bytes = b"" if k == "payload" else ""
            columns[j] = [
                vocab[i] if 0 <= i < len(vocab) else missing for i in columns[j]
            ]
    return list(zip(*columns)) if columns else [() for _ in range(len(unique))]
