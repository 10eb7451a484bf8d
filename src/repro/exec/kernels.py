"""Vectorized operator kernels over :class:`ColumnarState` columns.

The one columnar evaluator. Both batch engines — the switch's batched
window path and the columnar operator interpreter
(:mod:`repro.streaming.batchops`, which also serves the planner's cost
estimation, the All-SP ground truth and raw mirroring) — execute
filters, maps, grouping, aggregation and joins through these functions, so
their semantics cannot drift apart. :mod:`repro.core` only describes
operators and evaluates them on one tuple; where a column cannot be
compared vectorized (vocab-typed names and payloads, ``contains``), a
kernel applies that scalar definition once per distinct value.
:func:`group_first_occurrence` is the one grouping kernel (and
:func:`group_keys` the same sort without the per-row inverse). The row-wise
interpreters share the scalar half of the ALU via :mod:`repro.exec.alu`.
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping, Sequence

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


def _int64_column(col: np.ndarray) -> np.ndarray:
    """A key column as int64; a float column as its bits."""
    if col.dtype.kind == "f":
        return col.astype(np.float64, copy=False).view(np.int64)
    return col.astype(np.int64, copy=False)


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


#: Odd, so multiplying by it permutes ``uint64``; the high bits of the
#: product depend on every bit of the code.
_HASH = np.uint64(0x9E3779B97F4A7C15)


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Positions of sorted ``ordered`` where a new value begins."""
    new = np.empty(len(ordered), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    return np.flatnonzero(new)


def _sorted_runs(codes: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Stably sort ``width``-bit ``codes``: ``(order, starts)``.

    ``order`` lists the rows so that equal codes are adjacent and, within
    a run, in row order; ``starts`` are the positions where a run begins,
    so ``order[starts]`` are the runs' first rows. With ``b`` bits for a
    row index, one value sort of ``code << b | row`` does it when the two
    fit in 64 bits. A wider code sorts a multiplicative hash of it in the
    ``64 - b`` free bits instead, and keeps that order only if the hash
    runs are exactly the code runs; on a collision it falls back to a
    stable argsort of the codes.
    """
    n = len(codes)
    b = (n - 1).bit_length()
    shift, low = np.uint64(b), np.uint64((1 << b) - 1)
    hashed = width + b > 64
    if hashed:
        words = codes * _HASH
        words &= ~low
    else:
        words = codes << shift
    words |= np.arange(n, dtype=np.uint64)
    words.sort()
    starts = _run_starts(words >> shift)
    words &= low
    order = words.view(np.int64)
    if hashed and len(_run_starts(codes[order])) != len(starts):
        order = np.argsort(codes, kind="stable")
        starts = _run_starts(codes[order])
    return order, starts


def _densify(codes: np.ndarray, width: int) -> tuple[np.ndarray, int]:
    """Replace codes by dense group ids; return ``(ids, bit width)``."""
    order, starts = _sorted_runs(codes, width)
    dense = np.empty(len(codes), dtype=np.uint64)
    dense[order] = np.repeat(
        np.arange(len(starts), dtype=np.uint64), np.diff(starts, append=len(codes))
    )
    return dense, (len(starts) - 1).bit_length()


def _pack_codes(columns: Sequence[np.ndarray]) -> tuple[np.ndarray, int]:
    """Fold int64 key columns into one ``uint64`` code per row.

    Returns ``(codes, width)``: rows get equal codes exactly when their
    keys are equal, and every code fits in ``width`` bits. Each column is
    shifted to start at zero (the int64 difference read as ``uint64``, so
    any span stays exact) and packed in the bits its range needs. When
    the next column would push the code past 64 bits the running code is
    first densified to group ids, and if it still does not fit the column
    is densified too; dense ids need at most ``bit_length(n)`` bits.
    """
    code, width = None, 0
    for column in columns:
        lo = int(column.min())
        bits = (int(column.max()) - lo).bit_length()
        column = (column - np.int64(lo)).view(np.uint64)
        if width + bits > 64:
            code, width = _densify(code, width)
            if width + bits > 64:
                column, bits = _densify(column, bits)
        if width == 0:
            code = column
        else:
            code <<= np.uint64(bits)
            code |= column
        width += bits
    return code, width


#: The open scope's memo of this window's groupings (``None`` outside one):
#: a frozenset of key-column ids -> ``(columns, first_rows, order, starts)``.
#: Holding the columns keeps their ids from being reused while it lives.
_WINDOW_GROUPS: ContextVar[dict | None] = ContextVar("window_groups", default=None)


@contextmanager
def shared_grouping() -> Iterator[None]:
    """Share one sort between the groupings of a scope (one window).

    Inside the scope, a grouping whose key columns are the very same
    array objects as an earlier grouping's, in any order, reuses that
    grouping's runs and first rows: they partition the rows the same way,
    whatever the key order. The memo is dropped when the scope exits;
    outside any scope every grouping sorts.
    """
    token = _WINDOW_GROUPS.set({})
    try:
        yield
    finally:
        _WINDOW_GROUPS.reset(token)


def _group(
    state: ColumnarState, keys: Sequence[str]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The one sort behind :func:`group_keys` and
    :func:`group_first_occurrence`: ``(unique, first_rows, order, starts)``
    (see :func:`_sorted_runs` for the last two). Under
    :func:`shared_grouping` the sort is shared by key-column identity."""
    if state.n_rows == 0:
        empty = np.empty(0, dtype=np.int64)
        return np.empty((0, len(keys)), dtype=np.int64), empty, empty, empty
    raw = [state.columns[k] for k in keys]
    memo, ident = _WINDOW_GROUPS.get(), frozenset(map(id, raw))
    if memo is not None and ident in memo:
        _raw, first_rows, order, starts = memo[ident]
        unique = np.stack([_int64_column(c[first_rows]) for c in raw], axis=1)
        return unique, first_rows, order, starts
    columns = [_int64_column(c) for c in raw]
    order, starts = _sorted_runs(*_pack_codes(columns))
    # Each run's first row is its group's first occurrence; marked and
    # read back in row order, they rank the groups as a row-wise engine
    # meets them.
    is_first = np.zeros(len(order), dtype=bool)
    is_first[order[starts]] = True
    first_rows = np.flatnonzero(is_first)
    unique = np.stack([column[first_rows] for column in columns], axis=1)
    if memo is not None:
        memo[ident] = (raw, first_rows, order, starts)
    return unique, first_rows, order, starts


def group_keys(
    state: ColumnarState, keys: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """``(unique, first_rows)`` of :func:`group_first_occurrence`, without
    the per-row ``inverse`` (what a distinct needs)."""
    unique, first_rows, _order, _starts = _group(state, keys)
    return unique, first_rows


def group_first_occurrence(
    state: ColumnarState, keys: Sequence[str], *, runs: bool = False
) -> tuple[np.ndarray, ...]:
    """Group rows by key columns, uniques ordered by *first occurrence*.

    Returns ``(unique, first_rows, inverse)`` where ``unique`` is the
    ``(n_keys, len(keys))`` int64 key matrix (float columns as their bit
    patterns, see :func:`key_columns`) in the order a row-wise
    engine first encounters each key, ``first_rows[j]`` is the row index
    of key ``j``'s first occurrence, and ``inverse[i]`` is row ``i``'s key
    id in that same order. This ordering is what makes the batched
    register simulation insert keys exactly like the per-packet oracle.

    The key columns are packed into one ``uint64`` code per row (see
    :func:`_pack_codes`) and grouped by one stable sort (see
    :func:`_sorted_runs`); the order of the codes is irrelevant because
    groups are ranked by first occurrence afterwards. With ``runs`` the
    sort's ``order`` and ``starts`` follow (what :func:`running_groups`
    takes).
    """
    n = state.n_rows
    unique, first_rows, order, starts = _group(state, keys)
    rank = np.empty(n, dtype=np.int64)
    rank[first_rows] = np.arange(len(first_rows))
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.repeat(rank[order[starts]], np.diff(starts, append=n))
    if runs:
        return unique, first_rows, inverse, order, starts
    return unique, first_rows, inverse


def first_occurrences(values: np.ndarray) -> np.ndarray:
    """Index of each distinct value's first occurrence in the int array
    ``values``, in no particular order (``np.unique``'s ``return_index``
    without its argsort)."""
    if not len(values):
        return np.empty(0, dtype=np.int64)
    order, starts = _sorted_runs(*_pack_codes([values.astype(np.int64)]))
    return order[starts]


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
    codes, _width = _pack_codes(
        [
            np.concatenate([unique[:, j], _int64_column(columns[k])])
            for j, k in enumerate(keys)
        ]
    )
    return np.isin(codes[: len(unique)], codes[len(unique) :])


def join_states(
    left: ColumnarState, right: ColumnarState, keys: Sequence[str]
) -> ColumnarState:
    """Inner hash join on ``keys``: the row join's rows, in its order (left
    rows in order, each with its matches in right order), and columns (the
    left's, then the right's non-key ones, a taken name suffixed ``_r``).
    Vocab keys match by value through one :func:`canonical_column` table;
    a key has one kind on both sides. An empty side gives an empty state."""
    n_left = left.n_rows
    if not n_left or not right.n_rows:
        return ColumnarState(columns={})
    both = []
    for k in keys:
        intern: dict = {}  # one id space for both sides
        ids = [_int64_column(canonical_column(s, k, intern)[0]) for s in (left, right)]
        both.append(np.concatenate(ids))
    # One sort of both sides' key codes: within a run rows keep row
    # order, so each run lists its left rows, then its right rows.
    order, starts = _sorted_runs(*_pack_codes(both))
    ends = np.append(starts[1:], len(order))
    run = np.empty(len(order), dtype=np.int64)
    run[order] = np.repeat(np.arange(len(starts)), ends - starts)
    n_right = np.add.reduceat((order >= n_left).astype(np.int64), starts)
    # Left row i's matches end its run; output row j is one of them.
    matches = n_right[run[:n_left]]
    left_rows = np.repeat(np.arange(n_left), matches)
    skip = np.repeat(ends[run[:n_left]] - np.cumsum(matches), matches)
    right_rows = order[skip + np.arange(len(left_rows))] - n_left
    picks = {name: (left, name, left_rows) for name in left.columns}
    for name in right.columns:
        if name not in keys:
            picks[name if name not in picks else f"{name}_r"] = (right, name, right_rows)
    return ColumnarState(
        columns={out: s.columns[n][rows] for out, (s, n, rows) in picks.items()},
        vocabs={out: s.vocabs[n] for out, (s, n, _) in picks.items() if n in s.vocabs},
    )


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


