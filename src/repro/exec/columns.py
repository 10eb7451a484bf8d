"""The one columnar tuple format, shared by every batch engine.

A :class:`ColumnarState` holds one window of tuples as ``field name →
numpy array``. String- and bytes-valued columns (DNS names, payloads and
anything a query renames them to) hold integer ids into a
:class:`Vocab`; -1 (or any id out of range) is an absent cell, which
reads as the vocabulary's empty value. A vocabulary's kind is decided
where it is born — the field's :class:`~repro.core.fields.FieldSpec`
for trace columns, the values for interned rows, the codec for decoded
wire batches — and travels with it, so no reader looks at a column's
name. :func:`canonical_column` is the one interning helper: grouping,
membership tests, merges and the wire encoder all recode through it.
:func:`materialize_rows` resolves ids back to the exact Python values
the row-wise engines produce, and :func:`state_from_rows` is its
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection, Iterable, Sequence

import numpy as np

from repro.core.fields import FIELDS, FieldRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.packets.trace import Trace

#: One tuple as the row-wise engines and the reports hold it.
Row = dict[str, Any]


class Vocab(list):
    """The value table a string column's ids index.

    ``kind`` is ``"str"`` or ``"bytes"``; an absent id reads as
    :attr:`empty` (``""`` or ``b""``), as the row-wise engines read a
    missing DNS name or payload.
    """

    def __init__(self, values: Iterable = (), kind: str = "str") -> None:
        if kind not in ("str", "bytes"):
            raise ValueError(f"vocabulary kind must be 'str' or 'bytes', not {kind!r}")
        super().__init__(values)
        self.kind = kind

    @property
    def empty(self) -> "str | bytes":
        return b"" if self.kind == "bytes" else ""


def value_kind(value: Any) -> str:
    """How a column of values like ``value`` is stored: ``"str"`` or
    ``"bytes"`` (a vocab column), ``"float"`` or ``"int"``."""
    if isinstance(value, (bytes, bytearray)):
        return "bytes"
    if isinstance(value, str):
        return "str"
    return "float" if isinstance(value, float) else "int"


@dataclass
class ColumnarState:
    """Tuple columns mid-pipeline.

    ``columns`` maps field name → numpy array (one entry per tuple).
    ``vocabs`` maps *string-typed* field names → :class:`Vocab`; the
    column then holds vocabulary ids (or -1 for "absent").
    """

    columns: dict[str, np.ndarray]
    vocabs: dict[str, Vocab] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def select(self, mask: np.ndarray) -> "ColumnarState":
        return ColumnarState(
            columns={name: col[mask] for name, col in self.columns.items()},
            vocabs=self.vocabs,
        )

    def project(self, names: Collection[str]) -> "ColumnarState":
        """Only the columns (and vocabs) named in ``names``, in column order."""
        return ColumnarState(
            columns={k: col for k, col in self.columns.items() if k in names},
            vocabs={k: v for k, v in self.vocabs.items() if k in names},
        )

    def kind(self, name: str) -> str:
        """Column ``name``'s kind, as :func:`value_kind` names it."""
        vocab = self.vocabs.get(name)
        if vocab is not None:
            return vocab.kind
        return "float" if self.columns[name].dtype.kind == "f" else "int"

    @staticmethod
    def from_trace(trace: "Trace", registry: FieldRegistry = FIELDS) -> "ColumnarState":
        """The trace's columns as read-only views: a grouping shared by
        column identity (:func:`~repro.exec.kernels.shared_grouping`)
        cannot go stale through an in-place write."""
        specs = registry.specs()
        return ColumnarState(
            columns={spec.name: _read_only(trace.array[spec.column]) for spec in specs},
            vocabs={
                spec.name: Vocab(trace.strings(spec.column), spec.kind)
                for spec in specs
                if spec.kind != "int"
            },
        )


def _read_only(column: np.ndarray) -> np.ndarray:
    view = np.asarray(column).view()
    view.flags.writeable = False
    return view


def column_values(state: ColumnarState, name: str) -> list[Any]:
    """One column as the Python values :func:`materialize_rows` puts in
    its rows."""
    col = state.columns[name]
    vocab = state.vocabs.get(name)
    if vocab is not None:
        missing = vocab.empty
        ids = col.astype(np.int64, copy=False).tolist()
        return [vocab[i] if 0 <= i < len(vocab) else missing for i in ids]
    if col.dtype.kind == "f":
        return [float(v) for v in col.tolist()]
    return col.tolist()  # tolist() yields Python ints


def column_set(state: ColumnarState, name: str) -> set:
    """Column ``name``'s values as a set; empty if ``state`` lacks it."""
    return set(column_values(state, name)) if name in state.columns else set()


def materialize_rows(
    state: ColumnarState, names: "Sequence[str] | None" = None
) -> list[Row]:
    """Materialize every row of ``state`` as a dict of Python values.

    Types match the row-wise engines exactly: plain ``int`` (``float`` for
    the float-typed ``ts`` column), vocab ids resolved to ``str``/``bytes``
    with the vocabulary's empty value for absent (-1) ids. ``names``
    defaults to every column, in column order.
    """
    n = state.n_rows
    names = list(state.columns) if names is None else names
    resolved = {name: column_values(state, name) for name in names}
    return [{name: resolved[name][i] for name in names} for i in range(n)]


def canonical_column(
    state: ColumnarState, name: str, intern: "dict | None" = None
) -> "tuple[np.ndarray, Vocab | None]":
    """Column with value-canonical ids, plus its canonical vocabulary.

    Plain columns pass through. Vocab columns are remapped so that equal
    values share one id and absent cells (-1 or out of range) merge with
    the vocabulary's empty value, so no -1 remains in the output; on a
    fresh table the empty value is id 0. Calls that share one (initially
    empty) ``intern`` table put their columns in one id space, and each
    returns the union vocabulary so far.
    """
    vocab = state.vocabs.get(name)
    if vocab is None:
        return state.columns[name], None
    if intern is None:
        intern = {}
    empty = intern.setdefault(vocab.empty, len(intern))
    ids = state.columns[name].astype(np.int64, copy=False)
    valid = (ids >= 0) & (ids < len(vocab))
    # Only the ids that occur are interned.
    present, inverse = np.unique(ids[valid], return_inverse=True)
    remap = np.array(
        [intern.setdefault(vocab[i], len(intern)) for i in present.tolist()],
        dtype=np.int64,
    )
    out = np.full(len(ids), empty, dtype=np.int64)
    out[valid] = remap[inverse]
    return out, Vocab(intern, vocab.kind)


def values_equal(
    a: ColumnarState, b: ColumnarState, names: "Sequence[str]"
) -> bool:
    """Exactly ``materialize_rows(a, names) == materialize_rows(b, names)``,
    decided column by column without building rows.

    Vocab ids may differ between the two states, so vocab columns compare
    through one shared canonical id space. Numeric columns compare by value
    with Python's exact int/float semantics, which numpy's mixed
    ``int64``/``uint64`` and int/float comparisons (through ``float64``)
    do not keep.
    """
    if a.n_rows != b.n_rows:
        return False
    for name in names:
        if name in a.vocabs and name in b.vocabs:
            intern: dict = {}
            mine, _ = canonical_column(a, name, intern)
            theirs, _ = canonical_column(b, name, intern)
            same = np.array_equal(mine, theirs)
        else:
            x, y = a.columns[name], b.columns[name]
            if name in a.vocabs or name in b.vocabs or not (
                x.dtype.kind in "biuf" and y.dtype.kind in "biuf"
            ):
                same = column_values(a, name) == column_values(b, name)
            else:
                same = _numbers_equal(x, y)
        if not same:
            return False
    return True


def _numbers_equal(x: np.ndarray, y: np.ndarray) -> bool:
    """``column_values`` equality of two numeric columns of one length."""
    if x.dtype.kind == "f" or y.dtype.kind == "f":
        if x.dtype.kind == "f" and y.dtype.kind == "f":
            return bool(np.array_equal(x, y))  # NaN != NaN, as in Python
        f, i = (x, y) if x.dtype.kind == "f" else (y, x)
        f = f.astype(np.float64, copy=False)
        # A float equals an int only at the same integral value. Rounding
        # the ints to float64 keeps every such pair equal, and adds false
        # matches only where |value| >= 2**53: recheck those exactly.
        if not np.array_equal(f, i.astype(np.float64)):
            return False
        big = np.abs(f) >= 2.0**53
        return [int(v) for v in f[big].tolist()] == i[big].tolist()
    kinds = {x.dtype.kind, y.dtype.kind}
    if kinds == {"i", "u"}:
        signed, unsigned = (x, y) if x.dtype.kind == "i" else (y, x)
        if (signed < 0).any():
            return False
        return bool(np.array_equal(signed.astype(np.uint64), unsigned))
    return bool(np.array_equal(x, y))


def canonical_state(state: ColumnarState, keys: Sequence[str]) -> ColumnarState:
    """State whose key columns are safe to group (and hash) by raw id.

    A state's vocabulary may hold duplicate entries (trace payload tables
    are not deduplicated) and absent cells (-1) compare equal to the
    vocabulary's empty value in the row engines, so every vocab-typed key
    column is remapped to :func:`canonical_column` ids.
    """
    columns = dict(state.columns)
    vocabs = dict(state.vocabs)
    for k in keys:
        if k in state.vocabs:
            columns[k], vocabs[k] = canonical_column(state, k)
    return ColumnarState(columns=columns, vocabs=vocabs)



def column_from_values(values: Sequence[Any]) -> "tuple[np.ndarray, Vocab | None]":
    """Build one column from Python values; returns (array, vocab-or-None).

    The first value decides the column's kind (:func:`value_kind`): ints
    become an int64 column, floats a float64 column, and ``str``/``bytes``
    values are interned into a :class:`Vocab` of that kind with the column
    holding ids.
    """
    kind = value_kind(values[0]) if len(values) else "int"
    if kind in ("str", "bytes"):
        intern: dict = {}
        ids = np.fromiter(
            (intern.setdefault(v, len(intern)) for v in values),
            dtype=np.int64,
            count=len(values),
        )
        return ids, Vocab(intern, kind)
    return np.asarray(values, dtype=np.float64 if kind == "float" else np.int64), None


def state_from_rows(
    rows: "list[Row]", order: "Sequence[str] | None" = None
) -> ColumnarState:
    """Intern dict rows into a :class:`ColumnarState` (inverse of
    :func:`materialize_rows`). All rows must share one shape."""
    names = list(order) if order is not None else (list(rows[0]) if rows else [])
    columns: dict[str, np.ndarray] = {}
    vocabs: dict[str, Vocab] = {}
    for name in names:
        column, vocab = column_from_values([row[name] for row in rows])
        columns[name] = column
        if vocab is not None:
            vocabs[name] = vocab
    return ColumnarState(columns=columns, vocabs=vocabs)


def concat_states(states: "Sequence[ColumnarState | None]") -> ColumnarState:
    """Stack same-schema states vertically, unifying vocabularies.

    States carved out of one window share vocabulary *objects*, so the
    common case concatenates id columns directly; states from different
    encodings (e.g. a decoded wire batch next to a switch-native one) are
    recoded through one shared :func:`canonical_column` table, whose union
    vocabulary the result keeps. Raises ``ValueError`` on schema mismatch
    (different column-name sets, or a column that is vocab-typed in one
    state and plain in another).
    """
    states = [s for s in states if s is not None]
    if not states:
        return ColumnarState(columns={})
    if len(states) == 1:
        return states[0]
    names = list(states[0].columns)
    name_set = set(names)
    for s in states[1:]:
        if set(s.columns) != name_set:
            raise ValueError(
                f"cannot concat states with columns {sorted(s.columns)} "
                f"vs {sorted(name_set)}"
            )
    columns: dict[str, np.ndarray] = {}
    vocabs: dict[str, Vocab] = {}
    for name in names:
        flags = [name in s.vocabs for s in states]
        if not any(flags):
            columns[name] = np.concatenate(
                [np.asarray(s.columns[name]) for s in states]
            )
            continue
        if not all(flags):
            raise ValueError(f"column {name!r} is vocab-typed in some states only")
        base = states[0].vocabs[name]
        if all(s.vocabs[name] is base for s in states):
            parts = [s.columns[name].astype(np.int64, copy=False) for s in states]
            vocabs[name] = base
        else:
            intern: dict = {}
            parts = []
            for s in states:
                ids, vocabs[name] = canonical_column(s, name, intern)
                parts.append(ids)
        columns[name] = np.concatenate(parts)
    return ColumnarState(columns=columns, vocabs=vocabs)
