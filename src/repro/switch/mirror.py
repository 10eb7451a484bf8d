"""The mirror channel's data units: per-row tuples and columnar batches.

The switch -> emitter channel carries three kinds of reports (§3.1.3):
``stream`` tuples (stateless-last instances mirror every surviving
packet), ``key_report`` tuples (one per reported key, read from the
registers at window end) and ``overflow`` tuples (keys that collided in
all ``d`` register arrays). :class:`MirroredTuple` is the per-row unit
the row-wise oracle produces; :class:`MirroredBatch` is the columnar
native unit of the batched channel — one window's worth of same-shape
tuples for one instance, kept as :class:`~repro.exec.ColumnarState`
columns so the emitter and the stream processor can keep executing on
the shared vectorized kernels instead of dict rows.

A batch materializes to exactly the tuples the row path would have
produced (same values, same order) — the differential suites compare the
two representations through :meth:`MirroredBatch.materialize`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import numpy as np

from repro.exec import ColumnarState, materialize_rows, values_equal

__all__ = [
    "MirroredTuple",
    "MirroredBatch",
    "MirroredRows",
    "column_from_values",
    "state_from_rows",
    "concat_states",
    "merge_tagged",
]


@dataclass
class MirroredTuple:
    """One tuple sent from the switch to the stream processor."""

    instance: str
    kind: str  # "stream" (stateless-last), "key_report", "overflow"
    fields: dict[str, Any]
    op_index: int  # operators already applied when the tuple left the switch


def column_from_values(
    name: str, values: Sequence[Any]
) -> tuple[np.ndarray, "list | None"]:
    """Build one column from Python values; returns (array, vocab-or-None).

    Ints become an int64 column, floats a float64 column; ``str``/``bytes``
    values are interned into a vocabulary with the column holding ids —
    the same encoding :class:`~repro.exec.ColumnarState` uses for trace
    fields, so :func:`~repro.exec.materialize_rows` resolves them back to
    the exact row-engine values.
    """
    for v in values:
        if isinstance(v, (str, bytes)):
            vocab: list = []
            intern: dict = {}
            ids = np.empty(len(values), dtype=np.int64)
            for i, value in enumerate(values):
                idx = intern.get(value)
                if idx is None:
                    idx = intern[value] = len(vocab)
                    vocab.append(value)
                ids[i] = idx
            return ids, vocab
        if isinstance(v, float):
            return np.asarray(values, dtype=np.float64), None
        break
    return np.asarray(values, dtype=np.int64), None


def state_from_rows(
    rows: "list[dict[str, Any]]", order: "Sequence[str] | None" = None
) -> ColumnarState:
    """Intern dict rows into a :class:`ColumnarState` (inverse of
    :func:`~repro.exec.materialize_rows`). All rows must share one shape."""
    names = list(order) if order is not None else (list(rows[0]) if rows else [])
    columns: dict[str, np.ndarray] = {}
    vocabs: dict[str, list] = {}
    for name in names:
        column, vocab = column_from_values(name, [row[name] for row in rows])
        columns[name] = column
        if vocab is not None:
            vocabs[name] = vocab
    return ColumnarState(columns=columns, vocabs=vocabs)


@dataclass
class MirroredBatch:
    """One instance's same-kind mirror output for a window, columnar.

    ``state`` holds the tuple fields as columns (schema order preserved);
    ``rows`` optionally tags each batch row with the global packet-row id
    it came from and ``pos`` with the instance's installation position —
    together they reproduce the per-packet channel interleaving
    (all of packet i's tuples before packet i+1's, instances in
    installation order within a packet) when batches are flattened back
    to tuples. Key-report batches have no packet provenance (``rows`` is
    ``None``).
    """

    instance: str
    kind: str  # "stream" | "key_report" | "overflow"
    op_index: int
    state: ColumnarState
    rows: "np.ndarray | None" = None
    pos: int = 0

    @property
    def n_rows(self) -> int:
        return self.state.n_rows

    def field_names(self) -> list[str]:
        return list(self.state.columns)

    def materialize(self) -> list[MirroredTuple]:
        """The exact per-row tuples this batch stands for, in batch order."""
        return [
            MirroredTuple(
                instance=self.instance,
                kind=self.kind,
                fields=fields,
                op_index=self.op_index,
            )
            for fields in materialize_rows(self.state, self.field_names())
        ]

    def data_equal(self, other: "MirroredBatch") -> bool:
        """Value-level equality: the same instance, kind, op_index, field
        order and :meth:`materialize` rows, decided on the columns (vocab
        ids may differ between encodings)."""
        if (self.instance, self.kind, self.op_index) != (
            other.instance, other.kind, other.op_index,
        ):
            return False
        names = self.field_names()
        if names != other.field_names():
            return False
        return values_equal(self.state, other.state, names)

    @staticmethod
    def from_tuples(
        instance: str,
        kind: str,
        op_index: int,
        tuples: "Iterable[MirroredTuple]",
        order: "Sequence[str] | None" = None,
    ) -> "MirroredBatch":
        rows = [t.fields for t in tuples]
        return MirroredBatch(
            instance=instance,
            kind=kind,
            op_index=op_index,
            state=state_from_rows(rows, order),
        )


def concat_states(states: "Sequence[ColumnarState]") -> ColumnarState:
    """Stack same-schema states vertically, unifying vocabularies.

    States carved out of one window share vocabulary *objects*, so the
    common case concatenates id columns directly; states from different
    encodings (e.g. a decoded wire batch next to a switch-native one) get
    their vocabularies interned into a union table and their ids remapped.
    Raises ``ValueError`` on schema mismatch (different column-name sets,
    or a column that is vocab-typed in one state and plain in another).
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
    vocabs: dict[str, list] = {}
    for name in names:
        flags = [name in s.vocabs for s in states]
        if any(flags):
            if not all(flags):
                raise ValueError(
                    f"column {name!r} is vocab-typed in some states only"
                )
            base = states[0].vocabs[name]
            if all(s.vocabs[name] is base for s in states):
                columns[name] = np.concatenate(
                    [s.columns[name].astype(np.int64, copy=False) for s in states]
                )
                vocabs[name] = base
            else:
                union: list = []
                intern: dict = {}
                parts = []
                for s in states:
                    vocab = s.vocabs[name]
                    remap = np.empty(len(vocab), dtype=np.int64)
                    for i, value in enumerate(vocab):
                        idx = intern.get(value)
                        if idx is None:
                            idx = intern[value] = len(union)
                            union.append(value)
                        remap[i] = idx
                    ids = s.columns[name].astype(np.int64, copy=False)
                    if len(vocab):
                        parts.append(
                            np.where(ids >= 0, remap[np.clip(ids, 0, None)], -1)
                        )
                    else:
                        parts.append(np.full(len(ids), -1, dtype=np.int64))
                columns[name] = np.concatenate(parts)
                vocabs[name] = union
        else:
            columns[name] = np.concatenate(
                [np.asarray(s.columns[name]) for s in states]
            )
    return ColumnarState(columns=columns, vocabs=vocabs)


@dataclass
class MirroredRows:
    """Retired row-materialized channel item; nothing constructs it.

    Kept importable for external tooling that still type-checks mirror
    items against it.
    """

    tagged: list = field(default_factory=list)


def merge_tagged(items: "Iterable[MirroredBatch]") -> list[MirroredTuple]:
    """Flatten batches back to the per-packet channel's tuple order."""
    tagged: list = []
    for item in items:
        rows = item.rows
        if rows is None:
            rows = np.zeros(item.n_rows, dtype=np.int64)
        for row, tup in zip(rows.tolist(), item.materialize()):
            tagged.append((row, item.pos, tup))
    tagged.sort(key=lambda entry: (entry[0], entry[1]))
    return [tup for _, _, tup in tagged]
