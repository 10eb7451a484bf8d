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

from repro.exec import ColumnarState, materialize_rows, state_from_rows, values_equal

__all__ = [
    "MirroredTuple",
    "MirroredBatch",
    "MirroredRows",
    "merge_tagged",
]


@dataclass
class MirroredTuple:
    """One tuple sent from the switch to the stream processor."""

    instance: str
    kind: str  # "stream" (stateless-last), "key_report", "overflow"
    fields: dict[str, Any]
    op_index: int  # operators already applied when the tuple left the switch


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
