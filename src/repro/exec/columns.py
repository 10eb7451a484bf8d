"""Column-dict state shared by the vectorized execution engines.

A :class:`ColumnarState` holds one window of tuples as ``field name →
numpy array`` over :class:`~repro.packets.trace.Trace` views. String- and
bytes-valued fields (DNS names, payloads) are stored as integer ids into a
vocabulary side table (-1 = absent) so grouping and membership tests stay
vectorized; :func:`materialize_rows` resolves ids back to the exact
Python values the row-wise engines produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection, Sequence

import numpy as np

from repro.core.fields import FIELDS, FieldRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.packets.trace import Trace


@dataclass
class ColumnarState:
    """Tuple columns mid-pipeline.

    ``columns`` maps field name → numpy array (one entry per tuple).
    ``vocabs`` maps *string-typed* field names → list of strings; the
    column then holds vocabulary ids (or -1 for "absent").
    """

    columns: dict[str, np.ndarray]
    vocabs: dict[str, list[str]] = field(default_factory=dict)

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

    @staticmethod
    def from_trace(trace: "Trace", registry: FieldRegistry = FIELDS) -> "ColumnarState":
        columns = {
            name: np.asarray(trace.array[registry.get(name).column])
            for name in registry.names()
        }
        return ColumnarState(
            columns=columns,
            # payload ids resolve through the trace's payload table exactly
            # like DNS-name ids resolve through the qname vocabulary.
            vocabs={
                "dns.rr.name": list(trace.qnames),
                "payload": list(trace.payloads),
            },
        )


def materialize_rows(
    state: ColumnarState, names: "list[str] | tuple[str, ...]"
) -> list[dict[str, Any]]:
    """Materialize every row of ``state`` as a dict of Python values.

    Types match the row-wise engines exactly: plain ``int`` (``float`` for
    the float-typed ``ts`` column), vocab ids resolved to ``str``/``bytes``
    with ``""``/``b""`` for absent (-1) ids.
    """
    n = state.n_rows
    resolved: dict[str, list[Any]] = {}
    for name in names:
        col = state.columns[name]
        vocab = state.vocabs.get(name)
        if vocab is not None:
            missing: str | bytes = b"" if name == "payload" else ""
            ids = col.astype(np.int64, copy=False).tolist()
            resolved[name] = [
                vocab[i] if 0 <= i < len(vocab) else missing for i in ids
            ]
        elif col.dtype.kind == "f":
            resolved[name] = [float(v) for v in col.tolist()]
        else:
            resolved[name] = col.tolist()  # tolist() yields Python ints
    return [{name: resolved[name][i] for name in names} for i in range(n)]


def canonical_column(
    state: ColumnarState, name: str
) -> "tuple[np.ndarray, list | None]":
    """Column with value-canonical ids, plus its canonical vocabulary.

    Plain columns pass through. Vocab columns are remapped so that equal
    values share one id and absent cells (-1, which the row engines read
    as ``""``/``b""``) merge with the explicit empty value — canonical id
    0 is always the empty value, so no -1 remains in the output.
    """
    vocab = state.vocabs.get(name)
    if vocab is None:
        return state.columns[name], None
    missing: "str | bytes" = b"" if name == "payload" else ""
    ids = state.columns[name].astype(np.int64, copy=False)
    # Out-of-range ids materialize as the empty value in the row engines.
    valid = (ids >= 0) & (ids < len(vocab))
    present = np.unique(ids[valid])  # only the ids that occur are interned
    canon_vocab: list = [missing]
    intern: dict = {missing: 0}
    remap = []
    for value in (vocab[i] for i in present.tolist()):
        canon = intern.get(value)
        if canon is None:
            canon = intern[value] = len(canon_vocab)
            canon_vocab.append(value)
        remap.append(canon)
    out = np.zeros(len(ids), dtype=np.int64)
    out[valid] = np.array(remap, dtype=np.int64)[np.searchsorted(present, ids[valid])]
    return out, canon_vocab


def canonical_state(state: ColumnarState, keys: Sequence[str]) -> ColumnarState:
    """State whose key columns are safe to group (and hash) by raw id.

    A state's vocabulary may hold duplicate entries (trace payload tables
    are not deduplicated) and absent cells (-1) compare equal to
    ``""``/``b""`` in the row engines, so every vocab-typed key column is
    remapped to :func:`canonical_column` ids.
    """
    columns = dict(state.columns)
    vocabs = dict(state.vocabs)
    for k in keys:
        if k in state.vocabs:
            columns[k], vocabs[k] = canonical_column(state, k)
    return ColumnarState(columns=columns, vocabs=vocabs)

