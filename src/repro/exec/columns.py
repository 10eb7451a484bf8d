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


def column_values(state: ColumnarState, name: str) -> list[Any]:
    """One column as the Python values :func:`materialize_rows` puts in
    its rows."""
    col = state.columns[name]
    vocab = state.vocabs.get(name)
    if vocab is not None:
        missing: str | bytes = b"" if name == "payload" else ""
        ids = col.astype(np.int64, copy=False).tolist()
        return [vocab[i] if 0 <= i < len(vocab) else missing for i in ids]
    if col.dtype.kind == "f":
        return [float(v) for v in col.tolist()]
    return col.tolist()  # tolist() yields Python ints


def materialize_rows(
    state: ColumnarState, names: "list[str] | tuple[str, ...]"
) -> list[dict[str, Any]]:
    """Materialize every row of ``state`` as a dict of Python values.

    Types match the row-wise engines exactly: plain ``int`` (``float`` for
    the float-typed ``ts`` column), vocab ids resolved to ``str``/``bytes``
    with ``""``/``b""`` for absent (-1) ids.
    """
    n = state.n_rows
    resolved = {name: column_values(state, name) for name in names}
    return [{name: resolved[name][i] for name in names} for i in range(n)]


def canonical_column(
    state: ColumnarState, name: str, intern: "dict | None" = None
) -> "tuple[np.ndarray, list | None]":
    """Column with value-canonical ids, plus its canonical vocabulary.

    Plain columns pass through. Vocab columns are remapped so that equal
    values share one id and absent cells (-1, which the row engines read
    as ``""``/``b""``) merge with the explicit empty value — canonical id
    0 is always the empty value, so no -1 remains in the output. Calls
    that share one (initially empty) ``intern`` table put their columns in
    one id space, and each returns the union vocabulary so far.
    """
    vocab = state.vocabs.get(name)
    if vocab is None:
        return state.columns[name], None
    missing: "str | bytes" = b"" if name == "payload" else ""
    if intern is None:
        intern = {}
    intern.setdefault(missing, len(intern))
    ids = state.columns[name].astype(np.int64, copy=False)
    # Out-of-range ids materialize as the empty value in the row engines.
    valid = (ids >= 0) & (ids < len(vocab))
    # Only the ids that occur are interned.
    present, inverse = np.unique(ids[valid], return_inverse=True)
    remap = np.array(
        [intern.setdefault(vocab[i], len(intern)) for i in present.tolist()],
        dtype=np.int64,
    )
    out = np.zeros(len(ids), dtype=np.int64)
    out[valid] = remap[inverse]
    return out, list(intern)


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

