"""Hash-indexed register arrays with d-way collision chains (§3.1.3).

True hash tables with collision resolution do not exist in PISA switches;
Sonata instead uses a sequence of up to ``d`` register arrays, each indexed
by a different hash of the key. The original key is stored alongside the
value so collisions can be *detected*; a key that collides in all ``d``
arrays overflows, and the packet is sent to the stream processor, which
adjusts the aggregates at the end of the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.errors import ResourceExhaustedError
from repro.exec.alu import UPDATE_FUNCS
from repro.utils.hashing import HashFamily


@dataclass(frozen=True)
class RegisterSpec:
    """Sizing of one stateful operator's register chain.

    ``n_slots`` is the per-array slot count (from the planner's training-
    data key estimate, with headroom), ``d`` the chain depth, ``key_bits``
    and ``value_bits`` the stored widths. Total memory is
    ``d * n_slots * (key_bits + value_bits)`` bits, all of which must fit
    in a single stage's register budget.
    """

    name: str
    n_slots: int
    d: int
    key_bits: int
    value_bits: int = 32
    seed: int = 0
    #: True for the compiler's width-only placeholder; the planner must
    #: replace it with a training-data-sized spec before installation.
    placeholder: bool = False

    def __post_init__(self) -> None:
        if self.n_slots < 1:
            raise ResourceExhaustedError(f"register {self.name}: no slots")
        if self.d < 1:
            raise ResourceExhaustedError(f"register {self.name}: chain depth < 1")

    @property
    def slot_bits(self) -> int:
        return self.key_bits + self.value_bits

    @property
    def total_bits(self) -> int:
        return self.d * self.n_slots * self.slot_bits


@dataclass
class UpdateResult:
    """Outcome of one per-packet register update."""

    value: int
    inserted: bool  # key was stored for the first time this window
    overflowed: bool  # all d arrays collided; packet must go to the SP


class RegisterChain:
    """Simulates the d-array register chain for one stateful operator."""

    def __init__(self, spec: RegisterSpec) -> None:
        self.spec = spec
        self._hashes = HashFamily(spec.d, spec.n_slots, seed=spec.seed)
        # One dict per array: slot index -> (key, value). Dicts model the
        # *contents* of the arrays; sizing/overflow behaviour follows the
        # fixed n_slots geometry exactly.
        self._arrays: list[dict[int, tuple[Hashable, int]]] = [
            {} for _ in range(spec.d)
        ]
        self.updates = 0
        self.overflows = 0
        #: Set by :meth:`bulk_load_vec`: the window's keys were placed, but
        #: their contents live with the caller, not in ``_arrays``.
        self._bulk_loaded = False

    def bulk_load_vec(
        self,
        key_columns: "list[np.ndarray]",
        vocabs: "list[list | None] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Place one window's unique keys in an *empty* chain, vectorized.

        Key ``j`` is row ``j`` of ``key_columns`` (one column per tuple
        element; a column with a vocabulary in ``vocabs`` holds ids into
        it, see :meth:`HashFamily.indices_vec`). Keys must be the window's
        *unique* keys in first-occurrence order. The d-way placement is
        simulated in numpy: walking the arrays in order, the first key
        hashing to a free slot wins it, losers proceed to the next array,
        keys losing all ``d`` arrays overflow. Because within a window
        arrays only fill up and keys are unique, this reproduces the
        per-packet sequential walk exactly. ``updates``/``overflows`` are
        NOT touched; the caller accounts them per packet.

        Returns ``(inserted, array_idx)`` where ``array_idx[j]`` is the
        array that stored key ``j`` (-1 for overflow). The chain stores
        nothing: the caller holds the window's values. Until
        :meth:`reset`, a second load, :meth:`update`, :meth:`lookup` and
        :meth:`dump` raise :class:`ResourceExhaustedError`.
        """
        if self._bulk_loaded or any(self._arrays):
            raise ResourceExhaustedError(
                "bulk_load_vec requires an empty register chain"
            )
        self._bulk_loaded = True
        n = len(key_columns[0]) if key_columns else 0
        index_matrix = (
            self._hashes.indices_vec(key_columns, vocabs)
            if n
            else np.empty((0, self.spec.d), dtype=np.int64)
        )
        inserted = np.zeros(n, dtype=bool)
        array_idx = np.full(n, -1, dtype=np.int64)
        remaining = np.arange(n, dtype=np.int64)
        for which in range(self.spec.d):
            if not len(remaining):
                break
            slots = index_matrix[remaining, which]
            # First occurrence per slot wins it (np.unique returns the
            # index of each unique value's first appearance).
            _, first = np.unique(slots, return_index=True)
            winners = remaining[first]
            inserted[winners] = True
            array_idx[winners] = which
            keep = np.ones(len(remaining), dtype=bool)
            keep[first] = False
            remaining = remaining[keep]
        return inserted, array_idx

    def _check_not_bulk_loaded(self, what: str) -> None:
        if self._bulk_loaded:
            raise ResourceExhaustedError(
                f"{what}: the register chain was bulk-loaded this window "
                "and holds placements only; reset() it first"
            )

    def update(self, key: Hashable, func: str, arg: int = 1) -> UpdateResult:
        """Apply ``func`` for ``key``; walk the chain on collisions."""
        self._check_not_bulk_loaded("update")
        try:
            update_func = UPDATE_FUNCS[func]
        except KeyError:
            raise ResourceExhaustedError(
                f"register ALU does not support function {func!r}"
            ) from None
        self.updates += 1
        for which in range(self.spec.d):
            index = self._hashes.index(which, key)
            slot = self._arrays[which].get(index)
            if slot is None:
                # First update of the key: the stored value starts from the
                # argument itself (1 for counting) — min/max in particular
                # must not fold with the zero-initialized register.
                value = 1 if func == "count" else arg
                self._arrays[which][index] = (key, value)
                return UpdateResult(value=value, inserted=True, overflowed=False)
            if slot[0] == key:
                value = update_func(slot[1], arg)
                self._arrays[which][index] = (key, value)
                return UpdateResult(value=value, inserted=False, overflowed=False)
        self.overflows += 1
        return UpdateResult(value=0, inserted=False, overflowed=True)

    def lookup(self, key: Hashable) -> int | None:
        self._check_not_bulk_loaded("lookup")
        for which in range(self.spec.d):
            slot = self._arrays[which].get(self._hashes.index(which, key))
            if slot is not None and slot[0] == key:
                return slot[1]
        return None

    def dump(self) -> dict[Hashable, int]:
        """All stored (key, value) pairs of the window so far."""
        self._check_not_bulk_loaded("dump")
        out: dict[Hashable, int] = {}
        for array in self._arrays:
            for key, value in array.values():
                out[key] = value
        return out

    def reset(self) -> None:
        """End-of-window register clear."""
        self._bulk_loaded = False
        for array in self._arrays:
            array.clear()

    def take_window_stats(self) -> tuple[int, int]:
        """Return and reset (updates, overflows) — called at window end.

        The runtime watches the per-window overflow rate: a sustained rate
        well above the planner's sizing target means the switch is holding
        many more keys than the training data predicted, which is the
        §3.3/§5 signal to re-run the query planner.
        """
        stats = (self.updates, self.overflows)
        self.updates = 0
        self.overflows = 0
        return stats
