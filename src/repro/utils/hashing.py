"""Deterministic, seedable integer hashing.

The switch simulator indexes register arrays with a family of ``d``
independent hash functions (Section 3.1.3 of the paper: a sequence of up to
``d`` registers, each with a different hash function, mitigates collisions).
Python's builtin ``hash`` is salted per process, so we implement a stable
mix based on splitmix64, which has excellent avalanche behaviour and is
cheap enough for per-packet use.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Odd 64-bit constants from the splitmix64 reference implementation.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def _splitmix64(value: int) -> int:
    value = (value + _GAMMA) & _MASK64
    value = ((value ^ (value >> 30)) * _MIX1) & _MASK64
    value = ((value ^ (value >> 27)) * _MIX2) & _MASK64
    return value ^ (value >> 31)


# uint64 copies of the mix constants for the vectorized twin below.
_GAMMA_U = np.uint64(_GAMMA)
_MIX1_U = np.uint64(_MIX1)
_MIX2_U = np.uint64(_MIX2)
_S30 = np.uint64(30)
_S27 = np.uint64(27)
_S31 = np.uint64(31)


def _splitmix64_vec(value: np.ndarray) -> np.ndarray:
    """splitmix64 over a uint64 array; bit-identical to :func:`_splitmix64`."""
    value = value + _GAMMA_U
    value = (value ^ (value >> _S30)) * _MIX1_U
    value = (value ^ (value >> _S27)) * _MIX2_U
    return value ^ (value >> _S31)


_S11 = np.uint64(11)
_UNIT = 2.0 ** -53


def counter_uniform(base: int, position: int) -> float:
    """Uniform in [0, 1) at ``position`` of the splitmix64 stream ``base``.

    Output ``k`` of splitmix64 seeded with ``base`` is a pure function of
    ``(base, k)``, so any draw can be computed without the ones before it;
    the top 53 bits become the float. Bit-identical to
    :func:`counter_uniforms`.
    """
    return (_splitmix64((base + position * _GAMMA) & _MASK64) >> 11) * _UNIT


def counter_uniforms(base: int, start: int, n: int) -> np.ndarray:
    """Positions ``start .. start + n - 1`` of the stream, vectorized."""
    positions = np.arange(start, start + n, dtype=np.uint64)
    mixed = _splitmix64_vec(np.uint64(base) + positions * _GAMMA_U)
    return (mixed >> _S11).astype(np.float64) * _UNIT


def stable_hash(key: int | bytes | str | tuple, seed: int = 0) -> int:
    """Hash ``key`` to a 64-bit integer, deterministically across processes.

    Tuples are hashed by folding their elements; bytes/str are folded
    8 bytes at a time. Equal inputs always produce equal outputs for a given
    ``seed``; distinct seeds give (empirically) independent functions.
    """
    state = _splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5)
    for chunk in _iter_chunks(key):
        state = _splitmix64(state ^ chunk)
    return state


_NEG_TAG = 0x5A5A5A5A5A5A5A5A  # precedes -v for a negative int


def _iter_chunks(key: int | bytes | str | tuple) -> Iterable[int]:
    if isinstance(key, bool):  # bool is an int subclass; normalize explicitly
        yield int(key)
    elif isinstance(key, int):
        # Fold arbitrarily large ints 64 bits at a time.
        if key < 0:
            yield _NEG_TAG
            key = -key
        while True:
            yield key & _MASK64
            key >>= 64
            if not key:
                break
    elif isinstance(key, str):
        yield from _iter_chunks(key.encode("utf-8"))
    elif isinstance(key, (bytes, bytearray)):
        data = bytes(key)
        yield 0x6279746573  # tag so b"" != 0
        yield len(data)
        for offset in range(0, len(data), 8):
            yield int.from_bytes(data[offset : offset + 8], "little")
    elif isinstance(key, tuple):
        yield 0x7461706C65  # tag so ("a",) != "a"
        yield len(key)
        for element in key:
            for chunk in _iter_chunks(element):
                yield chunk
    else:
        raise TypeError(f"unhashable key type for stable_hash: {type(key)!r}")


class HashFamily:
    """A family of ``d`` independent hash functions onto ``[0, n_slots)``.

    Used by :class:`repro.switch.registers.RegisterChain` to index the
    sequence of register arrays, and by the collision-rate model in
    :mod:`repro.planner.collisions`.
    """

    def __init__(self, d: int, n_slots: int, seed: int = 0) -> None:
        if d < 1:
            raise ValueError("hash family needs at least one function")
        if n_slots < 1:
            raise ValueError("hash range must be positive")
        self.d = d
        self.n_slots = n_slots
        self.seed = seed
        self._seeds = [_splitmix64(seed + 0x1000 * (i + 1)) for i in range(d)]

    def index(self, which: int, key: int | bytes | str | tuple) -> int:
        """Return the slot index of ``key`` under hash function ``which``."""
        return stable_hash(key, seed=self._seeds[which]) % self.n_slots

    def indices(self, key: int | bytes | str | tuple) -> list[int]:
        """Return the slot index of ``key`` under every function in order."""
        return [self.index(i, key) for i in range(self.d)]

    def indices_vec(
        self,
        key_columns: "list[np.ndarray]",
        vocabs: "list[list | None] | None" = None,
    ) -> np.ndarray:
        """Slot indices for a batch of tuple keys, one column per element.

        Row ``i`` of the result holds ``self.indices(key_i)`` for the key
        ``(v_0[i], ..., v_{k-1}[i])``, bit-identical to :func:`stable_hash`.
        Element ``j`` is the integer ``key_columns[j][i]``, or, when
        ``vocabs[j]`` is a list, the value ``vocabs[j][key_columns[j][i]]``
        (ids must index the vocabulary).
        """
        n = len(key_columns[0]) if key_columns else 0
        vocabs = vocabs or [None] * len(key_columns)
        elements = [
            _element_chunks(np.asarray(col), vocab)
            for col, vocab in zip(key_columns, vocabs)
        ]
        out = np.empty((n, self.d), dtype=np.int64)
        tag = 0x7461706C65  # tuple tag, mirrors _iter_chunks
        length = len(key_columns)
        n_slots = np.uint64(self.n_slots)
        for which, seed in enumerate(self._seeds):
            state = _splitmix64(seed ^ 0xA5A5A5A5A5A5A5A5)
            state = _splitmix64(state ^ tag)
            state = _splitmix64(state ^ length)
            vec = np.full(n, state, dtype=np.uint64)
            for chunks, counts in elements:
                for c in range(chunks.shape[1]):
                    mixed = _splitmix64_vec(vec ^ chunks[:, c])
                    vec = mixed if counts is None else np.where(c < counts, mixed, vec)
            out[:, which] = (vec % n_slots).astype(np.int64)
        return out


def _element_chunks(
    column: np.ndarray, vocab: "list | None"
) -> "tuple[np.ndarray, np.ndarray | None]":
    """One key element's :func:`_iter_chunks` sequences, row by row.

    Returns an ``(n, m)`` uint64 chunk matrix padded on the right and the
    per-row chunk count, or ``None`` when every row has all ``m`` chunks.
    Vocab values are chunked once per id that occurs.
    """
    n = len(column)
    if vocab is None:
        if not n or column.min() >= 0:
            return column.astype(np.uint64)[:, None], None
        col = column.astype(np.int64)
        neg = col < 0
        chunks = np.zeros((n, 2), dtype=np.uint64)
        # int64 negation wraps only for -2**63, whose uint64 view is 2**63.
        chunks[:, 0] = np.where(neg, np.uint64(_NEG_TAG), col.astype(np.uint64))
        chunks[neg, 1] = (-col[neg]).astype(np.uint64)
        return chunks, np.where(neg, 2, 1)
    ids, inverse = np.unique(column.astype(np.int64), return_inverse=True)
    if n and ids[0] < 0:
        raise ValueError("vocab ids must be non-negative")
    per_id = [list(_iter_chunks(vocab[i])) for i in ids.tolist()]
    width = max((len(c) for c in per_id), default=0)
    table = np.zeros((len(ids), width), dtype=np.uint64)
    for r, seq in enumerate(per_id):
        table[r, : len(seq)] = seq
    counts = np.array([len(c) for c in per_id], dtype=np.int64)
    return table[inverse], counts[inverse]
