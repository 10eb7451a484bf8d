"""Sketch-based register state: the OpenSketch/UnivMon design point.

Sonata stores exact (key, value) pairs in d-way register chains so that
collisions are *detected* and overflow traffic can be corrected at the
stream processor (§3.1.3). The sketch-based systems it compares against
(OpenSketch, UnivMon — the Max-DP plan of Table 4) instead use count-min
sketches: no keys are stored, memory is fixed, nothing overflows — but
estimates can only over-count, and keys cannot be enumerated at window
end, so a threshold must be checked inline on every update.

This module implements the count-min sketch for the sketch-vs-chain
ablation benchmark, which compares its over-counting and memory with the
register chain's; the switch simulator itself runs register chains only.
A sketch-backed reduce would *require* a folded threshold (reporting "all
keys" is impossible without stored keys), which is exactly the
expressiveness restriction the paper attributes to sketch-only systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from repro.core.errors import ResourceExhaustedError
from repro.utils.hashing import HashFamily


@dataclass(frozen=True)
class SketchSpec:
    """Geometry of one count-min sketch."""

    name: str
    width: int  # counters per row
    depth: int  # rows (independent hash functions)
    counter_bits: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.width < 1 or self.depth < 1:
            raise ResourceExhaustedError(f"sketch {self.name}: bad geometry")

    @property
    def total_bits(self) -> int:
        return self.width * self.depth * self.counter_bits


class CountMinSketch:
    """A count-min sketch with conservative update.

    ``update`` returns the post-update estimate; ``estimate`` never
    under-counts the true value (the classic CMS guarantee) and
    conservative update tightens the over-count.
    """

    def __init__(self, spec: SketchSpec) -> None:
        self.spec = spec
        self._hashes = HashFamily(spec.depth, spec.width, seed=spec.seed)
        self._rows: list[list[int]] = [
            [0] * spec.width for _ in range(spec.depth)
        ]
        self.updates = 0

    def _indices(self, key: Hashable) -> list[int]:
        return self._hashes.indices(key)

    def estimate(self, key: Hashable) -> int:
        return min(
            row[index] for row, index in zip(self._rows, self._indices(key))
        )

    def update(self, key: Hashable, amount: int = 1) -> int:
        """Conservative-update increment; returns the new estimate."""
        self.updates += 1
        indices = self._indices(key)
        current = min(
            row[index] for row, index in zip(self._rows, indices)
        )
        target = current + amount
        for row, index in zip(self._rows, indices):
            if row[index] < target:
                row[index] = target
        return target

    def reset(self) -> None:
        for row in self._rows:
            for index in range(len(row)):
                row[index] = 0
