"""Hash-collision model for register sizing (§3.1.3, Figure 3).

A stateful operator uses a chain of ``d`` register arrays of ``n`` slots
each. Keys walk the chain and occupy the first non-colliding slot; a key
that collides in all ``d`` arrays overflows to the stream processor. The
paper's Figure 3 plots the overflow (collision) rate as the number of
incoming keys ``k`` grows relative to the estimate ``n``.

The analytic model below tracks the expected number of *unplaced* keys
after each array: throwing ``m`` keys uniformly into ``n`` slots occupies
``n * (1 - (1 - 1/n)^m)`` slots in expectation, so that many keys are
placed and the remainder moves on. The planner uses the inverse question —
how many slots keep the overflow rate under a target — to size registers
from the training-data key estimate, and keeps the rate *non-zero by
design* so that overflowing packets signal traffic growth to the runtime.
"""

from __future__ import annotations

import math

from repro.switch.config import SwitchConfig
from repro.switch.registers import RegisterSpec


def _expected_placed(n_slots: int, m_keys: float) -> float:
    """Expected keys placed when ``m_keys`` hash into ``n_slots`` slots."""
    if m_keys <= 0 or n_slots <= 0:
        return 0.0
    occupied = n_slots * (1.0 - (1.0 - 1.0 / n_slots) ** m_keys)
    return min(occupied, m_keys)


def chain_overflow_rate(n_slots: int, k_keys: int, d: int) -> float:
    """Expected fraction of ``k_keys`` overflowing a d-deep chain.

    ``n_slots`` is the per-array slot count. This reproduces the shape of
    Figure 3: the rate rises with k/n and falls as d grows.
    """
    if k_keys <= 0:
        return 0.0
    remaining = float(k_keys)
    for _ in range(max(d, 1)):
        placed = _expected_placed(n_slots, remaining)
        remaining -= placed
        if remaining <= 0:
            return 0.0
    return remaining / k_keys


def size_register(
    name: str,
    estimated_keys: int,
    key_bits: int,
    value_bits: int,
    config: SwitchConfig,
    target_overflow: float = 0.002,
) -> RegisterSpec:
    """Choose ``n`` for a stateful operator from the training estimate;
    the chain depth is the switch's ``default_hash_chain_depth``.

    The planner keeps the expected overflow rate at the *estimated* key
    count below ``target_overflow`` — low, but deliberately not zero
    (§3.3: collisions are the signal that the switch is holding many more
    keys than expected, which triggers re-planning).
    """
    depth = config.default_hash_chain_depth
    keys = max(estimated_keys, 1)
    n_slots = max(int(math.ceil(keys * config.register_headroom / depth)), 16)
    while chain_overflow_rate(n_slots, keys, depth) > target_overflow:
        n_slots = int(math.ceil(n_slots * 1.3))
    return RegisterSpec(
        name=name,
        n_slots=n_slots,
        d=depth,
        key_bits=key_bits,
        value_bits=value_bits,
    )
