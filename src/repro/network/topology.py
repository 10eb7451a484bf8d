"""Traffic-to-switch assignment for multi-switch deployments.

A :class:`Topology` is a set of border switches plus an ingress function
deciding which switch observes each packet. Two assignment schemes are
provided: source-prefix ingress (each client block enters at a fixed
border, the common ISP case) and 5-tuple hashing (ECMP-style spraying —
the adversarial case for local thresholds, since one attack's packets
spread evenly over all switches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.packets.trace import Trace
from repro.utils.hashing import stable_hash

IngressFn = Callable[[np.ndarray], np.ndarray]


def prefix_ingress(n_switches: int, prefix_len: int = 8) -> IngressFn:
    """Assign packets by source prefix (stable per client block)."""

    def assign(array: np.ndarray) -> np.ndarray:
        prefixes = array["sip"] >> (32 - prefix_len)
        return (prefixes % n_switches).astype(np.int64)

    return assign


def hash_ingress(n_switches: int, seed: int = 0) -> IngressFn:
    """ECMP-style assignment by hashing the 5-tuple."""

    def assign(array: np.ndarray) -> np.ndarray:
        mix = (
            array["sip"].astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15)
            ^ array["dip"].astype(np.uint64) * np.uint64(0xBF58476D1CE4E5B9)
            ^ array["sport"].astype(np.uint64) << np.uint64(17)
            ^ array["dport"].astype(np.uint64) << np.uint64(33)
            ^ np.uint64(stable_hash(seed) & 0xFFFFFFFF)
        )
        mix ^= mix >> np.uint64(29)
        return (mix % np.uint64(n_switches)).astype(np.int64)

    return assign


@dataclass
class Topology:
    """A set of identically-provisioned border switches."""

    n_switches: int
    ingress: IngressFn

    @staticmethod
    def ecmp(n_switches: int, seed: int = 0) -> "Topology":
        return Topology(n_switches, hash_ingress(n_switches, seed))

    @staticmethod
    def by_source_prefix(n_switches: int, prefix_len: int = 8) -> "Topology":
        return Topology(n_switches, prefix_ingress(n_switches, prefix_len))

    def split(self, trace: Trace) -> list[Trace]:
        """Partition a trace into the per-switch views — without copying
        one sub-trace per switch.

        The ingress assignment is computed once; a single stable sort
        groups rows by switch (preserving packet order within each
        switch, exactly like the per-switch boolean masks it replaces),
        and every per-switch trace is then a contiguous *view* into that
        one grouped array, which halves peak memory.
        """
        if len(trace) == 0:
            return [trace for _ in range(self.n_switches)]
        assignment = self.ingress(trace.array)
        order = np.argsort(assignment, kind="stable")
        grouped = np.take(trace.array, order)  # the one copy, shared by all views
        bounds = np.searchsorted(
            assignment[order], np.arange(self.n_switches + 1)
        )
        return [
            Trace(
                grouped[bounds[switch_id] : bounds[switch_id + 1]],
                trace.qnames,
                trace.payloads,
            )
            for switch_id in range(self.n_switches)
        ]
