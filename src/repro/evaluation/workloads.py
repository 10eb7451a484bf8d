"""Workload construction for the evaluation (§6.1).

The paper replays a CAIDA backbone trace that already contains the attack
traffic its queries look for. Our substitute composes the synthetic
backbone with one injected attack per evaluated query, choosing victims
from the backbone's own server population (so join-based queries like SYN
flood see the victim in both join branches) and scaling attack rates to
clear the default thresholds in every window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.packets import BackboneConfig, Trace, generate_backbone
from repro.packets import attacks
from repro.queries.library import QUERY_LIBRARY


@dataclass
class Workload:
    """A composed trace plus its planted ground truth."""

    trace: Trace
    victims: dict[str, int]  # query name -> planted victim/offender address
    duration: float
    config: BackboneConfig


def _busy_servers(dips: np.ndarray, counts: np.ndarray, count: int) -> list[int]:
    """The most popular destinations — realistic attack victims."""
    order = np.argsort(counts)[::-1]
    return [int(dips[i]) for i in order[:count]]


def _quiet_servers(dips: np.ndarray, counts: np.ndarray, count: int) -> list[int]:
    """Low-volume destinations (Slowloris victims should be quiet)."""
    eligible = dips[(counts >= 2) & (counts <= 20)]
    return [int(v) for v in eligible[:count]]


def build_workload(
    names: "list[str] | tuple[str, ...]",
    duration: float = 18.0,
    pps: float = 3_000.0,
    seed: int = 7,
    attack_start: float = 0.0,
) -> Workload:
    """Backbone plus one attack per named query, active the whole trace."""
    config = BackboneConfig(duration=duration, pps=pps, seed=seed)
    backbone = generate_backbone(config)
    dips, counts = np.unique(backbone.array["dip"], return_counts=True)
    busy = _busy_servers(dips, counts, 16)
    quiet = _quiet_servers(dips, counts, 16)
    rng = np.random.default_rng(seed + 1)

    pieces = [backbone]
    victims: dict[str, int] = {}
    attack_span = duration - attack_start

    for index, name in enumerate(names):
        spec = QUERY_LIBRARY[name]
        if spec.inject is None:
            continue
        victim = busy[index % len(busy)]
        attack_seed = seed * 100 + index
        if name == "newly_opened_tcp_conns":
            trace = attacks.syn_flood(
                victim, start=attack_start, duration=attack_span,
                pps=60.0, seed=attack_seed,
            )
        elif name == "ssh_brute_force":
            trace = attacks.ssh_brute_force(
                victim, start=attack_start, duration=attack_span,
                n_attackers=int(24 * attack_span), attempts_per_attacker=3,
                seed=attack_seed,
            )
        elif name == "superspreader":
            victim = int(rng.integers(1, 1 << 32))
            trace = attacks.superspreader(
                victim, start=attack_start, duration=attack_span,
                n_destinations=int(70 * attack_span), seed=attack_seed,
            )
        elif name == "port_scan":
            scanner = int(rng.integers(1, 1 << 32))
            trace = attacks.port_scan(
                scanner, busy[(index + 1) % len(busy)],
                start=attack_start, duration=attack_span,
                n_ports=min(int(50 * attack_span), 60_000), seed=attack_seed,
            )
            victim = scanner  # the query reports the scanner (sIP)
        elif name == "ddos":
            trace = attacks.ddos(
                victim, start=attack_start, duration=attack_span,
                n_sources=int(90 * attack_span), packets_per_source=2,
                seed=attack_seed,
            )
        elif name == "syn_flood":
            trace = attacks.syn_flood(
                victim, start=attack_start, duration=attack_span,
                pps=80.0, seed=attack_seed,
            )
        elif name == "incomplete_flows":
            trace = attacks.incomplete_flows(
                victim, start=attack_start, duration=attack_span,
                n_flows=int(80 * attack_span), seed=attack_seed,
            )
        elif name == "slowloris":
            victim = quiet[index % len(quiet)] if quiet else victim
            trace = attacks.slowloris(
                victim, start=attack_start, duration=attack_span,
                n_connections=int(120 * attack_span), seed=attack_seed,
            )
        elif name == "dns_tunneling":
            client = int(rng.integers(1, 1 << 32))
            resolver = busy[(index + 2) % len(busy)]
            trace = attacks.dns_tunnel(
                client, resolver, start=attack_start, duration=attack_span,
                n_lookups=int(40 * attack_span), seed=attack_seed,
            )
            victim = client  # responses flow to the tunneling client
        elif name == "zorro":
            trace = attacks.zorro(
                victim,
                start=attack_start,
                probe_duration=attack_span,
                n_probes=int(40 * attack_span),
                shell_delay=min(attack_span / 2, 10.0),
                seed=attack_seed,
            )
        elif name == "dns_reflection":
            trace = attacks.dns_reflection(
                victim, start=attack_start, duration=attack_span,
                n_resolvers=int(60 * attack_span), responses_per_resolver=3,
                seed=attack_seed,
            )
        else:  # pragma: no cover - new library entries need a case here
            raise KeyError(f"no attack recipe for query {name!r}")
        pieces.append(trace)
        victims[name] = victim

    return Workload(
        trace=Trace.merge(pieces),
        victims=victims,
        duration=duration,
        config=config,
    )
