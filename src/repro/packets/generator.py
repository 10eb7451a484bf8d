"""Synthetic backbone-traffic generator (CAIDA-trace substitute).

The paper's evaluation replays CAIDA's anonymized Seattle–Chicago backbone
traces. What Sonata's gains actually depend on is the *statistical shape*
of that traffic, not the identity of the bytes:

- endpoint popularity is Zipfian (a few servers attract most flows, so
  aggregate keys concentrate in few prefixes — which is what makes
  hierarchical refinement pay off);
- flow sizes are heavy-tailed (Pareto) with full TCP handshake/teardown
  flag sequences (so SYN-based queries see realistic SYN:data ratios);
- the protocol and port mix is backbone-like (mostly TCP 80/443, some DNS);
- packets carry no payloads (CAIDA traces are header-only; only locally
  injected attack traffic has payloads).

:func:`generate_backbone` reproduces those properties with vectorized
numpy sampling, deterministically from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.fields import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_ACK,
    TCP_FIN,
    TCP_PSH,
    TCP_SYN,
    TCP_SYNACK,
)
from repro.packets.trace import TRACE_DTYPE, Trace
from repro.utils.sampling import ZipfSampler, pareto_sizes


@dataclass
class BackboneConfig:
    """Knobs for the synthetic backbone workload.

    The defaults yield roughly ``pps`` packets per second for ``duration``
    seconds with a composition that mirrors a backbone link: ~85% TCP,
    ~12% UDP (half of it DNS), ~3% ICMP.
    """

    duration: float = 30.0
    pps: float = 4_000.0
    seed: int = 20180820  # SIGCOMM'18 started August 20 2018

    # Host populations. Clients and servers are drawn from distinct prefix
    # pools so destination addresses cluster hierarchically, as real
    # backbone traffic does.
    n_clients: int = 6_000
    n_servers: int = 1_500
    n_client_prefixes: int = 48  # /12 client prefixes
    n_server_prefixes: int = 24  # /16 server prefixes
    client_zipf_alpha: float = 0.9
    server_zipf_alpha: float = 1.1

    # Flow-size tail.
    flow_pareto_shape: float = 1.3
    max_flow_packets: int = 2_000

    # Composition.
    tcp_fraction: float = 0.85
    udp_fraction: float = 0.12  # half DNS
    dns_share_of_udp: float = 0.5

    # Service ports and their popularity among TCP flows.
    tcp_services: tuple[tuple[int, float], ...] = (
        (80, 0.34),
        (443, 0.38),
        (8080, 0.05),
        (25, 0.04),
        (22, 0.03),
        (21, 0.02),
        (23, 0.002),  # telnet is nearly extinct on real backbones
        (3389, 0.01),
        (0, 0.128),  # 0 = random high port
    )

    n_domains: int = 800
    domain_zipf_alpha: float = 1.0


def _make_address_pool(
    rng: np.random.Generator, n_hosts: int, n_prefixes: int, prefix_len: int
) -> np.ndarray:
    """Hosts clustered under ``n_prefixes`` random /prefix_len prefixes."""
    prefixes = rng.integers(0, 1 << prefix_len, size=n_prefixes, dtype=np.uint64)
    prefixes <<= np.uint64(32 - prefix_len)
    assignment = rng.integers(0, n_prefixes, size=n_hosts)
    low_bits = rng.integers(1, 1 << (32 - prefix_len), size=n_hosts, dtype=np.uint64)
    return (prefixes[assignment] | low_bits).astype(np.uint32)


def _make_domains(rng: np.random.Generator, count: int) -> list[str]:
    """A pool of domains with varying label depth (for DNS refinement)."""
    tlds = ["com", "net", "org", "io", "info"]
    hosts = ["www", "mail", "cdn", "api", "ns1", "static"]
    domains: list[str] = []
    for i in range(count):
        tld = tlds[int(rng.integers(len(tlds)))]
        base = f"site{i:04d}.{tld}"
        depth = int(rng.integers(0, 3))
        if depth == 0:
            domains.append(base)
        elif depth == 1:
            domains.append(f"{hosts[int(rng.integers(len(hosts)))]}.{base}")
        else:
            sub = f"r{int(rng.integers(100))}"
            domains.append(f"{sub}.{hosts[int(rng.integers(len(hosts)))]}.{base}")
    return domains


def _sample_service_ports(
    rng: np.random.Generator, config: BackboneConfig, count: int
) -> np.ndarray:
    ports = np.array([p for p, _ in config.tcp_services], dtype=np.int64)
    weights = np.array([w for _, w in config.tcp_services], dtype=np.float64)
    weights /= weights.sum()
    chosen = ports[rng.choice(len(ports), size=count, p=weights)]
    randoms = rng.integers(1024, 65536, size=count)
    return np.where(chosen == 0, randoms, chosen).astype(np.uint16)


def _data_packet_lengths(rng: np.random.Generator, count: int) -> np.ndarray:
    """Bimodal packet sizes: ACK-sized small packets and MTU-sized data."""
    small = rng.integers(52, 600, size=count)
    large = np.full(count, 1500)
    pick_large = rng.random(count) < 0.45
    return np.where(pick_large, large, small).astype(np.uint16)


class RowBuilder:
    """Accumulates column fragments and assembles the time-ordered records.

    A scalar column is kept as ``(count, value)``, not materialized, until
    :meth:`build` writes it into its field, so fragments hold only the
    columns that vary from row to row.
    """

    _DEFAULTS = {"dns_name_id": -1, "payload_id": -1, "ttl": 64}

    def __init__(self) -> None:
        self._reset()

    def _reset(self) -> None:
        self._fragments: dict[str, list] = {name: [] for name in TRACE_DTYPE.names}
        self._count = 0

    def add(self, count: int, **columns: np.ndarray | int | float) -> None:
        if count == 0:
            return
        for name in TRACE_DTYPE.names:
            value = columns.get(name)
            if value is None:
                value = self._DEFAULTS.get(name, 0)
            if np.isscalar(value):
                fragment = (count, value)
            else:
                fragment = np.asarray(value).astype(TRACE_DTYPE[name], copy=False)
                if len(fragment) != count:
                    raise ValueError(
                        f"column {name} has {len(fragment)} rows, expected {count}"
                    )
            self._fragments[name].append(fragment)
        self._count += count

    def _column(self, name: str) -> np.ndarray:
        """Field ``name`` of every row in insertion order; drops its fragments."""
        column = np.empty(self._count, dtype=TRACE_DTYPE[name])
        start = 0
        for fragment in self._fragments.pop(name):
            if isinstance(fragment, tuple):
                count, value = fragment
                # Exactly how np.full fills: out-of-range ints raise, floats truncate.
                np.copyto(column[start : start + count], value, casting="unsafe")
            else:
                count = len(fragment)
                column[start : start + count] = fragment
            start += count
        return column

    def build(self, qnames: list[str] | None = None, payloads: list[bytes] | None = None) -> Trace:
        """The rows as a trace ordered by ``ts``; ties keep insertion order.

        One stable argsort of ``ts`` orders the rows; each field is then
        gathered with ``np.take`` into the records, and its fragments are
        dropped before the next field is assembled. So no field is held
        both as fragments and in the records for longer than its own copy,
        and besides those two, memory holds only the sort order and two
        columns: never a second record array. Empties the builder.
        """
        # TRACE_DTYPE is packed (no padding bytes), so filling every field
        # writes every byte of the uninitialized records.
        array = np.empty(self._count, dtype=TRACE_DTYPE)
        order = None
        for name in TRACE_DTYPE.names:  # "ts" first: it sets the order
            column = self._column(name)
            if order is None:
                order = np.argsort(column, kind="stable")
            array[name] = np.take(column, order)
            del column
        self._reset()
        return Trace(array, qnames or [], payloads or [])


def generate_backbone(config: BackboneConfig | None = None) -> Trace:
    """Generate a backbone-like trace per ``config`` (deterministic)."""
    builder, qnames = _backbone_rows(config or BackboneConfig())
    return builder.build(qnames=qnames)


def _backbone_rows(config: BackboneConfig) -> tuple[RowBuilder, list[str]]:
    """Every backbone packet as builder fragments, plus the DNS name table.

    Kept apart from :meth:`RowBuilder.build` so that the per-protocol
    temporaries here are freed before the records are assembled.
    """
    rng = np.random.default_rng(config.seed)

    clients = _make_address_pool(rng, config.n_clients, config.n_client_prefixes, 12)
    servers = _make_address_pool(rng, config.n_servers, config.n_server_prefixes, 16)
    client_sampler = ZipfSampler(config.n_clients, config.client_zipf_alpha, rng)
    server_sampler = ZipfSampler(config.n_servers, config.server_zipf_alpha, rng)

    target_packets = int(config.duration * config.pps)

    # Draw flows until their packet budget covers the target. TCP flows add
    # 5 control packets each; that is accounted for after composition below.
    sizes = pareto_sizes(
        max(target_packets // 8, 64),
        rng,
        shape=config.flow_pareto_shape,
        minimum=1,
        maximum=config.max_flow_packets,
    )
    while sizes.sum() < target_packets:
        sizes = np.concatenate(
            [
                sizes,
                pareto_sizes(
                    max(len(sizes) // 2, 64),
                    rng,
                    shape=config.flow_pareto_shape,
                    minimum=1,
                    maximum=config.max_flow_packets,
                ),
            ]
        )
    # Trim to just cover the target, accounting for the ~5 handshake/
    # teardown packets each TCP flow adds on top of its data packets.
    control_overhead = 5.0 * config.tcp_fraction
    cumulative = np.cumsum(sizes + control_overhead)
    n_flows = int(np.searchsorted(cumulative, target_packets)) + 1
    sizes = sizes[:n_flows]

    src = clients[client_sampler.sample(n_flows)]
    dst = servers[server_sampler.sample(n_flows)]
    sport = rng.integers(1024, 65536, size=n_flows).astype(np.uint16)
    start = rng.uniform(0.0, config.duration, size=n_flows)
    # Flow durations: heavy-tailed, bounded by trace end.
    mean_gap = rng.lognormal(mean=-5.0, sigma=1.0, size=n_flows)  # ~7ms median
    flow_dur = np.minimum(sizes * mean_gap, config.duration - start)

    proto_draw = rng.random(n_flows)
    is_tcp = proto_draw < config.tcp_fraction
    is_udp = (~is_tcp) & (proto_draw < config.tcp_fraction + config.udp_fraction)
    is_icmp = ~is_tcp & ~is_udp
    is_dns = is_udp & (rng.random(n_flows) < config.dns_share_of_udp)
    is_plain_udp = is_udp & ~is_dns

    builder = RowBuilder()

    # ---- TCP flows -------------------------------------------------------
    tcp_idx = np.flatnonzero(is_tcp)
    if len(tcp_idx):
        t_sizes = sizes[tcp_idx]
        t_src, t_dst = src[tcp_idx], dst[tcp_idx]
        t_sport = sport[tcp_idx]
        t_dport = _sample_service_ports(rng, config, len(tcp_idx))
        t_start, t_dur = start[tcp_idx], flow_dur[tcp_idx]

        handshake_gap = rng.exponential(0.002, size=len(tcp_idx))
        # SYN (c->s), SYN-ACK (s->c), ACK (c->s)
        builder.add(
            len(tcp_idx),
            ts=t_start,
            pktlen=60,
            proto=PROTO_TCP,
            sip=t_src,
            dip=t_dst,
            sport=t_sport,
            dport=t_dport,
            tcpflags=TCP_SYN,
        )
        builder.add(
            len(tcp_idx),
            ts=t_start + handshake_gap * 0.4,
            pktlen=60,
            proto=PROTO_TCP,
            sip=t_dst,
            dip=t_src,
            sport=t_dport,
            dport=t_sport,
            tcpflags=TCP_SYNACK,
        )
        builder.add(
            len(tcp_idx),
            ts=t_start + handshake_gap * 0.8,
            pktlen=52,
            proto=PROTO_TCP,
            sip=t_src,
            dip=t_dst,
            sport=t_sport,
            dport=t_dport,
            tcpflags=TCP_ACK,
        )
        # Data packets, mixed directions (servers push most bytes).
        data_flow = np.repeat(np.arange(len(tcp_idx)), t_sizes)
        n_data = len(data_flow)
        offsets = rng.random(n_data) * t_dur[data_flow]
        downstream = rng.random(n_data) < 0.65
        d_sip = np.where(downstream, t_dst[data_flow], t_src[data_flow])
        d_dip = np.where(downstream, t_src[data_flow], t_dst[data_flow])
        d_sport = np.where(downstream, t_dport[data_flow], t_sport[data_flow])
        d_dport = np.where(downstream, t_sport[data_flow], t_dport[data_flow])
        builder.add(
            n_data,
            ts=t_start[data_flow] + handshake_gap[data_flow] + offsets,
            pktlen=_data_packet_lengths(rng, n_data),
            proto=PROTO_TCP,
            sip=d_sip,
            dip=d_dip,
            sport=d_sport,
            dport=d_dport,
            tcpflags=TCP_ACK | np.where(rng.random(n_data) < 0.3, TCP_PSH, 0),
        )
        # FIN (c->s) and FIN-ACK (s->c). A small fraction of flows is
        # still open at trace end (realistic: no teardown observed).
        torn_down = (t_start + t_dur + 0.01) < config.duration
        td = np.flatnonzero(torn_down)
        builder.add(
            len(td),
            ts=t_start[td] + t_dur[td] + 0.001,
            pktlen=52,
            proto=PROTO_TCP,
            sip=t_src[td],
            dip=t_dst[td],
            sport=t_sport[td],
            dport=t_dport[td],
            tcpflags=TCP_FIN | TCP_ACK,
        )
        builder.add(
            len(td),
            ts=t_start[td] + t_dur[td] + 0.002,
            pktlen=52,
            proto=PROTO_TCP,
            sip=t_dst[td],
            dip=t_src[td],
            sport=t_dport[td],
            dport=t_sport[td],
            tcpflags=TCP_FIN | TCP_ACK,
        )

    # ---- DNS flows ---------------------------------------------------------
    qnames: list[str] = []
    dns_idx = np.flatnonzero(is_dns)
    if len(dns_idx):
        domains = _make_domains(rng, config.n_domains)
        domain_sampler = ZipfSampler(config.n_domains, config.domain_zipf_alpha, rng)
        name_ids = domain_sampler.sample(len(dns_idx))
        qnames = domains
        d_src, d_dst = src[dns_idx], dst[dns_idx]
        d_sport = sport[dns_idx]
        d_start = start[dns_idx]
        qtype = rng.choice(
            np.array([1, 28, 15, 16, 2]),  # A, AAAA, MX, TXT, NS
            size=len(dns_idx),
            p=[0.6, 0.2, 0.08, 0.07, 0.05],
        )
        # Query (c->s).
        builder.add(
            len(dns_idx),
            ts=d_start,
            pktlen=rng.integers(60, 90, size=len(dns_idx)),
            proto=PROTO_UDP,
            sip=d_src,
            dip=d_dst,
            sport=d_sport,
            dport=53,
            dns_qtype=qtype,
            dns_qr=0,
            dns_name_id=name_ids,
        )
        # Response (s->c), slightly later and larger.
        builder.add(
            len(dns_idx),
            ts=d_start + rng.exponential(0.02, size=len(dns_idx)),
            pktlen=rng.integers(90, 512, size=len(dns_idx)),
            proto=PROTO_UDP,
            sip=d_dst,
            dip=d_src,
            sport=53,
            dport=d_sport,
            dns_qtype=qtype,
            dns_qr=1,
            dns_ancount=rng.integers(1, 5, size=len(dns_idx)),
            dns_name_id=name_ids,
        )

    # ---- plain UDP ---------------------------------------------------------
    udp_idx = np.flatnonzero(is_plain_udp)
    if len(udp_idx):
        u_sizes = sizes[udp_idx]
        u_flow = np.repeat(np.arange(len(udp_idx)), u_sizes)
        n_udp = len(u_flow)
        builder.add(
            n_udp,
            ts=start[udp_idx][u_flow] + rng.random(n_udp) * flow_dur[udp_idx][u_flow],
            pktlen=rng.integers(60, 1400, size=n_udp),
            proto=PROTO_UDP,
            sip=src[udp_idx][u_flow],
            dip=dst[udp_idx][u_flow],
            sport=sport[udp_idx][u_flow],
            dport=rng.choice(
                np.array([123, 443, 4500, 51820, 8999]), size=n_udp
            ),
        )

    # ---- ICMP --------------------------------------------------------------
    icmp_idx = np.flatnonzero(is_icmp)
    if len(icmp_idx):
        builder.add(
            len(icmp_idx),
            ts=start[icmp_idx],
            pktlen=64,
            proto=PROTO_ICMP,
            sip=src[icmp_idx],
            dip=dst[icmp_idx],
        )

    return builder, qnames
