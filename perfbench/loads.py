"""The benchmark's workloads and the operations it times on them.

Each workload is a closed-loop batch replay, the way ``repro run`` uses
the system: one process generates a trace from the seed, plans against
the trace's first window (so the plan is trained at the replayed packet
rate), and replays every window back to back. Only the generated trace
crosses into the program; generation is timed for information only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.evaluation.workloads import build_workload
from repro.faults import FaultInjector, parse_fault_spec
from repro.network import NetworkRuntime, Topology
from repro.obs import NULL_OBS
from repro.planner import QueryPlanner
from repro.queries.library import QUERY_LIBRARY, build_queries
from repro.runtime import SonataRuntime

WINDOW = 3.0
#: High enough that the MILP solve never stops early (a stopped solve
#: would change the plan, and falls back to the greedy planner).
TIME_LIMIT = 600.0
#: Packets of each trace's prefix the rowwise oracle replays.
ORACLE_PACKETS = 12_000
THREE = ("ddos", "newly_opened_tcp_conns", "superspreader")
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple
    pps: float
    duration: float
    #: Replays per run at least, even when ``--seconds`` is shorter.
    min_reps: int
    switches: int = 1
    workers: int = 1
    wire_check: bool = False
    faults: "str | None" = None

    @property
    def network(self) -> bool:
        return self.switches > 1

    def windows_per_rep(self) -> int:
        """Window count of one replay (per-switch windows in a network)."""
        return int(self.duration / WINDOW + 1) * self.switches


WORKLOADS = {
    w.name: w
    for w in (
        # Switch-bound; the control for planner and stream-processor changes.
        Workload("steady", THREE, 3_000.0, 120.0, min_reps=3),
        # 1.78M packets: cost estimation and stream processing dominate.
        Workload("large", THREE, 60_000.0, 30.0, min_reps=2),
        # The MILP solve dominates set-up; refinement, joins and the wire
        # codec are on the replay path.
        Workload(
            "multi11", tuple(QUERY_LIBRARY), 3_000.0, 60.0, min_reps=2,
            wire_check=True,
        ),
        # The only user of the network, parallel, collector and fault
        # layers; mirror faults force the emitter's row channel. Its window
        # times come from two workers sharing the host, so it takes more
        # replays to steady their median.
        Workload(
            "network-chaos", THREE, 6_000.0, 60.0, min_reps=9,
            switches=4, workers=2,
            faults="mirror_reorder=0.01,mirror_drop=0.005,seed=5",
        ),
    )
}


def generate(spec: Workload, seed: int):
    return build_workload(
        list(spec.queries), duration=spec.duration, pps=spec.pps, seed=seed
    )


def training(trace):
    """The first window: the plan is trained at the replayed rate."""
    return trace.time_range(trace.start_ts, trace.start_ts + WINDOW)


def setup(spec: Workload, training_trace):
    """Plan, verify and install; returns the plan or the network runtime."""
    queries = build_queries(list(spec.queries), window=WINDOW)
    if spec.network:
        return NetworkRuntime(
            queries,
            Topology.ecmp(spec.switches, seed=3),
            training_trace,
            window=WINDOW,
            time_limit=TIME_LIMIT,
            faults=parse_fault_spec(spec.faults) if spec.faults else None,
            obs=NULL_OBS,
            workers=spec.workers,
        )
    planner = QueryPlanner(
        queries, training_trace, window=WINDOW, time_limit=TIME_LIMIT,
        obs=NULL_OBS,
    )
    plan = planner.plan("sonata")
    SonataRuntime(plan, obs=NULL_OBS, wire_check=spec.wire_check)
    return plan


def plans(product) -> list:
    if isinstance(product, NetworkRuntime):
        return [runtime.plan for runtime in product.runtimes]
    return [product]


def runner(spec: Workload, product, engine: str = "batched", obs=NULL_OBS):
    """A fresh pipeline from the set-up product, as a ``run(trace)`` call.

    Runtimes keep refinement tables (and, serially, fault streams) across
    ``run()`` calls, so every replay gets its own; building one from a
    finished plan takes milliseconds and stays outside the timed region.
    """
    if not spec.network:
        runtime = SonataRuntime(
            product, obs=obs, wire_check=spec.wire_check, engine=engine
        )
        return lambda trace, workers=None: runtime.run(trace)
    net = copy.copy(product)
    net.engine = engine
    net.runtimes = [
        SonataRuntime(
            rt.plan,
            faults=product.faults,
            degradation=product.degradation,
            fault_scope=f"switch{switch_id}",
            obs=product.obs,
            engine=engine,
            channel=product.channel,
        )
        for switch_id, rt in enumerate(product.runtimes)
    ]
    if product.faults is not None and product.faults.active:
        net._collector_faults = FaultInjector(product.faults, scope="collector")
    return lambda trace, workers=None: net.run(trace, workers=workers)


def tuples_per_window(report) -> float:
    """Tuples crossing switch -> stream processor, per window; in a
    network the partial aggregates sent to the collector count too."""
    if hasattr(report, "total_collector_tuples"):
        total = report.total_switch_tuples + report.total_collector_tuples
    else:
        total = report.total_tuples
    return total / len(report.windows)


def faults_injected(report) -> dict[str, int]:
    totals: dict[str, int] = {}
    for window in report.windows:
        for channel, count in window.faults_injected.items():
            totals[channel] = totals.get(channel, 0) + count
    return totals
