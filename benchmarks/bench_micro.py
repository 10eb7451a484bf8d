"""Micro-benchmarks of the substrate components (multi-round timings).

Unlike the figure benchmarks (single-shot regenerations), these exercise
the hot paths repeatedly so pytest-benchmark statistics are meaningful:
per-packet switch processing, vectorized window evaluation, register
updates, and the ILP build+solve.
"""

import pytest

from repro.analytics import execute_subquery
from repro.packets import BackboneConfig, Trace, attacks, generate_backbone
from repro.planner import QueryPlanner
from repro.planner.collisions import size_register
from repro.planner.ilp import PlanILP
from repro.queries.library import build_query
from repro.switch import PISASwitch, SwitchConfig, compile_subquery
from repro.switch.registers import RegisterChain
from repro.utils.hashing import stable_hash


@pytest.fixture(scope="module")
def small_trace():
    bg = generate_backbone(BackboneConfig(duration=3.0, pps=2_000, seed=3))
    return Trace.merge(
        [bg, attacks.syn_flood(0x0A000001, duration=3.0, pps=100, seed=1)]
    )


@pytest.fixture(scope="module")
def query():
    return build_query("newly_opened_tcp_conns", qid=1, Th=120)


def bench_switch_packet_rate(benchmark, small_trace, query):
    """Per-packet behavioural-switch throughput (full Query 1 pipeline)."""
    compiled = compile_subquery(query.subquery(0))
    sized = []
    config = SwitchConfig.paper_default()
    for t in compiled.tables:
        if t.stateful:
            sized.append(
                t.sized(
                    size_register(
                        t.register.name, 2048, t.register.key_bits,
                        t.register.value_bits, config,
                    )
                )
            )
        else:
            sized.append(t)
    switch = PISASwitch(config)
    switch.install("bench", compiled, 4, sized_tables=sized)
    packets = [small_trace.packet(i) for i in range(0, len(small_trace), 10)]

    def run():
        for pkt in packets:
            switch.process_packet(pkt)
        switch.end_window()

    benchmark(run)


def bench_columnar_window(benchmark, small_trace, query):
    """Vectorized evaluation of one window (the planner's inner loop)."""
    sq = query.subquery(0)
    benchmark(execute_subquery, sq, small_trace)


def bench_register_chain_updates(benchmark):
    from repro.switch.registers import RegisterSpec

    chain = RegisterChain(RegisterSpec("r", n_slots=4096, d=2, key_bits=32))

    def run():
        for key in range(2_000):
            chain.update(key & 0x3FF, "sum", 1)
        chain.reset()

    benchmark(run)


def bench_stable_hash(benchmark):
    benchmark(lambda: [stable_hash((i, i * 7), seed=3) for i in range(1_000)])


@pytest.mark.parametrize(
    "n, keys",
    [
        (15_000, ("ipv4.dIP",)),
        (15_000, ("ipv4.dIP", "ipv4.sIP")),
        (15_000, ("ipv4.dIP", "ipv4.sIP", "tcp.sPort")),
        (170_000, ("ipv4.dIP",)),
        (170_000, ("ipv4.dIP", "ipv4.sIP")),
    ],
    ids=["ip", "ip_pair", "ip_pair_port", "large_ip", "large_ip_pair"],
)
def bench_group_first_occurrence(benchmark, n, keys):
    """The grouping kernel on ``n`` seeded rows, 1-3 key columns read as
    strided views of 38-byte packet records, as a
    :class:`~repro.packets.trace.Trace` holds them. 170k rows is a
    ``large`` training window; its full-range IP pair packs 64 bits, so
    it takes the hashed sort."""
    import numpy as np

    from repro.exec import ColumnarState, group_first_occurrence

    rng = np.random.default_rng(5)
    records = np.zeros(
        n,
        dtype=[("ts", "f8"), ("dIP", "u4"), ("sIP", "u4"), ("sPort", "u2"), ("rest", "V20")],
    )
    hosts = rng.integers(0, 2**32, n // 8, dtype=np.uint32)
    records["dIP"] = rng.choice(hosts[: n // 50], n)
    records["sIP"] = rng.choice(hosts, n)
    records["sPort"] = rng.integers(0, 2**16, n)
    state = ColumnarState(
        columns={
            "ipv4.dIP": records["dIP"],
            "ipv4.sIP": records["sIP"],
            "tcp.sPort": records["sPort"],
        }
    )
    unique, first_rows, inverse = benchmark(group_first_occurrence, state, keys)
    assert len(unique) == len(first_rows) and len(inverse) == n


def bench_batch_channel_window(benchmark, small_trace, query):
    """Batched engine: switch batches -> emitter -> SP, one window."""
    from repro.planner import QueryPlanner
    from repro.runtime import SonataRuntime

    planner = QueryPlanner([query], small_trace, window=3.0, time_limit=20)
    plan = planner.plan("sonata")

    def run():
        runtime = SonataRuntime(plan)
        return runtime.run(small_trace)

    report = benchmark(run)
    assert report.windows


def bench_emitter_columnar_assembly(benchmark, small_trace, query):
    """Emitter ingest_items + end_window over one window's batch output."""
    from repro.planner import QueryPlanner
    from repro.runtime import SonataRuntime

    planner = QueryPlanner([query], small_trace, window=3.0, time_limit=20)
    plan = planner.plan("sonata")
    runtime = SonataRuntime(plan)
    items = runtime.switch.process_window_items(small_trace)
    key_reports = runtime.switch.end_window_items()
    tables = runtime.switch.filter_tables

    def run():
        emitter = runtime.emitter
        emitter.ingest_items(items)
        return emitter.end_window(key_reports, tables)

    batches = benchmark(run)
    assert batches


def bench_wire_codec_batch(benchmark, small_trace, query):
    """encode_batch + decode_batch over one window's largest stream batch."""
    from repro.core.fields import FIELDS
    from repro.planner import QueryPlanner
    from repro.runtime import SonataRuntime
    from repro.runtime.wire import WireCodec

    planner = QueryPlanner([query], small_trace, window=3.0, time_limit=20)
    plan = planner.plan("sonata")
    runtime = SonataRuntime(plan)
    items = runtime.switch.process_window_items(small_trace)
    batch = max(items, key=lambda b: b.n_rows)
    codec = WireCodec()
    key = f"{batch.instance}#{batch.kind}#{batch.op_index}"
    widths = {}
    for name in batch.state.columns:
        kind = batch.state.kind(name)
        if kind != "int":
            widths[name] = kind
        else:
            widths[name] = FIELDS.get(name).width if name in FIELDS else 64
    codec.configure(key, widths)

    def run():
        return codec.decode_batch(codec.encode_batch(batch, key), key)

    decoded = benchmark(run)
    assert decoded.n_rows == batch.n_rows


def bench_ilp_solve(benchmark, small_trace, query):
    """Build + solve the single-query planning MILP."""
    planner = QueryPlanner([query], small_trace, window=3.0, time_limit=20)
    costs = planner.costs()

    def solve():
        return PlanILP(costs, SwitchConfig.paper_default(), mode="sonata").solve()

    plan = benchmark.pedantic(solve, rounds=3, iterations=1)
    assert plan.est_total_tuples >= 0
