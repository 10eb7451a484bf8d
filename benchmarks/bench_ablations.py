"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper — these quantify the design decisions the paper
asserts qualitatively:

- hash-chain depth d (§3.1.3): deeper chains trade register memory for
  fewer overflow tuples;
- relaxed coarse-level thresholds (§4.1): disabling relaxation keeps
  correctness but prunes less at coarse levels;
- ILP vs greedy planning: solution quality and solve time;
- network-wide threshold scaling (extension): collector load of scaled
  local thresholds vs the exact no-local-threshold variant.
"""

import time
from dataclasses import replace

import pytest

from benchmarks.conftest import format_table, write_result
from repro.evaluation.workloads import build_workload
from repro.network import NetworkRuntime, Topology
from repro.parallel import default_workers, parallel_map
from repro.planner import QueryPlanner
from repro.planner.costs import CostEstimator
from repro.planner.ilp import PlanILP
from repro.queries.library import build_queries, build_query
from repro.runtime import SonataRuntime
from repro.switch.config import KB, SwitchConfig


@pytest.fixture(scope="module")
def workload():
    return build_workload(
        ["newly_opened_tcp_conns", "ddos", "superspreader"],
        duration=15.0,
        pps=2_000,
        seed=13,
    )


def bench_ablation_chain_depth(benchmark, workload):
    """Register chain depth: overflow tuples and memory per d."""
    query = build_query("newly_opened_tcp_conns", qid=1)

    def cell(d):
        config = replace(SwitchConfig.paper_default(), default_hash_chain_depth=d)
        estimator = CostEstimator([query], workload.trace, config=config, window=3.0)
        costs = estimator.estimate()
        plan = PlanILP(costs, config, mode="max_dp").solve()
        runtime = SonataRuntime(plan)
        report = runtime.run(workload.trace)
        bits = sum(
            t.register_bits
            for inst in plan.all_instances()
            for t in inst.tables
            if t.stateful
        )
        return [d, report.total_tuples, bits]

    def sweep():
        # Depths are independent cells: fan them over worker processes
        # when the host has the cores (REPRO_WORKERS overrides).
        return parallel_map(
            cell, (1, 2, 3, 4),
            workers=default_workers(), label="ablation_chain_depth",
        )

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    table = format_table(["d", "tuples to SP (run)", "register bits"], rows)
    write_result("ablation_chain_depth", table)
    # deeper chains never increase the runtime tuple count materially
    assert rows[-1][1] <= rows[0][1] * 1.5


def bench_ablation_threshold_relaxation(benchmark, workload):
    """Relaxed coarse thresholds (§4.1) vs original thresholds."""
    queries = build_queries(["newly_opened_tcp_conns", "ddos"])
    config = SwitchConfig(
        stages=16,
        stateful_actions_per_stage=8,
        register_bits_per_stage=60 * KB,  # scarce: forces refinement
        max_single_register_bits=60 * KB,
    )

    def cell(relax):
        costs = CostEstimator(
            queries, workload.trace, window=3.0, relax_thresholds=relax
        ).estimate()
        plan = PlanILP(costs, config, mode="fix_ref").solve()
        from repro.evaluation.measure import evaluate_plan

        measured = evaluate_plan(plan, workload.trace, 3.0)
        return [
            "relaxed" if relax else "original",
            f"{plan.est_total_tuples:.0f}",
            measured.total_tuples(skip_windows=2),
        ]

    def compare():
        return parallel_map(
            cell, (True, False),
            workers=default_workers(), label="ablation_relaxation",
        )

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = format_table(
        ["coarse thresholds", "est tuples/window", "measured (steady)"], rows
    )
    write_result("ablation_threshold_relaxation", table)
    relaxed, original = rows[0][2], rows[1][2]
    assert relaxed <= original  # relaxation can only prune more


def bench_ablation_ilp_vs_greedy(benchmark, workload):
    """Planner solver: ILP optimality vs greedy speed."""
    queries = build_queries(["newly_opened_tcp_conns", "ddos", "superspreader"])
    planner = QueryPlanner(queries, workload.trace, window=3.0, time_limit=20)
    planner.costs()  # estimate outside the timed region

    def compare():
        rows = []
        for solver in ("ilp", "greedy"):
            start = time.perf_counter()
            plan = planner.plan("sonata", solver=solver)
            elapsed = time.perf_counter() - start
            rows.append([solver, f"{plan.est_total_tuples:.0f}", f"{elapsed:.2f}s"])
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = format_table(["solver", "est tuples/window", "solve time"], rows)
    write_result("ablation_ilp_vs_greedy", table)
    assert float(rows[0][1]) <= float(rows[1][1]) * 1.001


def bench_ablation_network_threshold_scaling(benchmark):
    """Network-wide execution: scaled local thresholds vs exact variant."""
    names = ["newly_opened_tcp_conns", "ddos"]
    workload = build_workload(names, duration=12.0, pps=2_000, seed=17)
    queries = build_queries(names)
    topology = Topology.ecmp(4, seed=3)

    def cell(scaled):
        net = NetworkRuntime(
            queries, topology, workload.trace, window=3.0,
            local_threshold_scale=scaled, time_limit=10,
        )
        report = net.run(workload.trace)
        hits = sum(
            1
            for qid, name in enumerate(names, start=1)
            if any(
                row.get("ipv4.dIP") == workload.victims[name]
                for _, q, row in report.detections()
                if q == qid
            )
        )
        return [
            "scaled Th/n" if scaled else "exact (no local Th)",
            report.total_collector_tuples,
            f"{hits}/{len(names)}",
        ]

    def compare():
        return parallel_map(
            cell, (True, False),
            workers=default_workers(), label="ablation_network_scaling",
        )

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = format_table(
        ["local thresholds", "collector tuples", "victims found"], rows
    )
    write_result("ablation_network_scaling", table)
    scaled_tuples, exact_tuples = rows[0][1], rows[1][1]
    assert scaled_tuples <= exact_tuples
    assert rows[0][2] == rows[1][2]  # both variants catch the victims here


def bench_ablation_sketch_vs_chain(benchmark, workload):
    """Key-storing register chains (Sonata) vs count-min sketches
    (OpenSketch/UnivMon) at equal memory: sketches never overflow but
    over-count; chains are exact but shed colliding keys to the SP."""
    import numpy as np

    from repro.switch.registers import RegisterChain, RegisterSpec
    from repro.switch.sketches import CountMinSketch, SketchSpec

    # Per-window SYN destination counts from the workload's first window.
    window = next(w for _, w in workload.trace.windows(3.0))
    syns = window.array[window.array["tcpflags"] == 2]["dip"]
    truth: dict[int, int] = {}
    for dip in syns:
        truth[int(dip)] = truth.get(int(dip), 0) + 1

    def compare():
        rows = []
        for budget_slots in (64, 128, 256, 512):
            chain = RegisterChain(
                RegisterSpec("c", n_slots=budget_slots, d=2, key_bits=32)
            )
            # Equal memory: chain slot = 64 bits, sketch counter = 32 bits.
            sketch = CountMinSketch(
                SketchSpec("s", width=budget_slots, depth=4)
            )
            chain_overflow = 0
            for dip in syns:
                if chain.update(int(dip), "count").overflowed:
                    chain_overflow += 1
                sketch.update(int(dip))
            sketch_errors = [
                sketch.estimate(k) - v for k, v in truth.items()
            ]
            rows.append(
                [
                    budget_slots,
                    chain_overflow,
                    f"{np.mean(sketch_errors):.1f}",
                    int(np.max(sketch_errors)),
                ]
            )
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    table = format_table(
        ["slots", "chain overflow pkts", "CMS mean overcount", "CMS max overcount"],
        rows,
    )
    write_result("ablation_sketch_vs_chain", table)
    # Chains shed fewer packets as memory grows; sketch error shrinks too.
    assert rows[-1][1] <= rows[0][1]
    assert float(rows[-1][2]) <= float(rows[0][2]) + 1e-9
