"""End-to-end pipeline benchmark: engines, observability and CI gates.

Unlike ``bench_micro`` (component hot paths under pytest-benchmark) this
is a standalone script: it plans a multi-query workload over a synthetic
attacked backbone, replays the full runtime pipeline (switch -> emitter ->
stream processor -> refinement) several times with observability disabled
and again with it enabled, and writes ``BENCH_pipeline.json`` with

- throughput: packets/sec and tuples/sec of the obs-disabled pipeline
  (median-of-reps; best-of-reps is recorded alongside for reference),
- the enabled-vs-disabled overhead of the instrumentation: the median of
  the *paired* per-rep deltas (rep i enabled vs rep i disabled), reported
  clamped at 0 with the raw median recorded alongside,
- per-stage latency quantiles taken from the enabled run's trace spans,
- with ``--engine both``: a batched-vs-rowwise comparison including the
  switch-stage speedup of the vectorized window engine,
- with ``--scaling``: network-mode strong scaling over a 1/2/4/8 worker
  ladder (see ``repro.parallel``), recording per-rung throughput and
  speedup-vs-serial plus the host CPU count the numbers were taken on.

CI runs ``bench_pipeline.py --smoke --engine both --check-baseline`` and
fails the job when

- the enabled-observability overhead exceeds the smoke threshold
  (10% by default), or
- obs-disabled throughput regresses more than 20% below the committed
  ``BENCH_pipeline.json`` baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke
    PYTHONPATH=src python benchmarks/bench_pipeline.py --engine both
    PYTHONPATH=src python benchmarks/bench_pipeline.py --smoke \\
        --check-baseline BENCH_pipeline.json --out /tmp/b.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

from repro.evaluation.workloads import build_workload
from repro.obs import NULL_OBS, Observability
from repro.obs.exporters import stage_timings
from repro.planner import QueryPlanner
from repro.queries.library import build_queries
from repro.runtime import SonataRuntime

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Multi-query smoke workload: one register-heavy query (ddos), one with a
#: distinct->reduce chain (newly_opened_tcp_conns) and one superspreader —
#: together they exercise every stateful kernel in the batched engine.
QUERIES = ["ddos", "newly_opened_tcp_conns", "superspreader"]

#: (duration_s, pps, reps, warmup) per mode.
MODES = {
    "smoke": (9.0, 1_500.0, 5, 1),
    "full": (18.0, 3_000.0, 7, 2),
}

#: Throughput-regression gate: fail when obs-disabled packets/s drops more
#: than this fraction below the committed baseline.
BASELINE_DROP_LIMIT = 0.20


def _run_once(plan, trace, obs, engine: str) -> tuple[float, object]:
    """One full pipeline replay; returns (wall_seconds, RunReport)."""
    runtime = SonataRuntime(plan, obs=obs, engine=engine)
    start = time.perf_counter()
    report = runtime.run(trace)
    return time.perf_counter() - start, report


def _bench_engine(plan, trace, reps: int, warmup: int, engine: str) -> dict:
    """Benchmark one engine: interleaved obs-off/obs-on replays."""
    # Interleave the two configurations: wall time drifts downward over
    # the first replays (cold caches), so back-to-back blocks would bias
    # whichever mode runs first.
    disabled: list[float] = []
    enabled: list[float] = []
    report = None
    last_obs = None
    for _ in range(warmup):
        _run_once(plan, trace, NULL_OBS, engine)
        _run_once(plan, trace, Observability(), engine)
    for _ in range(reps):
        seconds, report = _run_once(plan, trace, NULL_OBS, engine)
        disabled.append(seconds)
        last_obs = Observability()
        seconds, _ = _run_once(plan, trace, last_obs, engine)
        enabled.append(seconds)

    # Median-of-reps for throughput: both modes do identical deterministic
    # work, so the median replay estimates the typical cost while staying
    # robust to the occasional scheduler hiccup in either direction.
    disabled_s = statistics.median(disabled)
    enabled_s = statistics.median(enabled)
    # Overhead from *paired* deltas: rep i's enabled replay runs right
    # after its disabled replay, so (e_i - d_i) / d_i cancels the slow
    # wall-clock drift that made independent medians report a -7.8%
    # "negative overhead" artifact. The raw median delta is recorded
    # as-is; the reported figure clamps at 0 because instrumentation
    # cannot genuinely make the pipeline faster — a negative raw value
    # just means the overhead is below this host's noise floor.
    raw_overhead = statistics.median(
        (e - d) / d * 100.0 for d, e in zip(disabled, enabled)
    )
    packets = sum(w.packets for w in report.windows)
    stages = {
        name: {k: round(v, 6) for k, v in stats.items()}
        for name, stats in stage_timings(last_obs).items()
    }
    return {
        "engine": engine,
        "reps": reps,
        "disabled_s": [round(s, 6) for s in disabled],
        "enabled_s": [round(s, 6) for s in enabled],
        "disabled_best_s": round(min(disabled), 6),
        "enabled_best_s": round(min(enabled), 6),
        "disabled_median_s": round(disabled_s, 6),
        "enabled_median_s": round(enabled_s, 6),
        "obs_overhead_pct": round(max(0.0, raw_overhead), 2),
        "obs_overhead_raw_pct": round(raw_overhead, 2),
        "packets": packets,
        "tuples": report.total_tuples,
        "windows": len(report.windows),
        "packets_per_s": round(packets / disabled_s, 1),
        "tuples_per_s": round(report.total_tuples / disabled_s, 1),
        "stages": stages,
    }


def run_benchmark(mode: str, engine: str) -> dict:
    duration, pps, reps, warmup = MODES[mode]
    workload = build_workload(QUERIES, duration=duration, pps=pps, seed=7)
    trace = workload.trace
    window = 3.0

    queries = build_queries(QUERIES)
    planner = QueryPlanner(queries, trace, window=window, time_limit=20.0)
    plan = planner.plan("sonata")

    engines = ["batched", "rowwise"] if engine == "both" else [engine]
    runs = {e: _bench_engine(plan, trace, reps, warmup, e) for e in engines}
    primary = runs[engines[0]]

    result = {
        "schema": "sonata.bench_pipeline/4",
        "mode": mode,
        "engine": primary["engine"],
        "workload": {
            "queries": QUERIES,
            "duration_s": duration,
            "pps": pps,
            "window_s": window,
            "packets": primary["packets"],
            "windows": primary["windows"],
            "tuples_to_sp": primary["tuples"],
        },
        "timings": {
            k: primary[k]
            for k in (
                "reps",
                "disabled_s",
                "enabled_s",
                "disabled_best_s",
                "enabled_best_s",
                "disabled_median_s",
                "enabled_median_s",
            )
        },
        "throughput": {
            "packets_per_s": primary["packets_per_s"],
            "tuples_per_s": primary["tuples_per_s"],
        },
        "obs_overhead_pct": primary["obs_overhead_pct"],
        "obs_overhead_raw_pct": primary["obs_overhead_raw_pct"],
        "stages": primary["stages"],
    }

    if engine == "both":
        batched, rowwise = runs["batched"], runs["rowwise"]
        switch_b = batched["stages"].get("stage.switch", {}).get("total_s", 0.0)
        switch_r = rowwise["stages"].get("stage.switch", {}).get("total_s", 0.0)
        result["comparison"] = {
            "rowwise_median_s": rowwise["disabled_median_s"],
            "batched_median_s": batched["disabled_median_s"],
            "rowwise_packets_per_s": rowwise["packets_per_s"],
            "batched_packets_per_s": batched["packets_per_s"],
            "end_to_end_speedup": round(
                rowwise["disabled_median_s"] / batched["disabled_median_s"], 2
            ),
            "switch_stage_rowwise_s": round(switch_r, 6),
            "switch_stage_batched_s": round(switch_b, 6),
            "switch_stage_speedup": round(switch_r / switch_b, 2)
            if switch_b
            else None,
            "rowwise_obs_overhead_pct": rowwise["obs_overhead_pct"],
        }
    return result


#: Worker counts the --scaling ladder measures (capped by --workers).
SCALING_LADDER = (1, 2, 4, 8)

#: Switch count for the scaling workload: enough per-switch pipelines to
#: keep every ladder rung busy.
SCALING_SWITCHES = 8


def run_scaling(mode: str, max_workers: int, reps: int = 3) -> dict:
    """Network-mode strong scaling: same workload, 1..N worker processes.

    Planning happens once per rung *outside* the timed region; every
    rung, one worker included, builds its per-switch pipelines inside
    ``run()``. Only ``run()`` is timed.
    """
    from repro.network import NetworkRuntime, Topology
    from repro.queries.library import build_queries

    duration, pps, _, _ = MODES[mode]
    # Scale the workload up: per-switch slices of the smoke trace are too
    # small for pool dispatch to amortize.
    workload = build_workload(
        QUERIES, duration=duration * 2, pps=pps * 2, seed=7
    )
    trace = workload.trace
    window = 3.0
    queries = build_queries(QUERIES)
    topology = Topology.ecmp(SCALING_SWITCHES, seed=3)
    cpus = os.cpu_count() or 1
    ladder = [w for w in SCALING_LADDER if w <= max_workers]

    rungs: dict[str, dict] = {}
    serial_s = None
    for workers in ladder:
        seconds = []
        packets = 0
        net = NetworkRuntime(
            queries,
            topology,
            trace,
            window=window,
            time_limit=10.0,
            workers=workers,
        )
        for _ in range(reps):
            start = time.perf_counter()
            report = net.run(trace)
            seconds.append(time.perf_counter() - start)
            packets = len(trace)
        median_s = statistics.median(seconds)
        if workers == 1:
            serial_s = median_s
        rungs[str(workers)] = {
            "seconds": [round(s, 6) for s in seconds],
            "median_s": round(median_s, 6),
            "packets_per_s": round(packets / median_s, 1),
            "speedup_vs_serial": round(serial_s / median_s, 2)
            if serial_s
            else None,
            "windows": len(report.windows),
        }
        print(
            f"[scaling] {workers} worker(s): {median_s:.3f}s median, "
            f"{packets / median_s:.0f} pkts/s"
            + (
                f", {serial_s / median_s:.2f}x vs serial"
                if serial_s and workers > 1
                else ""
            )
        )
    return {
        "cpus": cpus,
        "switches": SCALING_SWITCHES,
        "packets": len(trace),
        "reps": reps,
        "workers": rungs,
    }


def check_baseline(result: dict, baseline_path: Path) -> str | None:
    """Return an error message when throughput regressed past the gate.

    Both headline rates are gated: ``packets_per_s`` (end-to-end pipeline
    speed) and ``tuples_per_s`` (emitter/SP-side speed — a regression
    confined to the mirror channel would barely move packets/s on a
    mirror-light workload).
    """
    try:
        baseline = json.loads(baseline_path.read_text())
    except FileNotFoundError:
        return f"baseline file {baseline_path} not found"
    except json.JSONDecodeError as exc:
        return f"baseline file {baseline_path} is not valid JSON: {exc}"
    base_pps = baseline.get("throughput", {}).get("packets_per_s")
    if not base_pps:
        return f"baseline file {baseline_path} has no throughput.packets_per_s"
    for metric in ("packets_per_s", "tuples_per_s"):
        base_rate = baseline.get("throughput", {}).get(metric)
        if not base_rate:
            continue  # older baseline schema: only gate what it records
        new_rate = result["throughput"][metric]
        floor = base_rate * (1.0 - BASELINE_DROP_LIMIT)
        if new_rate < floor:
            return (
                f"throughput regression: {new_rate:.0f} {metric} is more "
                f"than {BASELINE_DROP_LIMIT:.0%} below the committed "
                f"baseline {base_rate:.0f} (floor {floor:.0f})"
            )
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload + fewer reps (the CI configuration)",
    )
    parser.add_argument(
        "--engine", choices=["batched", "rowwise", "both"], default="batched",
        help="data-plane engine to benchmark; 'both' also reports the "
        "batched-vs-rowwise switch-stage speedup (default: batched)",
    )
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_pipeline.json"),
        help="output JSON path (default: repo-root BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--max-overhead", type=float, default=None, metavar="PCT",
        help="fail (exit 1) if enabled overhead exceeds PCT percent "
        "(default: 10 in --smoke mode, unlimited otherwise)",
    )
    parser.add_argument(
        "--check-baseline", nargs="?", const=str(REPO_ROOT / "BENCH_pipeline.json"),
        default=None, metavar="FILE",
        help="fail (exit 1) if packets/s drops >20%% below the committed "
        "baseline JSON (default FILE: repo-root BENCH_pipeline.json)",
    )
    parser.add_argument(
        "--scaling", action="store_true",
        help="also measure network-mode strong scaling over a worker "
        "ladder (1/2/4/8, capped by --workers) and record it under "
        "result['scaling']",
    )
    parser.add_argument(
        "--workers", type=int, default=max(SCALING_LADDER), metavar="N",
        help="cap for the --scaling worker ladder (default: 8)",
    )
    parser.add_argument(
        "--min-scaling-speedup", type=float, default=None, metavar="X",
        help="fail (exit 1) if the best --scaling rung is below X times "
        "serial throughput; skipped (with a note) on hosts with fewer "
        "than 2 CPUs, where parallel speedup is physically impossible",
    )
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    max_overhead = args.max_overhead
    if max_overhead is None and args.smoke:
        max_overhead = 10.0

    result = run_benchmark(mode, args.engine)
    if args.scaling:
        result["scaling"] = run_scaling(mode, max_workers=args.workers)
    # Evaluate the regression gate before writing: the default output path
    # IS the committed baseline, and overwriting first would self-compare.
    baseline_error = (
        check_baseline(result, Path(args.check_baseline))
        if args.check_baseline is not None
        else None
    )
    out = Path(args.out)
    out.write_text(json.dumps(result, indent=2) + "\n")

    t = result["throughput"]
    print(
        f"[{mode}/{result['engine']}] {result['workload']['packets']} packets, "
        f"{result['workload']['windows']} windows: "
        f"{t['packets_per_s']:.0f} pkts/s, {t['tuples_per_s']:.0f} tuples/s, "
        f"obs overhead {result['obs_overhead_pct']:+.2f}% "
        f"(raw {result['obs_overhead_raw_pct']:+.2f}%)"
    )
    if "comparison" in result:
        c = result["comparison"]
        print(
            f"rowwise {c['rowwise_packets_per_s']:.0f} pkts/s -> batched "
            f"{c['batched_packets_per_s']:.0f} pkts/s "
            f"({c['end_to_end_speedup']:.2f}x end to end, "
            f"{c['switch_stage_speedup']:.2f}x switch stage)"
        )
    print(f"wrote {out}")

    status = 0
    if max_overhead is not None and result["obs_overhead_pct"] > max_overhead:
        print(
            f"FAIL: observability overhead {result['obs_overhead_pct']:.2f}% "
            f"exceeds the {max_overhead:.1f}% budget",
            file=sys.stderr,
        )
        status = 1
    if baseline_error:
        print(f"FAIL: {baseline_error}", file=sys.stderr)
        status = 1
    if args.min_scaling_speedup is not None and args.scaling:
        scaling = result["scaling"]
        speedups = [
            rung["speedup_vs_serial"]
            for rung in scaling["workers"].values()
            if rung["speedup_vs_serial"] is not None
        ]
        best = max(speedups) if speedups else 0.0
        if scaling["cpus"] < 2:
            print(
                f"NOTE: scaling gate skipped: host has {scaling['cpus']} CPU; "
                f"measured best speedup {best:.2f}x is overhead-bound, not "
                "informative",
                file=sys.stderr,
            )
        elif best < args.min_scaling_speedup:
            print(
                f"FAIL: best scaling speedup {best:.2f}x is below the "
                f"{args.min_scaling_speedup:.2f}x gate "
                f"({scaling['cpus']} CPUs available)",
                file=sys.stderr,
            )
            status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
