#!/usr/bin/env python
"""Observability: metrics, trace spans and fault events for one run.

The `repro.obs` subsystem (DESIGN.md §9) watches the pipeline without
changing it: counters for every headline quantity, wall-clock spans for
every stage of every window, and structured events for the interesting
moments (fault injections, fallbacks, retrain signals). This example:

1. plans the DDoS query over an attacked backbone;
2. runs it with observability enabled *and* a seeded fault mix, so the
   trace records both normal stage timings and injected chaos;
3. renders the per-stage timing summary a human reads first;
4. walks the span tree of one window to show the nesting;
5. prints the fault-event log and checks it agrees with the fault
   counters and the run report;
6. exports the Prometheus snapshot + JSON-lines trace like the CLI's
   ``--metrics-out`` / ``--trace-out`` flags do.

Run: python examples/observability.py
"""

import json
import tempfile
from pathlib import Path

from repro.evaluation.workloads import build_workload
from repro.faults import FaultSpec
from repro.obs import Observability
from repro.obs.exporters import (
    parse_prometheus_text,
    print_summary,
    write_metrics,
    write_trace_jsonl,
)
from repro.planner import QueryPlanner
from repro.queries.library import build_query
from repro.runtime import SonataRuntime
from repro.utils.iputil import format_ip


def main() -> None:
    # -- 1. plan the DDoS query -------------------------------------------
    workload = build_workload(["ddos"], duration=9.0, pps=1_500, seed=7)
    victim = workload.victims["ddos"]
    print(f"workload: {workload.trace}, planted DDoS on {format_ip(victim)}")

    planner = QueryPlanner(
        [build_query("ddos", qid=1)], workload.trace, window=3.0, time_limit=15
    )
    plan = planner.plan("sonata")

    # -- 2. one observed run with faults injected -------------------------
    # The DDoS plan mirrors only a handful of tuples per window, so the
    # drop rate is set high enough that some drops are drawn.
    faults = FaultSpec(seed=42, mirror_drop=0.2)
    obs = Observability()
    report = SonataRuntime(plan, faults=faults, obs=obs).run(workload.trace)
    print(
        f"run: {len(report.windows)} windows, {report.total_tuples} tuples "
        f"to the stream processor, faults={report.total_faults()}"
    )

    # -- 3. the per-stage timing summary ----------------------------------
    print()
    print_summary(obs)

    # -- 4. the span tree of the first window ------------------------------
    first_window = obs.tracer.spans_named("window")[0]
    print("\nspan tree of window 0:")
    print(f"  window  ({first_window.duration * 1e3:.2f} ms)")
    for child in obs.tracer.children_of(first_window.span_id):
        print(f"    {child.name:24} {child.duration * 1e6:9.0f} µs")

    # -- 5. the fault-event log --------------------------------------------
    drops = obs.tracer.events_named("fault.mirror_drop")
    print(f"\nfault events ({len(drops)} mirror drops recorded):")
    for event in drops[:5]:
        print(f"  fault.mirror_drop  instance={event.attrs['instance']}")
    if len(drops) > 5:
        print(f"  ... and {len(drops) - 5} more")
    snapshot = report.metrics
    counted = snapshot.value(
        "sonata_faults_injected_total", channel="mirror_drop", scope=""
    )
    assert drops, "the fault mix dropped no mirrored tuple"
    assert counted == len(drops) == report.total_faults().get("mirror_drop", 0)
    print("fault events == fault counter == run-report accounting ✓")

    # -- 6. export like --metrics-out / --trace-out -------------------------
    outdir = Path(tempfile.mkdtemp(prefix="sonata-obs-"))
    write_metrics(snapshot, str(outdir / "metrics.prom"))
    n_records = write_trace_jsonl(obs, str(outdir / "trace.jsonl"))
    values = parse_prometheus_text((outdir / "metrics.prom").read_text())
    spans = [
        json.loads(line)
        for line in (outdir / "trace.jsonl").read_text().splitlines()
        if json.loads(line)["type"] == "span"
    ]
    print(
        f"\nexported {len(values)} metric series to {outdir / 'metrics.prom'}"
        f"\nexported {n_records} trace records ({len(spans)} spans) "
        f"to {outdir / 'trace.jsonl'}"
    )
    print(f"  sonata_packets_total = {values['sonata_packets_total']:.0f}")
    print(f"  sonata_windows_total = {values['sonata_windows_total']:.0f}")


if __name__ == "__main__":
    main()
