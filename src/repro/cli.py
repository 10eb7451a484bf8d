"""Command-line interface: generate workloads, plan, run, inspect.

Usage (also via ``python -m repro``):

    repro queries                       # list the Table 3 query library
    repro generate --out t.trace ...    # synthesize an attacked workload
    repro stats t.trace                 # structural summary of a trace
    repro plan --trace t.trace -q ddos --mode sonata
    repro run  --trace t.trace -q ddos --mode sonata
    repro loc                           # regenerate Table 3
"""

from __future__ import annotations

import argparse
import json
import logging
import sys

from repro import __version__
from repro.packets.stats import summarize
from repro.packets.trace import Trace
from repro.utils.iputil import format_ip

logger = logging.getLogger(__name__)


def _add_trace_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--trace", required=True, help="path to a .trace file")


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "-q",
        "--queries",
        default="",
        help="comma-separated names from the query library (see `repro queries`)",
    )
    parser.add_argument(
        "--query-file",
        default=None,
        help="JSON file with a custom query (or a list of queries) in the "
        "repro.core.serialize format",
    )
    parser.add_argument(
        "--mode",
        default="sonata",
        choices=["sonata", "max_dp", "filter_dp", "all_sp", "fix_ref"],
    )
    parser.add_argument("--window", type=float, default=3.0)
    parser.add_argument("--time-limit", type=float, default=30.0)


def _load_queries(spec: str, window: float, query_file: str | None = None):
    from repro.queries.library import QUERY_LIBRARY, build_queries

    names = [name.strip() for name in spec.split(",") if name.strip()]
    unknown = [n for n in names if n not in QUERY_LIBRARY]
    if unknown:
        raise SystemExit(
            f"unknown queries: {', '.join(unknown)}; run `repro queries`"
        )
    queries = build_queries(names, window=window)
    if query_file:
        from repro.core.serialize import query_from_dict

        with open(query_file) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            payload = [payload]
        for data in payload:
            data = dict(data)
            data["qid"] = len(queries) + 1
            data.setdefault("window", window)
            query = query_from_dict(data)
            queries.append(query)
            names.append(query.name)
    if not queries:
        raise SystemExit("pass -q and/or --query-file")
    return names, queries


def cmd_queries(args: argparse.Namespace) -> int:
    from repro.queries.library import QUERY_LIBRARY

    print(f"{'#':>2}  {'name':28} {'title':26} refinement-key  thresholds")
    for spec in QUERY_LIBRARY.values():
        thresholds = ", ".join(f"{k}={v}" for k, v in spec.defaults.items())
        print(
            f"{spec.number:>2}  {spec.name:28} {spec.title:26} "
            f"{spec.victim_field:14}  {thresholds}"
        )
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.evaluation.workloads import build_workload

    names, _ = _load_queries(args.queries, args.window) if args.queries else ([], [])
    if names:
        workload = build_workload(
            names, duration=args.duration, pps=args.pps, seed=args.seed
        )
        trace = workload.trace
        for name, victim in workload.victims.items():
            logger.info("planted %s: victim %s", name, format_ip(victim))
    else:
        from repro.packets.generator import BackboneConfig, generate_backbone

        trace = generate_backbone(
            BackboneConfig(duration=args.duration, pps=args.pps, seed=args.seed)
        )
    trace.save(args.out)
    print(f"wrote {trace} to {args.out}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    trace = Trace.load(args.trace_file)
    print(summarize(trace).describe())
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    from repro.planner import QueryPlanner

    trace = Trace.load(args.trace)
    names, queries = _load_queries(args.queries, args.window, args.query_file)
    planner = QueryPlanner(
        queries, trace, window=args.window, time_limit=args.time_limit
    )
    plan = planner.plan(args.mode)
    if args.json:
        payload = {
            "mode": plan.mode,
            "est_total_tuples_per_window": plan.est_total_tuples,
            "queries": {
                qplan.query.name: {
                    "path": list(qplan.path),
                    "delay_windows": qplan.detection_delay_windows,
                    "instances": [
                        {
                            "key": inst.key,
                            "cut": inst.cut,
                            "est_tuples": inst.est_tuples,
                            "stages": inst.stage_assignment,
                        }
                        for inst in qplan.instances
                    ],
                }
                for qplan in plan.query_plans.values()
            },
        }
        json.dump(payload, sys.stdout, indent=2)
        print()
    else:
        print(plan.describe())
    return 0


def _detection_labels(names, detections) -> str:
    """One window's detections as ``query:victim`` labels, or ``-``."""
    from repro.queries.library import QUERY_LIBRARY

    labels = []
    for qid, name in enumerate(names, start=1):
        spec = QUERY_LIBRARY.get(name)
        fld = spec.victim_field if spec else "ipv4.dIP"
        for row in detections.get(qid, []):
            value = row.get(fld)
            labels.append(
                f"{name}:{format_ip(value) if isinstance(value, int) else value}"
            )
    return ", ".join(labels) or "-"


def _export_obs(args, obs, metrics) -> None:
    """Write the requested metrics/trace files and print the obs summary."""
    if not obs.enabled:
        return
    from repro.obs.exporters import print_summary, write_metrics, write_trace_jsonl

    if args.metrics_out:
        write_metrics(metrics, args.metrics_out)
        logger.info("wrote Prometheus snapshot to %s", args.metrics_out)
    if args.trace_out:
        written = write_trace_jsonl(obs, args.trace_out)
        logger.info("wrote %d trace records to %s", written, args.trace_out)
    print_summary(obs)


def _run_network(args, trace, queries, names, faults, degradation, obs) -> int:
    """``repro run --switches N``: network-wide execution path."""
    from repro.network import NetworkRuntime, Topology
    from repro.parallel import default_workers

    if args.ingress == "prefix":
        topology = Topology.by_source_prefix(args.switches)
    else:
        topology = Topology.ecmp(args.switches)
    workers = args.workers if args.workers is not None else default_workers()
    net = NetworkRuntime(
        queries,
        topology,
        trace,
        window=args.window,
        mode=args.mode,
        time_limit=args.time_limit,
        faults=faults,
        degradation=degradation,
        obs=obs,
        engine=args.engine,
        workers=workers,
    )
    report = net.run(trace)
    print(
        f"network run: {args.switches} switches ({args.ingress} ingress), "
        f"{workers} worker(s)"
    )
    print("window  sw-tuples  collector  detections")
    for window in report.windows:
        degraded = "  [degraded]" if window.degraded else ""
        print(
            f"{window.index:>6}  {window.total_switch_tuples:>9}  "
            f"{window.collector_tuples:>9}  "
            + _detection_labels(names, window.detections)
            + degraded
        )
    print(
        f"total: {report.total_switch_tuples} switch tuples, "
        f"{report.total_collector_tuples} collector tuples"
    )
    if report.degraded_windows:
        print(f"degraded windows: {report.degraded_windows}")
    _export_obs(args, obs, report.metrics)
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    from repro.obs import NULL_OBS, Observability, set_observability
    from repro.planner import QueryPlanner
    from repro.runtime import SonataRuntime

    # Observability is opt-in: any of the three flags turns it on for the
    # whole process (planner, trace I/O and runtime all record into it).
    obs_enabled = bool(args.metrics_out or args.trace_out or args.obs)
    obs = Observability() if obs_enabled else NULL_OBS
    set_observability(obs)

    trace = Trace.load(args.trace)
    names, queries = _load_queries(args.queries, args.window, args.query_file)
    faults = degradation = None
    if args.faults or args.fallback_threshold is not None:
        from repro.core.errors import PlanningError
        from repro.faults import DegradationPolicy, parse_fault_spec

        try:
            if args.faults:
                faults = parse_fault_spec(args.faults)
            degradation = DegradationPolicy(
                fallback_overflow_threshold=args.fallback_threshold
            )
        except PlanningError as exc:
            raise SystemExit(f"--faults: {exc}") from None
    if args.switches > 1:
        try:
            return _run_network(
                args, trace, queries, names, faults, degradation, obs
            )
        finally:
            set_observability(None)
    try:
        planner = QueryPlanner(
            queries, trace, window=args.window, time_limit=args.time_limit
        )
        plan = planner.plan(args.mode)
        report = SonataRuntime(
            plan,
            faults=faults,
            degradation=degradation,
            obs=obs,
            engine=args.engine,
        ).run(trace)
    finally:
        set_observability(None)
    print("window  packets  tuples->SP  detections")
    for window in report.windows:
        degraded = "  [degraded]" if window.degraded else ""
        print(
            f"{window.index:>6}  {window.packets:>7}  {window.total_tuples:>10}  "
            + _detection_labels(names, window.detections)
            + degraded
        )
    print(
        f"total: {report.total_tuples} tuples for "
        f"{sum(w.packets for w in report.windows)} packets ({plan.mode})"
    )
    if faults is not None:
        injected = report.total_faults()
        summary = (
            ", ".join(f"{k}={v}" for k, v in sorted(injected.items())) or "none"
        )
        print(f"faults injected: {summary}")
        if report.degraded_windows:
            print(f"degraded windows: {report.degraded_windows}")
        events = [e for w in report.windows for e in w.degradation_events]
        if events:
            print(f"degradation events: {', '.join(events)}")
    _export_obs(args, obs, report.metrics)
    return 0


def cmd_loc(args: argparse.Namespace) -> int:
    from repro.evaluation.loc import table3_loc

    print(f"{'#':>2} {'query':28} {'sonata':>6} {'p4':>6} {'spark':>6}")
    for row in table3_loc():
        print(
            f"{row.number:>2} {row.name:28} {row.sonata:>6} {row.p4:>6} "
            f"{row.spark:>6}"
        )
    return 0


def _print_table(headers, rows):
    widths = [
        max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
        for i, h in enumerate(headers)
    ]
    print("  ".join(str(h).rjust(w) for h, w in zip(headers, widths)))
    print("  ".join("-" * w for w in widths))
    for row in rows:
        print("  ".join(str(c).rjust(w) for c, w in zip(row, widths)))


def cmd_reproduce_impl(args: argparse.Namespace) -> int:
    name = args.experiment
    if name == "fig3":
        from repro.planner.collisions import chain_overflow_rate

        rows = []
        for ratio in (0.0, 0.5, 1.0, 1.5, 2.0):
            k = int(512 * ratio)
            rows.append(
                [f"{ratio:.1f}"]
                + [f"{chain_overflow_rate(512, k, d):.3f}" for d in (1, 2, 3, 4)]
            )
        _print_table(["k/n", "d=1", "d=2", "d=3", "d=4"], rows)
    elif name == "table3":
        return cmd_loc(args)
    elif name == "overhead":
        from repro.switch.config import SwitchConfig

        config = SwitchConfig.paper_default()
        rows = [
            [n, f"{config.update_cost_seconds(n) * 1000:.1f} ms"]
            for n in (10, 50, 100, 200, 400)
        ]
        _print_table(["filter entries", "update + register reset"], rows)
    elif name == "fig9":
        from repro.evaluation.casestudy import figure9_case_study

        result = figure9_case_study()
        print(result.describe())
    elif name == "fig5":
        from repro.evaluation.workloads import build_workload
        from repro.planner.costs import CostEstimator
        from repro.planner.refinement import ROOT_LEVEL, RefinementSpec
        from repro.queries.library import build_query

        workload = build_workload(
            ["newly_opened_tcp_conns"], duration=12.0, pps=2_000, seed=7
        )
        query = build_query("newly_opened_tcp_conns", qid=1)
        costs = CostEstimator(
            [query], workload.trace, window=3.0,
            refinement_specs={1: RefinementSpec("ipv4.dIP", (8, 16, 24, 32))},
        ).estimate()[1]
        rows = []
        for (r1, r2), per_sub in sorted(costs.transitions.items()):
            tc = per_sub[0]
            cuts = tc.cut_options()
            bits = sum(t.register_bits for t in tc.sized_tables if t.stateful)
            rows.append(
                [
                    ("*" if r1 == ROOT_LEVEL else r1),
                    r2,
                    f"{tc.cost_of(1).n_tuples:.0f}",
                    f"{tc.cost_of(cuts[-1]).n_tuples:.0f}",
                    f"{bits // 1000} Kb",
                ]
            )
        _print_table(["from", "to", "N (filter cut)", "N (full cut)", "B"], rows)
    else:  # pragma: no cover - argparse restricts choices
        raise SystemExit(f"unknown experiment {name}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Sonata reproduction: query-driven streaming telemetry",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="increase log verbosity (-v INFO, -vv DEBUG); logs go to stderr",
    )
    parser.add_argument(
        "--log-level",
        default=None,
        metavar="LEVEL",
        help="explicit log level (DEBUG/INFO/WARNING/ERROR); overrides -v",
    )
    sub = parser.add_subparsers(dest="command")

    sub.add_parser("queries", help="list the query library").set_defaults(
        func=cmd_queries
    )

    generate = sub.add_parser("generate", help="synthesize a workload trace")
    generate.add_argument("--out", required=True)
    generate.add_argument("--duration", type=float, default=18.0)
    generate.add_argument("--pps", type=float, default=3_000.0)
    generate.add_argument("--seed", type=int, default=7)
    generate.add_argument("--window", type=float, default=3.0)
    generate.add_argument(
        "-q", "--queries", default="",
        help="plant attacks for these queries (comma-separated; empty = clean)",
    )
    generate.set_defaults(func=cmd_generate)

    stats = sub.add_parser("stats", help="summarize a trace file")
    stats.add_argument("trace_file")
    stats.set_defaults(func=cmd_stats)

    plan = sub.add_parser("plan", help="plan queries against a trace")
    _add_trace_arg(plan)
    _add_query_args(plan)
    plan.add_argument("--json", action="store_true")
    plan.set_defaults(func=cmd_plan)

    run = sub.add_parser("run", help="plan and execute end to end")
    _add_trace_arg(run)
    _add_query_args(run)
    run.add_argument(
        "--faults",
        default=None,
        help="fault-injection spec, e.g. 'mirror_drop=0.05,overflow_pressure=0.1,"
        "seed=42' (see repro.faults.FaultSpec for channels)",
    )
    run.add_argument(
        "--fallback-threshold",
        type=float,
        default=None,
        help="register-overflow rate above which an on-switch instance is "
        "degraded to raw-mirror execution (default: disabled)",
    )
    run.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write an end-of-run metrics snapshot in Prometheus text "
        "format (enables observability)",
    )
    run.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write JSON-lines trace spans/events (enables observability)",
    )
    run.add_argument(
        "--obs",
        action="store_true",
        help="enable observability without writing files (prints the "
        "end-of-run per-stage timing summary)",
    )
    run.add_argument(
        "--engine",
        choices=["batched", "rowwise"],
        default="batched",
        help="data-plane execution engine: vectorized window batches "
        "(default) or the per-packet reference interpreter",
    )
    run.add_argument(
        "--switches",
        type=int,
        default=1,
        metavar="N",
        help="simulate N border switches network-wide (default 1: a "
        "single-switch pipeline)",
    )
    run.add_argument(
        "--ingress",
        choices=["ecmp", "prefix"],
        default="ecmp",
        help="traffic-to-switch assignment for --switches > 1: 5-tuple "
        "hashing (ecmp) or source-prefix stickiness (prefix)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for network-wide execution (default: "
        "REPRO_WORKERS, else cpu count; 1 = serial)",
    )
    run.set_defaults(func=cmd_run)

    sub.add_parser("loc", help="regenerate the Table 3 LoC comparison").set_defaults(
        func=cmd_loc
    )

    reproduce = sub.add_parser(
        "reproduce",
        help="regenerate a paper artifact (heavier sweeps live in benchmarks/)",
    )
    reproduce.add_argument(
        "experiment", choices=["table3", "fig3", "fig5", "fig9", "overhead"]
    )
    reproduce.set_defaults(func=cmd_reproduce_impl)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    from repro.obs.logutil import configure_logging

    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "func", None) is None:
        # No subcommand: usage + exit 2, never a traceback.
        parser.print_usage(sys.stderr)
        print("repro: error: a subcommand is required", file=sys.stderr)
        return 2
    try:
        configure_logging(level=args.log_level, verbosity=args.verbose)
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
