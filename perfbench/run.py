"""Repository benchmark: end-to-end and per-layer metrics of a Sonata replay.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 6 --trace 0

One invocation measures one workload (see ``loads.WORKLOADS``):

1. generate the trace from ``--seed`` (``gen_s``, information only);
2. set up ``loads.SETUPS`` times (plan, verify, install) and report the
   median as ``setup_s``;
3. after the first set-up, replay a prefix of the trace through the
   batched pipeline, the rowwise oracle and (for a network) the worker
   pool, outside the timed region, and require equal digests;
4. replay the whole trace, a fresh pipeline each time, once between
   set-ups and then until the replays add up to ``--seconds`` (at least
   the workload's minimum number of replays).

End-to-end timings (``setup_s``, ``packets_per_s``, ``window_ms_*``) are
reported at the reference host speed: each set-up and replay is divided
by the host scale that fixed calibration kernels, timed before and after
it, give (see ``calibrate.py``). The measured times and the scales are
kept in the history.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` instead pairs
each untraced replay with one traced through ``layers.py`` and prints the
per-layer metrics; the layer table (self time per layer) goes to stderr.

Every output check is made in the same command: each planted victim is
detected in every full window (see ``verify.py`` for refined and
one-shot queries), every replay of the run gives the same
digest (and the same digest as earlier runs of the same source, workload
and seed in the history file), and the oracle prefix matches. The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``; every result is also appended to ``perfbench/history.jsonl``
with the source hash, host fingerprint and calibration times.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

import calibrate
from spans import Tracer, WindowClock, patched
from verify import digest, missed_victims, victim_hits

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
HISTORY = HERE / "history.jsonl"

perf_counter = time.perf_counter


def median(values):
    return statistics.median(values) if values else 0.0


def tail_percentile(samples_per_run: int) -> int:
    """Highest whole percentile with at least ten samples beyond it."""
    return max(50, int(100 * (1 - 10 / samples_per_run)))


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> "str | None":
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_fingerprint() -> dict:
    import numpy as np
    import scipy

    return {
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def earlier_digests(workload: str, seed: int, source: str) -> set:
    if not HISTORY.exists():
        return set()
    found = set()
    for line in HISTORY.read_text().splitlines():
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (entry.get("workload"), entry.get("seed"), entry.get("source")) == (
            workload, seed, source
        ) and entry.get("info", {}).get("digest"):
            found.add(entry["info"]["digest"])
    return found


class Replay(NamedTuple):
    """One timed replay of the whole trace."""

    seconds: float
    report: object
    #: Processing time of every window, in seconds.
    windows: list
    #: Host scale around the replay (see ``Run.calibrate``).
    scale: float


class Run:
    """State of one benchmark invocation: failures, checks and timings."""

    def __init__(self, spec, seed: int, seconds: float, traced: bool) -> None:
        import loads
        from repro.packets.trace import Trace

        self.spec = spec
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.loads = loads
        self.tracer = Tracer()
        self.spool = tempfile.mkdtemp(prefix=".spool-", dir=HERE)
        self.clock = WindowClock(self.tracer, self.spool)
        self.clock_target = [self.clock.patch(Trace)]
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.problems: list[str] = []  # output-check failures
        self.digests: set[str] = set()
        self.info: dict = {}
        self.product = None
        self.calibrations = [calibrate.sample()]

    def calibrate(self) -> float:
        """Host scale of the operation just timed: the mean speed of the
        calibration samples before and after it, over the reference."""
        self.calibrations.append(calibrate.sample())
        before, after = (calibrate.speed(c) for c in self.calibrations[-2:])
        return (before + after) / 2 / calibrate.REFERENCE_MS

    def close(self) -> None:
        shutil.rmtree(self.spool, ignore_errors=True)

    def fail(self, reason: str, operations: int = 1) -> None:
        self.failed += operations
        self.reasons.append(reason)
        print(f"perfbench: failed: {reason}", file=sys.stderr)

    # -- phases --------------------------------------------------------------
    def generate(self) -> None:
        start = perf_counter()
        self.workload = self.loads.generate(self.spec, self.seed)
        self.info["gen_s"] = perf_counter() - start
        self.trace = self.workload.trace
        self.info["packets"] = len(self.trace)
        self.qids = {name: i + 1 for i, name in enumerate(self.spec.queries)}

    def set_up(self, targets) -> "tuple[float, float] | None":
        """One timed set-up; keeps the product for the replays. Returns
        the seconds it took and the host scale."""
        from repro.core.errors import PlanningError, ResourceExhaustedError

        training = self.loads.training(self.trace)
        self.attempted += 1
        self.tracer.enabled = self.traced
        try:
            with patched(targets):
                start = perf_counter()
                product = self.loads.setup(self.spec, training)
                seconds = perf_counter() - start
        except (PlanningError, ResourceExhaustedError) as exc:
            self.fail(f"plan: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.tracer.enabled = False
        scale = self.calibrate()
        plans = self.loads.plans(product)
        fallbacks = [p.solver_info["fallback"] for p in plans if "fallback" in p.solver_info]
        if fallbacks:
            self.fail(f"plan: ILP fallback: {fallbacks[0]}")
        self.product = product
        self.delays = {
            qid: max(len(p.query_plans[qid].path) - 1 for p in plans)
            for qid in self.qids.values()
        }
        return seconds, scale

    def oracle(self) -> None:
        prefix = self.trace.slice(
            slice(0, min(self.loads.ORACLE_PACKETS, len(self.trace)))
        )
        digests = {}
        for engine in ("batched", "rowwise"):
            run = self.loads.runner(self.spec, self.product, engine=engine)
            digests[engine] = digest(run(prefix, workers=1))
        if self.spec.workers > 1:
            # Also warms up the worker pool path before the timed replays.
            run = self.loads.runner(self.spec, self.product)
            digests["parallel"] = digest(run(prefix, workers=self.spec.workers))
        self.info["oracle"] = digests
        if len(set(digests.values())) > 1:
            self.problems.append(f"oracle mismatch on the prefix: {digests}")

    def replay(self, workers=None, obs=None, traced=False) -> "Replay | None":
        """One timed full replay, checked; None if it raised."""
        from repro.obs import NULL_OBS

        run = self.loads.runner(self.spec, self.product, obs=obs or NULL_OBS)
        expected = self.spec.windows_per_rep() // self.spec.switches
        operations = expected * len(self.spec.queries)
        self.attempted += operations
        self.clock.take()
        gc.collect()
        self.clock.active = True
        self.tracer.enabled = traced
        try:
            with patched(self.clock_target):
                start = perf_counter()
                report = run(self.trace, workers=workers or self.spec.workers)
                seconds = perf_counter() - start
        except Exception as exc:  # a window raised: every (query, window) of the replay is lost
            self.fail(f"replay: {type(exc).__name__}: {exc}", operations)
            return None
        finally:
            self.tracer.enabled = False
            self.clock.active = False
        self.attempted += len(report.windows) * len(self.spec.queries) - operations
        scale = self.calibrate()
        self._check(report)
        return Replay(seconds, report, self.clock.take(), scale)

    def _check(self, report) -> None:
        self.digests.add(digest(report))
        hits = victim_hits(report, self.workload.victims, self.qids, self.delays)
        self.info["refined_recall"] = {
            name: sum(per_window.values()) / max(len(per_window), 1)
            for name, per_window in hits.items()
            if self.delays.get(self.qids[name], 0)
        }
        missed = missed_victims(hits, self.delays, self.qids)
        if missed:
            self.fail(f"missed planted victims: {missed[:5]}", len(missed))
            self.problems.append(f"missed planted victims: {missed[:5]}")

    def finish_checks(self, source: str) -> bool:
        if len(self.digests) > 1:
            self.problems.append(f"replays disagree: {sorted(self.digests)}")
        earlier = earlier_digests(self.spec.name, self.seed, source)
        if earlier and not earlier <= self.digests:
            self.problems.append(
                f"digest {sorted(self.digests)} differs from earlier runs "
                f"{sorted(earlier)}"
            )
        self.info["digest"] = next(iter(self.digests), None)
        return not self.problems and bool(self.digests)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    The program joins its worker pools itself. Shared memory also starts
    multiprocessing's resource tracker, which ends only once every holder
    of its pipe has exited, i.e. after the benchmark, and would be left
    behind unreaped; it is stopped here. Any other child still alive is
    terminated and waited for.
    """
    import multiprocessing
    import signal
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    resource_tracker._resource_tracker._stop()
    proc = Path("/proc")
    if not proc.is_dir():
        return
    me = str(os.getpid())
    for stat in proc.glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] != me:
            continue
        pid = int(stat.parent.name)
        try:
            os.kill(pid, signal.SIGTERM)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):
            pass


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_end_to_end(run: Run) -> dict:
    import numpy as np

    setups, replays = [], []

    def replay() -> bool:
        rep = run.replay()
        if rep is not None:
            replays.append(rep)
        return rep is not None

    # Replays alternate with the set-ups, so that they sample the host
    # over the whole run: its speed drifts over tens of seconds.
    for index in range(run.loads.SETUPS):
        if index and run.product is not None and not replay():
            break
        setup = run.set_up([])
        if setup is None:
            continue
        setups.append(setup)
        if "oracle" not in run.info:
            start = perf_counter()
            run.oracle()
            run.info["oracle_s"] = perf_counter() - start
    if run.product is None:
        return {}
    while (
        len(replays) < run.spec.min_reps
        or sum(r.seconds for r in replays) < run.seconds
    ):
        if not replay():
            break
    if not replays:
        return {}
    # Window latency percentiles are taken per replay (its windows are
    # one sample set). Every timing is divided by the host scale around
    # it (see calibrate.py), and the median over set-ups or replays is
    # reported.
    tail = tail_percentile(run.spec.windows_per_rep())
    p50_s = [float(np.percentile(r.windows, 50)) for r in replays]
    tail_s = [float(np.percentile(r.windows, tail)) for r in replays]
    scales = [r.scale for r in replays]
    run.info.update(
        setup_s=[seconds for seconds, _ in setups],
        setup_scale=[scale for _, scale in setups],
        run_s=[r.seconds for r in replays],
        run_scale=scales,
        window_p50_s=p50_s,
        window_tail_s=tail_s,
        window_samples=[len(r.windows) for r in replays],
        window_tail_percentile=tail,
    )
    packets = len(run.trace)
    p50_ms = median([t / k for t, k in zip(p50_s, scales)]) * 1e3
    tail_ms = median([t / k for t, k in zip(tail_s, scales)]) * 1e3
    return {
        "setup_s": (median([s / k for s, k in setups]), "s"),
        "packets_per_s": (
            median([packets * r.scale / r.seconds for r in replays]), "pkt/s"
        ),
        "window_ms_p50": (p50_ms, "ms"),
        "window_ms_tail": (tail_ms, "ms"),
        "tuples_to_sp": (run.loads.tuples_per_window(replays[0].report), "tuples"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


#: Per-layer metric -> unit, in the order BENCHMARK.json lists them.
LAYER_UNITS = {
    "packets.windows_s": "s",
    "planner.costs_s": "s",
    "planner.solve_s": "s",
    "planner.verify_s": "s",
    "planner.milp_vars": "count",
    "planner.est_tuples": "tuples",
    "planner.est_ratio": "ratio",
    "switch.install_s": "s",
    "switch.process_s": "s",
    "switch.end_window_s": "s",
    "switch.packets": "count",
    "switch.items_out": "count",
    "switch.overflow_ratio": "ratio",
    **{f"exec.{f}_s": "s" for f in
       ("group", "filter", "map", "reduce", "distinct", "aggregate")},
    **{f"exec.{f}_calls": "count" for f in
       ("group", "filter", "map", "reduce", "distinct", "aggregate")},
    "exec.group_rows": "count",
    "emitter.ingest_s": "s",
    "emitter.end_window_s": "s",
    "emitter.tuples_sent": "count",
    "emitter.row_item_share": "ratio",
    "wire.encode_s": "s",
    "wire.decode_s": "s",
    "wire.bytes_per_tuple": "B",
    "streaming.process_state_s": "s",
    "streaming.process_rows_s": "s",
    "streaming.join_s": "s",
    "analytics.raw_mirror_s": "s",
    "analytics.raw_mirror_rows": "count",
    "refine.filter_update_s": "s",
    "refine.filter_entries": "count",
    "network.split_s": "s",
    "network.collector_s": "s",
    "network.switch_tuples": "tuples",
    "network.collector_tuples": "tuples",
    "parallel.dispatch_s": "s",
    "parallel.shm_bytes": "B",
    "parallel.speedup": "ratio",
    "faults.injected.mirror_drop": "count",
    "faults.injected.mirror_reorder": "count",
    "trace.run_s": "s",
    "trace.window_other_s": "s",
    "trace.run_other_s": "s",
    "trace.overhead_pct": "%",
    "obs.overhead_pct": "%",
}

#: Pairs of (untraced, traced) replays at least, per traced run.
MIN_PAIRS = 1
#: (NULL_OBS, Observability()) replay pairs for obs.overhead_pct.
OBS_PAIRS = 2


def _per_rep(tracer, reps: int) -> tuple[dict, dict, dict]:
    own = {k: v / reps for k, v in tracer.self_seconds().items()}
    calls = {k: v / reps for k, v in tracer.calls().items()}
    counts = {k: v / reps for k, v in tracer.counts.items()}
    return own, calls, counts


def measure_layers(run: Run) -> dict:
    from layers import targets

    tracer = run.tracer
    wrapped = targets(tracer)
    setup_targets = targets(tracer, kernels_too=False)
    setups = [run.set_up(setup_targets) for _ in range(run.loads.SETUPS)]
    setups = [seconds for seconds in setups if seconds is not None]
    if run.product is None:
        return {}
    setup_own, _, setup_counts = _per_rep(tracer, len(setups))
    tracer.reset()
    run.oracle()

    # Paired replays: untraced then traced, until the time is used. A
    # network runs its traced replay serially (wrappers do not follow a
    # fork); its parallel replay is traced for the parent-side layers.
    network = run.spec.network
    plain, traced, parallel = [], [], []
    deadline = perf_counter() + run.seconds
    report = None
    while len(traced) < MIN_PAIRS or perf_counter() < deadline:
        if network:
            rep = run.replay(workers=run.spec.workers)
            serial_rep = run.replay(workers=1)
            if rep is None or serial_rep is None:
                break
            parallel.append(rep.seconds)
            plain.append(serial_rep.seconds)
        else:
            rep = run.replay()
            if rep is None:
                break
            plain.append(rep.seconds)
        with patched(wrapped):
            rep = run.replay(workers=1, traced=True)
        if rep is None:
            break
        traced.append(rep.seconds)
        report = rep.report
    if not traced:
        return {}
    own, calls, counts = _per_rep(tracer, len(traced))
    spans = list(tracer.spans)
    tracer.reset()

    par_own, par_counts = {}, {}
    if network:
        with patched(wrapped):
            rep = run.replay(workers=run.spec.workers, traced=True)
        if rep is not None:
            par_own, _, par_counts = _per_rep(tracer, 1)
        tracer.reset()

    obs_overhead = 0.0
    if run.spec.name == "steady":
        from repro.obs import Observability

        deltas = []
        for _ in range(OBS_PAIRS):
            off = run.replay()
            on = run.replay(obs=Observability())
            if off is None or on is None:
                break
            deltas.append((on[0] - off[0]) / off[0] * 100)
        obs_overhead = median(deltas)

    top = "network.run" if network else "runtime.run"
    run_total = sum(end - start for name, start, end, _ in spans if name == top)
    run_total /= len(traced)
    plans = run.loads.plans(run.product)
    est = sum(p.est_total_tuples for p in plans)
    measured = run.loads.tuples_per_window(report)
    faults = run.loads.faults_injected(report)
    updates = counts.get("switch.register_updates", 0)
    tuples_encoded = counts.get("wire.tuples", 0)
    items = counts.get("emitter.items", 0)
    windows = len(report.windows)
    values = {
        "packets.windows_s": own.get("packets.windows", 0.0),
        "planner.costs_s": setup_own.get("planner.costs", 0.0),
        "planner.solve_s": setup_own.get("planner.solve", 0.0),
        "planner.verify_s": setup_own.get("planner.verify", 0.0),
        "planner.milp_vars": setup_counts.get("planner.milp_vars", 0.0),
        "planner.est_tuples": est,
        "planner.est_ratio": measured / est if est else 0.0,
        "switch.install_s": setup_own.get("switch.install", 0.0),
        "switch.process_s": own.get("switch.process", 0.0),
        "switch.end_window_s": own.get("switch.end_window", 0.0),
        "switch.packets": counts.get("switch.packets", 0.0),
        "switch.items_out": counts.get("switch.items_out", 0.0),
        "switch.overflow_ratio": (
            counts.get("switch.register_overflows", 0) / updates if updates else 0.0
        ),
        "emitter.ingest_s": own.get("emitter.ingest", 0.0),
        "emitter.end_window_s": own.get("emitter.end_window", 0.0),
        "emitter.tuples_sent": counts.get("emitter.tuples_sent", 0.0),
        "emitter.row_item_share": (
            counts.get("emitter.row_items", 0) / items if items else 0.0
        ),
        "wire.encode_s": own.get("wire.encode", 0.0),
        "wire.decode_s": own.get("wire.decode", 0.0),
        "wire.bytes_per_tuple": (
            counts.get("wire.bytes", 0) / tuples_encoded if tuples_encoded else 0.0
        ),
        "streaming.process_state_s": own.get("streaming.process_state", 0.0),
        "streaming.process_rows_s": own.get("streaming.process_rows", 0.0),
        "streaming.join_s": own.get("streaming.join", 0.0),
        "analytics.raw_mirror_s": own.get("analytics.raw_mirror", 0.0),
        "analytics.raw_mirror_rows": counts.get("analytics.raw_mirror_rows", 0.0),
        "refine.filter_update_s": own.get("refine.filter_update", 0.0),
        "refine.filter_entries": counts.get("refine.filter_entries", 0.0),
        "network.split_s": own.get("network.split", 0.0),
        "network.collector_s": own.get("network.collector", 0.0),
        "network.switch_tuples": (
            report.total_switch_tuples / windows if network else 0.0
        ),
        "network.collector_tuples": (
            report.total_collector_tuples / windows if network else 0.0
        ),
        "parallel.dispatch_s": par_own.get("parallel.dispatch", 0.0),
        "parallel.shm_bytes": par_counts.get("parallel.shm_bytes", 0.0),
        "parallel.speedup": median(plain) / median(parallel) if network else 0.0,
        "faults.injected.mirror_drop": faults.get("mirror_drop", 0),
        "faults.injected.mirror_reorder": faults.get("mirror_reorder", 0),
        "trace.run_s": run_total,
        "trace.window_other_s": own.get("window", 0.0),
        "trace.run_other_s": own.get(top, 0.0),
        "trace.overhead_pct": median(
            [(t - p) / p * 100 for p, t in zip(plain, traced)]
        ),
        "obs.overhead_pct": obs_overhead,
    }
    for family in ("group", "filter", "map", "reduce", "distinct", "aggregate"):
        values[f"exec.{family}_s"] = own.get(f"exec.{family}", 0.0)
        values[f"exec.{family}_calls"] = calls.get(f"exec.{family}", 0.0)
    values["exec.group_rows"] = counts.get("exec.group_rows", 0.0)
    window_total = sum(
        end - start for name, start, end, _ in spans if name == "window"
    ) / len(traced)
    run.info.update(
        est_ratio_base="measured tuples_to_sp per window / planner estimate "
        "per window (summed over switches)",
        traced_run_s=traced,
        untraced_run_s=plain,
        windows_s=window_total,
        layer_self_s={k: own[k] for k in sorted(own, key=own.get, reverse=True)},
    )
    print_layer_table(run.spec.name, own, run_total, window_total, median(plain))
    return {name: (values[name], unit) for name, unit in LAYER_UNITS.items()}


def print_layer_table(
    workload: str, own: dict, run_total: float, window_total: float,
    untraced: float,
) -> None:
    """Self time per layer of one traced replay, reconciled with run().

    Spans nest, so the self times add up to the traced ``run()``: kernel
    time is inside its stage, stages inside their window, and windows
    plus trace slicing plus the run's own remainder make up ``run()``.
    """
    out = sys.stderr
    print(f"\nlayer self time per traced replay ({workload})", file=out)
    print(f"{'layer':28} {'self_s':>10} {'share':>7}", file=out)
    for name in sorted(own, key=own.get, reverse=True):
        share = own[name] / run_total * 100 if run_total else 0.0
        print(f"{name:28} {own[name]:10.4f} {share:6.1f}%", file=out)
    print(
        f"sum of self times {sum(own.values()):.4f} s = traced run() "
        f"{run_total:.4f} s; windows {window_total:.4f} s + slicing "
        f"{own.get('packets.windows', 0.0):.4f} s + outside windows "
        f"{run_total - window_total - own.get('packets.windows', 0.0):.4f} s; "
        f"untraced run() median {untraced:.4f} s "
        f"({(run_total - untraced) / untraced * 100:+.1f}%)",
        file=out,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import loads
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        return 2
    spec = loads.WORKLOADS.get(args.workload)
    if spec is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(loads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    run = Run(spec, args.seed, args.seconds, bool(args.trace))
    try:
        run.generate()
        measure = measure_layers if args.trace else measure_end_to_end
        metrics = measure(run)
    finally:
        run.close()
        stop_children()
    source = source_hash()
    correct = run.finish_checks(source) and bool(metrics)
    if not args.trace:
        rate = 1 - run.failed / run.attempted if run.attempted else 0.0
        metrics["success_rate"] = (rate, "ratio")
    if run.problems:
        for problem in run.problems:
            print(f"perfbench: output check failed: {problem}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    entry = {
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "commit": git_commit(),
        "source": source,
        "workload": spec.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host_fingerprint(),
        "calibration_ms": run.calibrations,
        "info": run.info,
        "failures": run.reasons,
        "problems": run.problems,
        **result,
    }
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(entry, default=str) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
