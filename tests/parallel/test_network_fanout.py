"""Network fan-out through ``parallel_map``: no side processes, no fork needed.

``NetworkRuntime.run(workers=N)`` forks its per-switch workers through
:func:`repro.parallel.parallel_map`, which hands them their trace splits
by copy-on-write. Nothing is put in shared memory, so multiprocessing's
resource tracker (a process that outlives the run) never starts. Where
``fork`` does not exist, or at ``workers=1``, the same per-switch tasks
run in the calling process and the report is the same.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.network.runtime as network_runtime
import repro.parallel.pool as pool
from repro.evaluation.workloads import build_workload
from repro.faults import FaultSpec
from repro.network import NetworkRuntime, Topology
from repro.queries.library import build_queries

QUERY_NAMES = ["newly_opened_tcp_conns", "ddos"]
FAULTS = FaultSpec(seed=7, mirror_drop=0.05, mirror_reorder=0.05, late_drop=0.1)

SCRIPT = """
from multiprocessing import resource_tracker

from repro.evaluation.workloads import build_workload
from repro.network import NetworkRuntime, Topology
from repro.queries.library import build_queries

names = ["newly_opened_tcp_conns"]
workload = build_workload(names, duration=6.0, pps=800, seed=3)
net = NetworkRuntime(
    build_queries(names), Topology.ecmp(2, seed=3), workload.trace,
    window=3.0, time_limit=10,
)
report = net.run(workload.trace, workers=2)
assert len(report.windows) == 2, report.windows
print(resource_tracker._resource_tracker._pid)
"""


def test_parallel_run_starts_no_resource_tracker():
    src = str(Path(repro.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == "None"


@pytest.fixture(scope="module")
def workload():
    return build_workload(QUERY_NAMES, duration=9.0, pps=1_500, seed=5)


def _run(workload, workers):
    net = NetworkRuntime(
        build_queries(QUERY_NAMES),
        Topology.ecmp(3, seed=3),
        workload.trace,
        window=3.0,
        time_limit=10,
        faults=FAULTS,
    )
    return net.run(workload.trace, workers=workers)


def test_without_fork_runs_serially(workload, monkeypatch):
    serial = _run(workload, workers=1)
    monkeypatch.setattr(pool, "fork_context", lambda: None)
    unforked = _run(workload, workers=2)
    assert unforked.windows == serial.windows
    assert unforked.detections() == serial.detections()
    assert serial.fault_draws
    assert unforked.fault_draws == serial.fault_draws


def test_every_worker_count_runs_the_switch_task(workload, monkeypatch):
    """``workers=1`` and ``workers=2`` take one path: every switch id goes
    through ``parallel_map`` exactly once per run."""
    dispatched = []

    def spy(fn, items, *args, **kwargs):
        items = list(items)
        dispatched.append(items)
        return pool.parallel_map(fn, items, *args, **kwargs)

    monkeypatch.setattr(network_runtime, "parallel_map", spy)
    for workers in (1, 2):
        dispatched.clear()
        report = _run(workload, workers=workers)
        assert report.windows
        assert dispatched == [[0, 1, 2]], f"workers={workers}"
