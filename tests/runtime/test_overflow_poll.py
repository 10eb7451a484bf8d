"""The §3.1.3 collision adjustment polls only the keys the overflow reaches.

A plan trained on one light window is replayed on heavier windows, so its
registers overflow: ``ddos`` overflows at its mid-chain ``Distinct`` as
well as at its ``Reduce``, and ``overflow_pressure`` splits single keys
between the register and the overflow stream at one ``Reduce``. Both
engines must agree, and the switch must report no more keys than the
threshold-passing ones plus the keys the window's overflow reaches at the
last stateful operator.
"""

import pytest

from repro.core.operators import Distinct, Reduce
from repro.evaluation.workloads import build_workload
from repro.exec import materialize_rows
from repro.faults import FaultSpec
from repro.obs import Observability
from repro.planner import QueryPlanner
from repro.queries.library import build_queries
from repro.runtime import SonataRuntime
from repro.runtime.emitter import overflow_merge_policy, poll_keys
from repro.streaming.batchops import apply_operators_state
from repro.switch.simulator import PISASwitch

NAMES = ["ddos", "newly_opened_tcp_conns"]


@pytest.fixture(scope="module")
def plan():
    train = build_workload(NAMES, duration=3.0, pps=1_000, seed=31).trace
    planner = QueryPlanner(build_queries(NAMES), train, window=3.0, time_limit=20)
    return planner.plan("sonata")


@pytest.fixture(scope="module")
def heavy():
    return build_workload(NAMES, duration=9.0, pps=3_000, seed=31).trace


def _key_set(state, keys) -> set:
    if not state.n_rows:
        return set()
    return {tuple(row[k] for k in keys) for row in materialize_rows(state, keys)}


def _spied_run(plan, trace, faults):
    """Batched run recording, per window, the mirror items and key reports.

    The switch is spied on through its class: every run installs the plan
    on a fresh switch."""
    obs = Observability()
    runtime = SonataRuntime(plan, faults=faults, obs=obs)
    windows = []
    ingest, end_switch = runtime.emitter.ingest_items, PISASwitch.end_window_items
    end_emitter = runtime.emitter.end_window
    polled = obs.registry.get("sonata_emitter_polled_keys_total")

    def spy_ingest(items):
        windows.append({"items": list(items)})
        return ingest(items)

    def spy_end_switch(switch, *args, **kwargs):
        windows[-1]["reports"] = end_switch(switch, *args, **kwargs)
        return windows[-1]["reports"]

    def spy_end_emitter(*args, **kwargs):
        windows[-1]["polled"] = {
            inst.key: polled.value(instance=inst.key)
            for inst in plan.all_instances()
        }
        return end_emitter(*args, **kwargs)

    runtime.emitter.ingest_items = spy_ingest
    runtime.emitter.end_window = spy_end_emitter
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PISASwitch, "end_window_items", spy_end_switch)
        return runtime.run(trace), windows


@pytest.mark.parametrize(
    "faults",
    [None, FaultSpec(seed=5, overflow_pressure=0.05)],
    ids=["overflow", "overflow-pressure"],
)
def test_poll_is_bounded_and_engines_agree(plan, heavy, faults):
    batched, windows = _spied_run(plan, heavy, faults)
    rowwise = SonataRuntime(plan, engine="rowwise", faults=faults).run(heavy)
    assert [w.detections for w in batched.windows] == [
        w.detections for w in rowwise.windows
    ]
    assert [w.tuples_per_instance for w in batched.windows] == [
        w.tuples_per_instance for w in rowwise.windows
    ]

    instances = {inst.key: inst for inst in plan.all_instances()}
    mid_chain_distinct = split_key = False
    previous = dict.fromkeys(instances, 0)
    for window, report in zip(windows, batched.windows):
        for key, inst in instances.items():
            ops = inst.augmented.operators
            level, _remerge = overflow_merge_policy(inst)
            keys = poll_keys(inst)
            overflow = [
                b for b in window["items"] if b.instance == key and b.kind == "overflow"
            ]
            # The polled-key counter moves exactly in windows with overflow.
            delta = window["polled"][key] - previous[key]
            previous[key] = window["polled"][key]
            assert (delta > 0) == (report.overflow_stats[key][1] > 0)
            if not overflow:
                continue
            reached = set()
            for b in overflow:
                reached |= _key_set(
                    apply_operators_state(b.state, list(ops[b.op_index : level])),
                    keys,
                )
                mid_chain_distinct |= isinstance(ops[b.op_index], Distinct)
                if b.op_index == level - 1 and isinstance(ops[b.op_index], Reduce):
                    registered = _key_set(window["reports"][key].state, keys)
                    split_key |= bool(_key_set(b.state, keys) & registered)
            assert delta == len(reached)
            gated = apply_operators_state(
                window["reports"][key].state, list(ops[level : inst.cut])
            )
            bound = _key_set(gated, keys) | reached
            assert window["reports"][key].n_rows <= len(bound)
    assert mid_chain_distinct
    assert split_key == (faults is not None)
    assert any(window["polled"][key] for window in windows for key in instances)
