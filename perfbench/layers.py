"""Which public entry point of which ``repro`` layer the traced run wraps.

Each target is looked up where its callers look it up: a class attribute
for methods, the importing module's global for the ``repro.exec`` kernels
(``switch.simulator``, ``streaming.batchops``, ``analytics.columnar``
and ``runtime.emitter``; the emitter imports no kernel, it reaches them
through ``streaming.batchops``). ``repro.exec.kernels`` is patched too,
for the grouping and aggregation that ``apply_reduce``/``apply_distinct``
call internally.
"""

from __future__ import annotations

import repro.analytics.columnar as columnar
import repro.exec.kernels as kernels
import repro.runtime.emitter as emitter_mod
import repro.runtime.runtime as runtime_mod
import repro.streaming.batchops as batchops
import repro.switch.simulator as simulator
from repro.network import NetworkRuntime
from repro.network.topology import Topology
from repro.parallel.shm import TraceShmPool
from repro.planner import QueryPlanner
from repro.planner.ilp import PlanILP
from repro.runtime import SonataRuntime
from repro.runtime.emitter import Emitter
from repro.runtime.wire import WireCodec
from repro.streaming.engine import StreamProcessor
from repro.switch.mirror import MirroredRows
from repro.switch.simulator import PISASwitch

#: repro.exec kernel -> operator family reported as ``exec.<family>_s``.
EXEC_FAMILIES = {
    "group_first_occurrence": "group",
    "group_keys": "group",
    "filter_mask": "filter",
    "predicate_mask": "filter",
    "apply_filter": "filter",
    "threshold_mask": "filter",
    "value_mask": "filter",
    "apply_map": "map",
    "apply_reduce": "reduce",
    "reduce_args": "reduce",
    "apply_distinct": "distinct",
    "aggregate_groups": "aggregate",
    "running_groups": "aggregate",
}
EXEC_MODULES = (simulator, batchops, columnar, emitter_mod)


def _item_rows(item) -> int:
    return len(item.tagged) if isinstance(item, MirroredRows) else item.n_rows


def _count_switch_process(tracer, args, items) -> None:
    tracer.count("switch.packets", len(args[1]))
    tracer.count("switch.items_out", sum(_item_rows(item) for item in items))


def _count_switch_end_window(tracer, args, _) -> None:
    for updates, overflows in args[0].window_overflow_stats.values():
        tracer.count("switch.register_updates", updates)
        tracer.count("switch.register_overflows", overflows)


def _count_ingest_rows(tracer, args, _) -> None:
    tracer.count("emitter.row_items", len(args[1]))
    tracer.count("emitter.items", len(args[1]))


def _count_ingest_items(tracer, args, _) -> None:
    for item in args[1]:
        rows = _item_rows(item)
        tracer.count("emitter.items", rows)
        if isinstance(item, MirroredRows):
            tracer.count("emitter.row_items", rows)


def _count_emitter_end_window(tracer, _, batches) -> None:
    tracer.count(
        "emitter.tuples_sent", sum(b.tuples_sent for b in batches.values())
    )


def _count_encode(tracer, _, record) -> None:
    tracer.count("wire.bytes", len(record))
    tracer.count("wire.tuples", 1)


def _count_encode_batch(tracer, args, record) -> None:
    tracer.count("wire.bytes", len(record))
    tracer.count("wire.tuples", args[1].state.n_rows)


def _count_raw_mirror(tracer, args, _) -> None:
    tracer.count("analytics.raw_mirror_rows", len(args[1]))


def _count_filter_update(tracer, args, _) -> None:
    tracer.count("refine.filter_entries", len(args[2]))


def _count_solve(tracer, _, plan) -> None:
    tracer.count("planner.milp_vars", plan.solver_info.get("variables", 0))


def _count_shm(tracer, args, _) -> None:
    tracer.count("parallel.shm_bytes", args[0].shared_bytes)


def _counter_group(tracer, args, _) -> None:
    tracer.count("exec.group_rows", args[0].n_rows)


def targets(tracer, kernels_too: bool = True) -> list[tuple]:
    """``(owner, attribute, wrapper)`` for every traced entry point.

    Set-up is traced without the kernels, so that the planner's self
    times include the grouping and filtering its cost estimation runs.
    """
    methods = [
        (QueryPlanner, "costs", "planner.costs", None),
        (QueryPlanner, "plan", "planner.plan", None),
        (QueryPlanner, "verify", "planner.verify", None),
        (PlanILP, "solve", "planner.solve", _count_solve),
        (PISASwitch, "install", "switch.install", None),
        (SonataRuntime, "__init__", "runtime.init", None),
        (SonataRuntime, "run", "runtime.run", None),
        (PISASwitch, "process_window_items", "switch.process",
         _count_switch_process),
        # The row channel's process_window/end_window wrap the *_items
        # calls, which do the counting.
        (PISASwitch, "process_window", "switch.process", None),
        (PISASwitch, "end_window_items", "switch.end_window",
         _count_switch_end_window),
        (PISASwitch, "end_window", "switch.end_window", None),
        (PISASwitch, "update_filter_table", "refine.filter_update",
         _count_filter_update),
        (Emitter, "ingest", "emitter.ingest", _count_ingest_rows),
        (Emitter, "ingest_items", "emitter.ingest", _count_ingest_items),
        (Emitter, "end_window", "emitter.end_window", _count_emitter_end_window),
        (WireCodec, "encode", "wire.encode", _count_encode),
        (WireCodec, "encode_batch", "wire.encode", _count_encode_batch),
        (WireCodec, "decode", "wire.decode", None),
        (WireCodec, "decode_batch", "wire.decode", None),
        (StreamProcessor, "process_state", "streaming.process_state", None),
        (StreamProcessor, "process", "streaming.process_rows", None),
        (StreamProcessor, "execute_join_tree", "streaming.join", None),
        (runtime_mod, "execute_subquery", "analytics.raw_mirror",
         _count_raw_mirror),
        (NetworkRuntime, "__init__", "network.init", None),
        (NetworkRuntime, "run", "network.run", None),
        (NetworkRuntime, "_collect", "network.collector", None),
        (NetworkRuntime, "_run_parallel", "parallel.dispatch", None),
        (Topology, "split", "network.split", None),
        (TraceShmPool, "__exit__", "parallel.shm_release", _count_shm),
    ]
    out = [
        (owner, attr, tracer.wrap(span, owner.__dict__[attr], counter))
        for owner, attr, span, counter in methods
    ]
    if not kernels_too:
        return out
    for module in EXEC_MODULES + (kernels,):
        for name, family in EXEC_FAMILIES.items():
            if module is kernels and name not in ("group_keys", "aggregate_groups"):
                continue
            if name not in module.__dict__:
                continue
            counter = _counter_group if family == "group" else None
            out.append(
                (module, name,
                 tracer.wrap(f"exec.{family}", module.__dict__[name], counter))
            )
    return out
