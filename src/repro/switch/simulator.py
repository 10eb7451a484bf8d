"""Behavioural PISA switch simulator.

Executes installed (partitioned, refined) sub-query instances packet by
packet: filters drop, maps rewrite query metadata, stateful tables update
hash-indexed register chains, and the report flag mirrors packets/tuples
to the monitoring port (§3.1.3). Resource constraints (S, A, B, M, the
single-register cap and the PHV header budget) are verified when instances
are installed, by the rules of :mod:`repro.switch.resources` that the
query planner's MILP is built from; an infeasible plan fails loudly here,
naming the :class:`SwitchConfig` budget it overruns.

Reporting semantics (faithful to §3.1.3):

- if an instance's last on-switch operator is stateless, every surviving
  packet is mirrored as a tuple;
- if it is stateful, one report is emitted per key (on first insertion,
  or on first crossing of a folded threshold), and the emitter reads the
  final aggregate for reported keys from the registers at window end;
- a packet whose key overflows all ``d`` registers of a chain is mirrored
  raw (kind ``overflow``) so the stream processor can adjust results.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping

import numpy as np

from repro.core.errors import ResourceExhaustedError
from repro.core.operators import (
    Distinct,
    Filter,
    Map,
    Predicate,
    Reduce,
    chain_read_fields,
)
from repro.exec import (
    ColumnarState,
    aggregate_groups,
    apply_map,
    canonical_state,
    filter_mask,
    group_first_occurrence,
    keys_in,
    materialize_rows,
    predicate_mask,
    reduce_args,
    running_groups,
)
from repro.obs import get_observability
from repro.packets.packet import Packet
from repro.switch.compiler import CompiledSubQuery
from repro.switch.config import SwitchConfig
from repro.switch.mirror import MirroredBatch, MirroredTuple, merge_tagged
from repro.switch.parser import ParserConfig
from repro.switch.registers import RegisterChain, UpdateResult
from repro.switch.resources import (
    StageLedger,
    chain_violation,
    header_fields,
    over_budget,
)
from repro.switch.tables import LogicalTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.packets.trace import Trace

logger = logging.getLogger(__name__)

@dataclass
class _ChainCache:
    """The window's contents of one register chain the batched path
    loaded, columnar: the chain itself holds placements only.

    ``unique`` is the first-occurrence-ordered int64 key matrix of
    :func:`~repro.exec.group_first_occurrence`, vocab-typed columns
    holding canonical ids into ``vocabs`` (see
    :func:`~repro.exec.canonical_state`); ``inserted`` comes from
    :meth:`~repro.switch.registers.RegisterChain.bulk_load_vec`;
    ``reported`` marks keys the per-packet oracle would have added to
    ``reported_keys``.
    """

    keys: tuple
    vocabs: dict
    unique: np.ndarray
    inserted: np.ndarray
    reported: np.ndarray
    finals: "np.ndarray | None" = None  # reduce window aggregates
    out_field: "str | None" = None


def _value_ranks(ids: np.ndarray, vocab: list) -> np.ndarray:
    """Each id's rank among the ids present, in sorted value order."""
    present, inverse = np.unique(ids, return_inverse=True)
    values = [vocab[i] for i in present.tolist()]
    ranks = np.empty(len(present), dtype=np.int64)
    ranks[sorted(range(len(values)), key=values.__getitem__)] = np.arange(len(values))
    return ranks[inverse]


class _PacketTuple(dict):
    """Lazy packet-field view: pulls header fields from the packet."""

    def __init__(self, packet: Packet) -> None:
        super().__init__()
        self._packet = packet

    def __missing__(self, key: str) -> Any:
        value = self._packet.get(key)
        self[key] = value
        return value


@dataclass
class InstalledInstance:
    """One sub-query instance resident in the pipeline."""

    key: str
    compiled: CompiledSubQuery
    n_operators: int
    tables: list[LogicalTable]
    stage_of: dict[str, int]
    chains: dict[int, RegisterChain] = field(default_factory=dict)  # op idx -> chain
    folded_by_op: dict[int, Filter] = field(default_factory=dict)
    reported_keys: set = field(default_factory=set)
    #: op index -> :class:`_ChainCache` for chains the batched path
    #: loaded this window (cleared by :meth:`PISASwitch.end_window`).
    window_caches: dict = field(default_factory=dict)
    packets_seen: int = 0
    packets_surviving: int = 0
    tuples_mirrored: int = 0
    #: Fields the switch operators and the mirror read; each window's
    #: state is projected to these before the first operator.
    read_fields: frozenset[str] = field(init=False, default=frozenset())

    def __post_init__(self) -> None:
        self.read_fields = chain_read_fields(
            self.compiled.subquery.operators[: self.n_operators],
            self.compiled.schemas,
        )
        for table in self.tables:  # install checked the sizing (chain_violation)
            if table.stateful:
                self.chains[table.operator_index] = RegisterChain(table.register)
                if table.folded_filter is not None:
                    self.folded_by_op[table.operator_index] = table.folded_filter

    @property
    def last_op_stateful(self) -> bool:
        return self.compiled.last_operator_stateful(self.n_operators)

    def metadata_bits(self) -> int:
        return self.compiled.metadata_bits(self.n_operators)


class PISASwitch:
    """A PISA switch holding installed query instances."""

    def __init__(self, config: SwitchConfig | None = None) -> None:
        self.config = config or SwitchConfig.paper_default()
        self.instances: dict[str, InstalledInstance] = {}
        self.parser = ParserConfig()
        self.filter_tables: dict[str, set] = {}
        self.packets_processed = 0
        self.tuples_mirrored = 0
        self.control_plane_seconds = 0.0
        #: Per-instance (register updates, overflows) of the last closed
        #: window — the re-training signal of §5.
        self.window_overflow_stats: dict[str, tuple[int, int]] = {}
        #: Closed-loop mitigation: (field, value) pairs dropped at ingress
        #: before any query processing (see repro.runtime.reaction).
        self.drop_rules: set[tuple[str, Any]] = set()
        self.packets_dropped = 0
        #: Times a refinement update exceeded the filter-table capacity.
        self.filter_table_truncations = 0
        #: Optional :class:`repro.faults.FaultInjector`; when set, its
        #: ``force_overflow`` channel can overflow register updates to
        #: model key populations above the training-data sizing.
        self.fault_injector = None
        #: Observability context; the runtime overwrites this with its own
        #: so all components of one pipeline share a registry/tracer. The
        #: per-packet path is deliberately uninstrumented — switch metrics
        #: are recorded at window/control-plane granularity.
        self.obs = get_observability()

    # ------------------------------------------------------------------
    # Installation and resource verification
    # ------------------------------------------------------------------
    def install(
        self,
        key: str,
        compiled: CompiledSubQuery,
        n_operators: int,
        sized_tables: list[LogicalTable] | None = None,
        stage_assignment: Mapping[str, int] | None = None,
    ) -> InstalledInstance:
        """Install a sub-query instance cut after ``n_operators``.

        ``sized_tables`` must carry register sizing for stateful tables
        (the planner provides it); ``stage_assignment`` maps table name →
        stage, and tables it leaves out are placed first-fit in strictly
        increasing stages (C4). All constraints of §3.2 are verified
        through :mod:`repro.switch.resources`; violations raise
        :class:`ResourceExhaustedError` naming the budget.
        """
        if key in self.instances:
            raise ResourceExhaustedError(f"instance {key!r} already installed")
        if n_operators > compiled.compilable_operators:
            raise ResourceExhaustedError(
                f"{key}: cut {n_operators} exceeds compilable prefix "
                f"({compiled.compilable_operators} operators)"
            )
        tables = sized_tables or compiled.tables_for_partition(n_operators)
        expected = {t.name for t in compiled.tables_for_partition(n_operators)}
        if {t.name for t in tables} != expected:
            raise ResourceExhaustedError(
                f"{key}: sized tables do not match the partition cut"
            )

        stage_of = self._verify(key, compiled, n_operators, tables, stage_assignment)

        # Extend the parser with the header fields this instance reads and
        # check the PHV header budget (§3.2 "Parser").
        fields = header_fields(compiled, n_operators)
        self.parser.require(fields)
        over = over_budget("phv_header_bits", self.parser.extracted_bits, self.config)
        if over:
            self.parser.release(fields.keys() - self._header_fields_in_use(exclude=key))
            raise ResourceExhaustedError(f"{key}: parser header bits {over}")

        instance = InstalledInstance(
            key=key,
            compiled=compiled,
            n_operators=n_operators,
            tables=tables,
            stage_of=stage_of,
        )
        self.instances[key] = instance
        logger.debug("installed %s (cut=%d, %d tables)", key, n_operators, len(tables))
        self.obs.event("switch.install", instance=key, cut=n_operators)
        for table in tables:
            if table.dynamic_table is not None:
                self.filter_tables.setdefault(table.dynamic_table, set())
        return instance

    def _header_fields_in_use(self, exclude: str | None = None) -> set[str]:
        fields: set[str] = set()
        for key, inst in self.instances.items():
            if key != exclude:
                fields.update(header_fields(inst.compiled, inst.n_operators))
        return fields

    def uninstall(self, key: str) -> None:
        if self.instances.pop(key, None) is not None:
            logger.debug("uninstalled %s", key)
            self.obs.event("switch.uninstall", instance=key)
        # Recompute the parser program from the remaining instances.
        self.parser = ParserConfig()
        self.parser.require(self._header_fields_in_use())

    def _ledger(self) -> StageLedger:
        """Per-stage usage of the installed instances."""
        ledger = StageLedger(self.config)
        for inst in self.instances.values():
            for table in inst.tables:
                ledger.take(table, inst.stage_of[table.name])
        return ledger

    def _verify(
        self,
        key: str,
        compiled: CompiledSubQuery,
        n_operators: int,
        tables: list[LogicalTable],
        assignment: Mapping[str, int] | None,
    ) -> dict[str, int]:
        """Check C1–C5 and the register cap on top of the installed
        instances; returns each table's stage."""
        try:
            violation = chain_violation(tables, self.config)
            if violation:
                raise ResourceExhaustedError(violation)
            stage_of = self._ledger().place(tables, assignment or {})
        except ResourceExhaustedError as exc:
            raise ResourceExhaustedError(f"{key}: {exc}") from None

        metadata = compiled.metadata_bits(n_operators) + sum(
            inst.metadata_bits() for inst in self.instances.values()
        )
        over = over_budget("metadata_bits", metadata, self.config)
        if over:
            raise ResourceExhaustedError(f"{key}: PHV metadata bits {over} (C5)")
        return stage_of

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------
    def update_filter_table(self, name: str, entries: Iterable) -> float:
        """Replace a dynamic filter table's contents (refinement update).

        Returns the modelled control-plane latency, which is also
        accumulated on :attr:`control_plane_seconds`. Updates larger than
        the hardware table capacity are truncated deterministically and
        counted in :attr:`filter_table_truncations`.
        """
        entries = set(entries)
        capacity = self.config.filter_table_capacity
        if len(entries) > capacity:
            entries = set(sorted(entries, key=repr)[:capacity])
            self.filter_table_truncations += 1
            logger.warning(
                "filter table %s truncated to capacity %d", name, capacity
            )
            self.obs.counter(
                "sonata_filter_table_truncations_total",
                "refinement updates clipped at the hardware table capacity",
            ).inc(table=name)
        self.filter_tables[name] = entries
        cost = self.config.update_cost_seconds(len(entries), reset_registers=False)
        self.control_plane_seconds += cost
        self.obs.counter(
            "sonata_filter_table_updates_total",
            "dynamic filter-table replacements applied by the control plane",
        ).inc(table=name)
        self.obs.gauge(
            "sonata_filter_table_entries",
            "current entry count per dynamic filter table",
        ).set(len(entries), table=name)
        return cost

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------
    def add_drop_rule(self, field: str, value: Any) -> float:
        """Install an ingress ACL drop rule (closed-loop mitigation)."""
        self.drop_rules.add((field, value))
        cost = self.config.update_cost_seconds(1, reset_registers=False)
        self.control_plane_seconds += cost
        return cost

    def remove_drop_rule(self, field: str, value: Any) -> None:
        self.drop_rules.discard((field, value))

    def process_packet(self, packet: Packet) -> list[MirroredTuple]:
        """Run one packet through every installed instance.

        This is the per-packet reference oracle; the batched window path
        (:meth:`process_window`) must match it tuple-for-tuple.
        """
        if self.drop_rules:
            for field, value in self.drop_rules:
                if packet.get(field) == value:
                    self.packets_dropped += 1
                    return []
        self.packets_processed += 1
        mirrored: list[MirroredTuple] = []
        for inst in self.instances.values():
            result = self._process_instance(inst, packet)
            if result is not None:
                mirrored.append(result)
                inst.tuples_mirrored += 1
        self.tuples_mirrored += len(mirrored)
        return mirrored

    def _process_instance(
        self, inst: InstalledInstance, packet: Packet
    ) -> MirroredTuple | None:
        inst.packets_seen += 1
        tup: dict[str, Any] = _PacketTuple(packet)
        ops = inst.compiled.subquery.operators[: inst.n_operators]
        return self._run_chain(inst, tup, ops, inst.compiled.schemas)

    def _run_chain(
        self, inst: InstalledInstance, tup: dict[str, Any], ops, schemas
    ) -> MirroredTuple | None:
        """Row-wise operator walk of one packet (the oracle path)."""
        i = 0
        while i < len(ops):
            op = ops[i]
            if isinstance(op, Filter):
                if i - 1 in inst.folded_by_op:
                    # This threshold filter was folded into the previous
                    # reduce's update table; reporting handled there.
                    i += 1
                    continue
                if not all(p.evaluate(tup, self.filter_tables) for p in op.predicates):
                    return None
                i += 1
                continue
            if isinstance(op, Map):
                tup = {expr.name: expr.evaluate(tup) for expr in op.keys + op.values}
                i += 1
                continue
            if isinstance(op, Distinct):
                keys = op.effective_keys(schemas[i])
                key = tuple(tup[k] for k in keys)
                result = self._update(inst, i, key, "or", 1)
                if result is None:
                    return MirroredTuple(inst.key, "overflow", dict(zip(keys, key)), i)
                if not result.inserted:
                    return None  # duplicate: only the first packet continues
                tup = dict(zip(keys, key))
                if i == len(ops) - 1:
                    # Last operator: report each distinct key once.
                    inst.reported_keys.add((i, key))
                    return None  # reported at window end from the registers
                i += 1
                continue
            if isinstance(op, Reduce):
                value_field = op.resolved_value_field(schemas[i])
                arg = 1 if value_field is None else int(tup[value_field])
                key = tuple(tup[k] for k in op.keys)
                func = "count" if value_field is None and op.func == "sum" else op.func
                result = self._update(inst, i, key, func, arg)
                if result is None:
                    fields = dict(zip(op.keys, key))
                    fields[op.out] = arg if func != "count" else 1
                    return MirroredTuple(inst.key, "overflow", fields, i)
                folded = inst.folded_by_op.get(i)
                if folded is not None:
                    probe = dict(zip(op.keys, key))
                    probe[op.out] = result.value
                    if all(p.evaluate(probe) for p in folded.predicates):
                        inst.reported_keys.add((i, key))
                elif result.inserted:
                    inst.reported_keys.add((i, key))
                return None  # reduce ends the on-switch pipeline (per packet)
            raise ResourceExhaustedError(f"operator {op!r} cannot run on the switch")

        # Stateless-last instance: the surviving packet is mirrored.
        return self._mirror_surviving(inst, tup, schemas)

    def _update(
        self, inst: InstalledInstance, i: int, key, func: str, arg: int
    ) -> "UpdateResult | None":
        """One packet's register update at operator ``i``; ``None`` when it
        overflows, because the key collided in every array or because
        fault injection forced it to.

        Forced overflows skip the chain but count against its window
        stats, so the §5 overflow-rate signal (re-training, raw-mirror
        fallback) sees the pressure.
        """
        chain = inst.chains[i]
        injector = self.fault_injector
        if injector is not None and injector.force_overflow(inst.key, i):
            chain.updates += 1
            chain.overflows += 1
            return None
        result = chain.update(key, func, arg)
        return None if result.overflowed else result

    def _mirror_surviving(
        self, inst: InstalledInstance, tup, schemas
    ) -> MirroredTuple:
        # _PacketTuple resolves "payload" to b"" for payload-less packets,
        # so no packet-level override is needed.
        inst.packets_surviving += 1
        schema = schemas[inst.n_operators]
        fields = {name: tup[name] for name in schema.fields}
        return MirroredTuple(
            instance=inst.key, kind="stream", fields=fields, op_index=inst.n_operators
        )

    # ------------------------------------------------------------------
    # Batched data plane
    # ------------------------------------------------------------------
    def process_window(self, trace: "Trace") -> list[MirroredTuple]:
        """Run one window of packets through every installed instance.

        Semantically identical to calling :meth:`process_packet` on every
        packet of ``trace`` in order and concatenating the results —
        including register insertion order, overflow mirroring, counters
        and report sets. This row-materializing wrapper exists for callers
        that want per-tuple output; the batched engine consumes
        :meth:`process_window_items` directly.
        """
        return merge_tagged(self.process_window_items(trace))

    def process_window_items(self, trace: "Trace") -> list[MirroredBatch]:
        """Run one window, returning the mirror output in columnar batches.

        Each :class:`MirroredBatch` is one instance's same-kind output,
        still columnar. Flattened through :func:`merge_tagged`, the items
        reproduce the per-packet channel's tuple stream exactly — including
        register insertion order, overflow mirroring, counters and report
        sets — but executed vectorized over the trace columns. Stateful
        operators are simulated per *unique key* (in first-occurrence
        order) instead of per packet: register arrays only fill up within
        a window, so a key's inserted/overflowed fate is decided at its
        first occurrence and its final value is the window aggregate of
        its rows. Updates the fault injector forces to overflow skip the
        register chain, as in the per-packet path.
        """
        state = ColumnarState.from_trace(trace)
        rows = np.arange(state.n_rows, dtype=np.int64)
        if self.drop_rules:
            keep = np.ones(state.n_rows, dtype=bool)
            for field_name, value in self.drop_rules:
                drop = Predicate(field_name, "eq", value)
                keep &= ~predicate_mask(drop, state, None)
            dropped = int(state.n_rows - int(keep.sum()))
            if dropped:
                self.packets_dropped += dropped
                state = state.select(keep)
                rows = rows[keep]
        self.packets_processed += len(rows)

        # Each batch row is tagged with its (global row, instance
        # position) so flattening orders the tuples exactly like the
        # per-packet loop emits: all of packet i's tuples before packet
        # i+1's, instances in installation order within a packet.
        items = []
        for pos, inst in enumerate(self.instances.values()):
            self._process_instance_window(inst, state, rows, pos, items)
        self.tuples_mirrored += sum(item.n_rows for item in items)
        return items

    def _process_instance_window(
        self,
        inst: InstalledInstance,
        state: ColumnarState,
        rows: np.ndarray,
        pos: int,
        items: list,
    ) -> None:
        inst.packets_seen += len(rows)
        ops = inst.compiled.subquery.operators[: inst.n_operators]
        schemas = inst.compiled.schemas
        state = state.project(inst.read_fields)
        sel = rows
        i = 0
        while i < len(ops):
            op = ops[i]
            if isinstance(op, Filter):
                if i - 1 in inst.folded_by_op:
                    i += 1  # folded into the previous reduce's update table
                    continue
                mask = filter_mask(op, state, self.filter_tables)
                if not mask.all():
                    state = state.select(mask)
                    sel = sel[mask]
                i += 1
                continue
            if isinstance(op, Map):
                state = apply_map(op, state)
                i += 1
                continue
            if isinstance(op, Distinct):
                cont = self._batch_distinct(inst, op, i, state, sel, pos, items, ops)
                if cont is None:
                    return
                state, sel = cont
                i += 1
                continue
            if isinstance(op, Reduce):
                self._batch_reduce(inst, op, i, state, sel, pos, items, schemas)
                return
            raise ResourceExhaustedError(f"operator {op!r} cannot run on the switch")

        # Stateless-last instance: every surviving row is mirrored as one
        # columnar stream batch — no per-row dicts on the hot path.
        n = len(sel)
        if n == 0:
            return
        inst.packets_surviving += n
        inst.tuples_mirrored += n
        schema = schemas[inst.n_operators]
        items.append(
            MirroredBatch(
                instance=inst.key,
                kind="stream",
                op_index=inst.n_operators,
                state=ColumnarState(
                    columns={name: state.columns[name] for name in schema.fields},
                    vocabs={
                        k: v for k, v in state.vocabs.items() if k in schema.fields
                    },
                ),
                rows=sel,
                pos=pos,
            )
        )

    def _register_step(
        self,
        inst: InstalledInstance,
        i: int,
        keys,
        state: ColumnarState,
        sel: np.ndarray,
        pos: int,
        items: list,
        out: "str | None" = None,
    ) -> "tuple[_ChainCache, ColumnarState, np.ndarray, np.ndarray, np.ndarray, tuple]":
        """Operator ``i``'s register updates for one window, batched.

        The window's twin of :meth:`_update`. Rows that fault injection
        forces to overflow skip the chain (the per-packet path's draws,
        keyed by position). The other rows are grouped by key in first-
        occurrence order and the unique keys placed in the chain. Forced
        rows and rows whose key lost every array leave as one overflow
        batch in packet order, carrying the key columns and ``out`` (a
        reduce's per-row argument column).

        Returns ``(cache, live, live_sel, first_rows, inv, runs)``: the
        window's :class:`_ChainCache` reporting every inserted key, the
        rows that reached the chain (``live``, canonical for ``keys``, and
        their global rows) and :func:`~repro.exec.group_first_occurrence`'s
        first rows, inverse and ``(order, starts)`` runs over them.
        """
        injector = self.fault_injector
        forced = (
            None if injector is None
            else injector.force_overflow_mask(inst.key, i, len(sel))
        )
        if forced is not None and not forced.any():
            forced = None
        live, live_sel = state, sel
        if forced is not None:
            live, live_sel = state.select(~forced), sel[~forced]
        live = canonical_state(live, keys)
        unique, first_rows, inv, *runs = group_first_occurrence(live, keys, runs=True)
        chain = inst.chains[i]
        inserted, _array_idx = chain.bulk_load_vec(
            [unique[:, j] for j in range(len(keys))],
            [live.vocabs.get(k) for k in keys],
        )
        over = ~inserted[inv]
        if forced is not None:
            lost, over = over, forced.copy()
            over[~forced] = lost
        n_over = int(over.sum())
        chain.updates += len(sel)
        chain.overflows += n_over
        if n_over:
            inst.tuples_mirrored += n_over
            fields = keys if out is None else (*keys, out)
            items.append(
                MirroredBatch(
                    instance=inst.key,
                    kind="overflow",
                    op_index=i,
                    state=ColumnarState(
                        columns={k: state.columns[k][over] for k in fields},
                        vocabs={
                            k: v for k, v in state.vocabs.items() if k in keys
                        },
                    ),
                    rows=sel[over],
                    pos=pos,
                )
            )
        cache = _ChainCache(
            keys=tuple(keys),
            vocabs={k: v for k, v in live.vocabs.items() if k in keys},
            unique=unique,
            inserted=inserted,
            reported=inserted,
        )
        return cache, live, live_sel, first_rows, inv, runs

    def _batch_distinct(
        self,
        inst: InstalledInstance,
        op: Distinct,
        i: int,
        state: ColumnarState,
        sel: np.ndarray,
        pos: int,
        items: list,
        ops,
    ) -> "tuple[ColumnarState, np.ndarray] | None":
        keys = op.effective_keys(inst.compiled.schemas[i])
        cache, live, live_sel, first_rows, _inv, _runs = self._register_step(
            inst, i, keys, state, sel, pos, items
        )
        if i == len(ops) - 1:
            # Last operator: report each distinct key once at window end.
            inst.window_caches[i] = cache
            return None
        # Mid-chain: only the first packet of each inserted key continues,
        # carrying just the key fields (first_rows is ascending, so the
        # continuation stays in packet order for later stateful ops).
        cont = first_rows[cache.inserted]
        new_state = ColumnarState(
            columns={k: live.columns[k][cont] for k in keys},
            vocabs=dict(cache.vocabs),
        )
        return new_state, live_sel[cont]

    def _batch_reduce(
        self,
        inst: InstalledInstance,
        op: Reduce,
        i: int,
        state: ColumnarState,
        sel: np.ndarray,
        pos: int,
        items: list,
        schemas,
    ) -> None:
        func, args = reduce_args(op, state, schemas[i])
        # The argument rides along as the output column: the overflow
        # batch mirrors it, and forced rows drop out of it with the keys.
        state = ColumnarState({**state.columns, op.out: args}, state.vocabs)
        cache, live, _live_sel, _first_rows, inv, runs = self._register_step(
            inst, i, op.keys, state, sel, pos, items, out=op.out
        )
        values = None if func == "count" else live.columns[op.out]
        cache.finals = aggregate_groups(inv, values, len(cache.unique), func)
        cache.out_field = op.out
        folded = inst.folded_by_op.get(i)
        if folded is not None:
            # Folded threshold: a key is reported iff any of its running
            # (per-update) aggregates passes — first-crossing semantics.
            running = ColumnarState({op.out: running_groups(*runs, values, func)})
            passing = filter_mask(folded, running, None)
            passing &= cache.inserted[inv]
            cache.reported = np.zeros(len(cache.unique), dtype=bool)
            cache.reported[inv[passing]] = True
        inst.window_caches[i] = cache

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def end_window(
        self, poll: "Mapping[str, ColumnarState] | None" = None
    ) -> dict[str, list[MirroredTuple]]:
        """Close the window: emit per-key reports and reset registers.

        Row-materializing wrapper over :meth:`end_window_items` for the
        per-packet oracle; the batched engine consumes the columnar items
        directly.
        """
        return {
            key: item.materialize()
            for key, item in self.end_window_items(poll).items()
        }

    def _report_batch_from_cache(
        self,
        inst: InstalledInstance,
        cache: _ChainCache,
        last_idx: int,
        poll: "ColumnarState | None",
    ) -> MirroredBatch:
        """Key reports straight from the window cache, still columnar.

        Reproduces the per-packet path's order exactly: keys are sorted
        ascending like ``sorted(wanted)``; vocab columns sort by the rank
        of their value, not by raw id. Polled keys are matched against the
        cache's unique keys on canonical ids, vectorized.
        """
        wanted = cache.reported
        op_end = self._reported_op_end(inst, last_idx)
        if poll is not None:
            wanted = wanted | keys_in(cache.unique, cache.keys, cache.vocabs, poll)
            op_end = last_idx + 1  # before any folded filter
        sel_idx = np.flatnonzero(wanted & cache.inserted)
        order = sel_idx
        if len(sel_idx):
            cols = []
            for j in reversed(range(len(cache.keys))):
                col = cache.unique[sel_idx, j]
                vocab = cache.vocabs.get(cache.keys[j])
                if vocab is not None:
                    col = _value_ranks(col, vocab)
                cols.append(col)
            order = sel_idx[np.lexsort(cols)]
        columns: dict[str, np.ndarray] = {
            k: cache.unique[order, j] for j, k in enumerate(cache.keys)
        }
        if cache.out_field is not None and cache.finals is not None:
            columns[cache.out_field] = cache.finals[order]
        return MirroredBatch(
            instance=inst.key,
            kind="key_report",
            op_index=op_end,
            state=ColumnarState(columns=columns, vocabs=dict(cache.vocabs)),
        )

    def _report_batch_from_chain(
        self,
        inst: InstalledInstance,
        last_idx: int,
        poll: "ColumnarState | None",
    ) -> MirroredBatch:
        """Key reports of a chain the per-packet oracle loaded, each wanted
        key looked up in the chain, in ascending key order."""
        op = inst.compiled.subquery.operators[last_idx]
        keys = (
            op.keys
            if isinstance(op, Reduce)
            else op.effective_keys(inst.compiled.schemas[last_idx])
        )
        wanted = {key for op_i, key in inst.reported_keys if op_i == last_idx}
        op_end = self._reported_op_end(inst, last_idx)
        if poll is not None:
            wanted.update(
                tuple(row[k] for k in keys)
                for row in materialize_rows(poll, keys)
            )
            op_end = last_idx + 1  # before any folded filter
        chain = inst.chains[last_idx]
        out = []
        for key in sorted(wanted):
            value = chain.lookup(key)
            if value is None:
                continue
            fields = dict(zip(keys, key))
            if isinstance(op, Reduce):
                fields[op.out] = value
            out.append(
                MirroredTuple(
                    instance=inst.key, kind="key_report", fields=fields, op_index=op_end
                )
            )
        return MirroredBatch.from_tuples(inst.key, "key_report", op_end, out)

    def end_window_items(
        self, poll: "Mapping[str, ColumnarState] | None" = None
    ) -> dict[str, MirroredBatch]:
        """Close the window: emit per-key reports and reset registers.

        Returns, per installed instance, the ``key_report`` batch the
        emitter reads from the registers (final aggregates for reported
        keys; empty for stateless-last instances). Chains the batched path
        loaded report straight from their window cache; the per-packet
        oracle's chains are looked up key by key.

        ``poll`` maps instances that saw register overflow to the keys the
        §3.1.3 collision adjustment needs: the keys this window's overflow
        tuples reach at the last stateful operator. For those instances
        the report is the threshold-passing keys plus every polled key the
        register holds, polled *without* the folded-threshold gate, with
        ``op_index`` set to just after the stateful operator. The emitter
        merges these partial aggregates with the overflow tuples and then
        re-applies the threshold. A polled key the register lacks reports
        nothing.
        """
        poll = poll or {}
        reports: dict[str, MirroredBatch] = {}
        # Rebuilt from scratch so stats of uninstalled instances (e.g. a
        # raw-mirror fallback) don't linger and re-trigger signals.
        self.window_overflow_stats = {}
        for inst in self.instances.values():
            if inst.n_operators > 0 and inst.last_op_stateful:
                last_idx = max(inst.chains)
                cache = inst.window_caches.get(last_idx)
                if cache is not None:
                    batch = self._report_batch_from_cache(
                        inst, cache, last_idx, poll.get(inst.key)
                    )
                else:
                    batch = self._report_batch_from_chain(
                        inst, last_idx, poll.get(inst.key)
                    )
            else:
                batch = MirroredBatch.from_tuples(
                    inst.key, "key_report", inst.n_operators, []
                )
            n_out = batch.n_rows
            inst.tuples_mirrored += n_out
            self.tuples_mirrored += n_out
            reports[inst.key] = batch
            if n_out:
                self.obs.counter(
                    "sonata_key_reports_total",
                    "per-key register reports read at window end",
                ).inc(n_out, instance=inst.key)
            updates = overflows = 0
            for chain in inst.chains.values():
                window_updates, window_overflows = chain.take_window_stats()
                updates += window_updates
                overflows += window_overflows
                chain.reset()
            self.window_overflow_stats[inst.key] = (updates, overflows)
            inst.reported_keys.clear()
            inst.window_caches.clear()
            self.control_plane_seconds += self.config.register_reset_seconds
        return reports

    def _reported_op_end(self, inst: InstalledInstance, op_index: int) -> int:
        """Operators consumed by a key report (fold includes the filter)."""
        if op_index in inst.folded_by_op:
            return op_index + 2
        return op_index + 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resource_usage(self) -> dict[str, Any]:
        used = self._ledger().used
        return {
            "stages_used": sorted(used["stateless_actions_per_stage"]),
            "stateful_per_stage": used["stateful_actions_per_stage"],
            "register_bits_per_stage": used["register_bits_per_stage"],
            "tables_per_stage": used["stateless_actions_per_stage"],
            "metadata_bits": sum(
                inst.metadata_bits() for inst in self.instances.values()
            ),
            "parser_header_bits": self.parser.extracted_bits,
            "parse_depth": self.parser.parse_depth,
        }
