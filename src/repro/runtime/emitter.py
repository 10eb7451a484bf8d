"""The emitter: turns mirrored switch output into stream-processor batches.

In the paper the emitter is a process on the monitoring port that parses
mirrored packets with Scapy, keeps the output of stateful operators in a
local key-value store, and reads the data-plane registers at the end of
each window. Here the switch simulator already hands over structured
mirror output, so the emitter's remaining jobs are:

- buffering per-instance mirror output within the window — columnar
  :class:`~repro.switch.mirror.MirroredBatch` items from the batched
  engine (:meth:`Emitter.ingest_items`), or per-packet tuples from the
  ``engine="rowwise"`` oracle (:meth:`Emitter.ingest`);
- the §3.1.3 collision adjustment: tuples whose key overflowed all ``d``
  registers were mirrored raw. Before the switch closes the window the
  emitter replays them through the on-switch operators up to the last
  stateful one (:meth:`Emitter.overflow_instances`), and the switch
  polls, besides the threshold-passing keys, exactly the keys these
  partials reach, without the threshold gate. Registers never evict
  within a window, so every other key's register value is its whole
  window aggregate, one of its running values: if it passes the
  threshold, the gated report already holds the key. The emitter
  re-aggregates the union (a key's contributions can be split between
  the registers and the overflow stream) and re-applies the folded
  threshold, which yields what a poll of the whole register would. For
  batches this merge runs on the shared :mod:`repro.exec` kernels
  (:mod:`repro.streaming.batchops`) without materializing dict rows;
- counting each window's tuples (:attr:`EmitterBatch.tuples_sent`): the
  number of tuples crossing the emitter is the paper's headline load
  metric.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Mapping

from repro.core.operators import Distinct, Operator, Reduce
from repro.exec import ColumnarState, Row, concat_states, state_from_rows
from repro.obs import get_observability
from repro.planner.plans import InstancePlan
from repro.streaming.batchops import apply_operator_state, apply_operators_state
from repro.streaming.rowops import apply_operator, apply_operators
from repro.switch.mirror import MirroredBatch, MirroredTuple


@dataclass
class EmitterBatch:
    """Per-instance tuples delivered to the stream processor for a window.

    Exactly one representation is populated: ``state`` (columnar, the
    batched engine) or ``rows`` (per-tuple, the rowwise oracle). Both
    stand for the same tuples in the same order.
    """

    rows: list[Row] = field(default_factory=list)
    tuples_sent: int = 0  # tuples that crossed the switch -> SP boundary
    state: "ColumnarState | None" = None


class Emitter:
    """Per-window buffering, overflow adjustment and tuple accounting."""

    def __init__(self, instances: Mapping[str, InstancePlan], obs=None) -> None:
        self._instances = dict(instances)
        self._stream: dict[str, list[Row]] = defaultdict(list)
        self._overflow: dict[str, dict[int, list[Row]]] = defaultdict(
            lambda: defaultdict(list)
        )
        #: Batched-engine buffers: per instance, its window's batches.
        self._batches: dict[str, list[MirroredBatch]] = defaultdict(list)
        #: Per instance, its window's overflow replayed to the merge level
        #: (see :meth:`_replayed`).
        self._partials: dict[str, "ColumnarState | list[Row]"] = {}
        self.obs = obs if obs is not None else get_observability()
        self._m_tuples = self.obs.counter(
            "sonata_emitter_tuples_total",
            "tuples crossing the emitter, per instance and kind",
        )
        self._m_overflow_merges = self.obs.counter(
            "sonata_emitter_overflow_merges_total",
            "windows in which an instance needed the collision adjustment",
        )
        self._m_polled_keys = self.obs.counter(
            "sonata_emitter_polled_keys_total",
            "register keys the collision adjustment polled without the gate",
        )

    def ingest(self, mirrored: list[MirroredTuple]) -> None:
        """Consume per-packet mirrored tuples (the rowwise oracle)."""
        for m in mirrored:
            if m.kind == "stream":
                self._stream[m.instance].append(m.fields)
            elif m.kind == "overflow":
                self._overflow[m.instance][m.op_index].append(m.fields)
            else:  # pragma: no cover - key reports arrive via end_window
                raise ValueError(f"unexpected mirrored kind {m.kind}")

    def ingest_items(self, items: list[MirroredBatch]) -> None:
        """Consume one window's columnar mirror output (the batched engine)."""
        for item in items:
            if item.kind not in ("stream", "overflow"):
                raise ValueError(f"unexpected mirrored kind {item.kind}")
            if item.n_rows:
                self._batches[item.instance].append(item)

    def overflow_instances(
        self, tables: Mapping[str, set] | None = None
    ) -> dict[str, ColumnarState]:
        """Keys the switch must poll without the threshold gate this window.

        Returns, for every instance that saw overflow, the distinct key
        columns its overflow tuples reach at the last stateful on-switch
        operator (:func:`poll_keys`): the keys whose register aggregate
        the collision adjustment needs. The replayed partials are kept for
        :meth:`end_window`, which must get the same ``tables``.
        """
        poll: dict[str, ColumnarState] = {}
        for key in self._overflowing():
            partials = self._replayed(key, tables)
            keys = poll_keys(self._instances[key])
            if isinstance(partials, list):
                poll[key] = state_from_rows(
                    apply_operator(partials, Distinct(keys=keys)), order=keys
                )
            else:
                poll[key] = apply_operator_state(partials, Distinct(keys=keys))
            self._m_polled_keys.inc(poll[key].n_rows, instance=key)
        return poll

    def _overflowing(self) -> list[str]:
        """Planned instances with overflow tuples this window."""
        keys = [key for key, buckets in self._overflow.items() if buckets]
        keys += [
            key
            for key, batches in self._batches.items()
            if any(b.kind == "overflow" for b in batches)
        ]
        return [key for key in dict.fromkeys(keys) if key in self._instances]

    def _replayed(
        self, key: str, tables: Mapping[str, set] | None
    ) -> "ColumnarState | list[Row]":
        """The instance's overflow replayed, in operator order, through the
        on-switch operators before the merge level; computed once a window.

        Batches replay on the shared kernels, per-packet buckets on
        :mod:`repro.streaming.rowops` (the reference semantics).
        """
        if key in self._partials:
            return self._partials[key]
        plan = self._instances[key]
        ops = plan.augmented.resolved_operators
        level, _remerge = overflow_merge_policy(plan)
        partials: "ColumnarState | list[Row]"
        if key in self._batches:
            overflow = sorted(
                (b for b in self._batches[key] if b.kind == "overflow"),
                key=lambda b: b.op_index,
            )
            partials = concat_states(
                [
                    apply_operators_state(
                        b.state, list(ops[b.op_index : level]), tables
                    )
                    for b in overflow
                ]
            )
        else:
            partials = []
            for op_index, pending in sorted(self._overflow[key].items()):
                partials.extend(
                    apply_operators(pending, list(ops[op_index:level]), tables)
                )
        self._partials[key] = partials
        return partials

    def end_window(
        self,
        key_reports: "Mapping[str, MirroredBatch | list[MirroredTuple]]",
        tables: Mapping[str, set] | None = None,
    ) -> dict[str, EmitterBatch]:
        """Assemble the final per-instance batches for the closing window.

        An instance with batch input (mirror batches or a batch key
        report) is assembled columnar; per-packet ingest and tuple-list
        key reports are assembled on the row path. The batches of one
        instance must share a schema: a conflict raises ``ValueError``.
        """
        batches: dict[str, EmitterBatch] = {}
        keys = (
            set(self._stream)
            | set(self._overflow)
            | set(self._batches)
            | set(key_reports)
        )
        for key in keys:
            plan = self._instances.get(key)
            report = key_reports.get(key, [])
            if isinstance(report, MirroredBatch) or key in self._batches:
                batch = self._assemble_columnar(key, plan, report, tables)
            else:
                batch = self._assemble_rows(key, plan, report, tables)
            batches[key] = batch
            self._m_tuples.inc(batch.tuples_sent, instance=key)

        self._stream.clear()
        self._overflow.clear()
        self._batches.clear()
        self._partials.clear()
        return batches

    # -- columnar assembly (batched engine) -------------------------------
    def _assemble_columnar(
        self,
        key: str,
        plan: "InstancePlan | None",
        report: "MirroredBatch | list",
        tables: Mapping[str, set] | None,
    ) -> EmitterBatch:
        parts = self._batches.get(key, [])
        report_batch = (
            report if isinstance(report, MirroredBatch) and report.n_rows else None
        )
        n_reports = report_batch.n_rows if report_batch is not None else 0
        stream_states = [b.state for b in parts if b.kind == "stream"]
        merged: ColumnarState | None = None
        if any(b.kind == "overflow" for b in parts) and plan is not None:
            merged = self._merge_overflow_columnar(
                plan, report_batch, self._replayed(key, tables), tables
            )
            self._m_overflow_merges.inc(instance=key)
        elif report_batch is not None:
            merged = report_batch.state
        states = stream_states + ([merged] if merged is not None else [])
        return EmitterBatch(
            state=concat_states(states),
            tuples_sent=n_reports + sum(b.n_rows for b in parts),
        )

    def _merge_overflow_columnar(
        self,
        plan: InstancePlan,
        report_batch: "MirroredBatch | None",
        partials: ColumnarState,
        tables: Mapping[str, set] | None,
    ) -> ColumnarState:
        """Columnar twin of :meth:`_merge_overflow` on the shared kernels."""
        ops = plan.augmented.resolved_operators
        level, remerge = overflow_merge_policy(plan)
        base = [] if report_batch is None else [report_batch.state]
        merged = concat_states(base + [partials])
        if remerge is None:
            return merged
        merged = apply_operator_state(merged, remerge, tables)
        return apply_operators_state(merged, list(ops[level : plan.cut]), tables)

    # -- row assembly (reference semantics) --------------------------------
    def _assemble_rows(
        self,
        key: str,
        plan: "InstancePlan | None",
        reports: list[MirroredTuple],
        tables: Mapping[str, set] | None,
    ) -> EmitterBatch:
        stream_rows = self._stream.get(key, [])
        buckets = self._overflow.get(key, {})
        sent = (
            len(reports)
            + len(stream_rows)
            + sum(len(rows) for rows in buckets.values())
        )
        if buckets and plan is not None:
            rows = self._merge_overflow(
                plan, reports, self._replayed(key, tables), tables
            )
            self._m_overflow_merges.inc(instance=key)
        else:
            rows = [m.fields for m in reports]
        return EmitterBatch(rows=stream_rows + rows, tuples_sent=sent)

    def _merge_overflow(
        self,
        plan: InstancePlan,
        reports: list[MirroredTuple],
        partials: list[Row],
        tables: Mapping[str, set] | None,
    ) -> list[Row]:
        """Union key reports and replayed overflow, re-aggregate, re-filter.

        See :func:`overflow_merge_policy`.
        """
        ops = plan.augmented.resolved_operators
        level, remerge = overflow_merge_policy(plan)
        merged: list[Row] = [m.fields for m in reports] + partials
        if remerge is None:
            return merged
        merged = apply_operator(merged, remerge, tables)
        return apply_operators(merged, list(ops[level : plan.cut]), tables)


def overflow_merge_policy(plan: InstancePlan) -> "tuple[int, Operator | None]":
    """Where and how the collision adjustment merges an instance's overflow.

    Returns ``(level, remerge)``. The register reports arrive with
    ``op_index`` just after the last stateful on-switch operator
    (``level - 1``), before the folded threshold; overflow is replayed
    through the operators before ``level`` and unioned with them,
    ``remerge`` re-aggregates the union (contributions for one key can be
    split across the two paths), and the remaining on-switch operators
    (the folded threshold) run last. Without a stateful prefix ``level``
    is the cut and ``remerge`` is ``None``: the replayed overflow is
    simply appended.
    """
    ops = plan.augmented.resolved_operators
    stateful = [i for i, op in enumerate(ops[: plan.cut]) if op.stateful]
    if not stateful:
        return plan.cut, None
    return stateful[-1] + 1, partial_remerge(ops[stateful[-1]])


def poll_keys(plan: InstancePlan) -> tuple[str, ...]:
    """Key columns of the last stateful on-switch operator, which the
    collision adjustment polls and merges on."""
    level, _remerge = overflow_merge_policy(plan)
    op = plan.augmented.resolved_operators[level - 1]
    if isinstance(op, Reduce):
        return op.keys
    return op.effective_keys(plan.compiled.schemas[level - 1])


def partial_remerge(op: Operator) -> Operator:
    """The operator that re-aggregates partial outputs of stateful ``op``.

    Partial counts sum; other reduce functions re-apply themselves to
    the partial aggregates. A distinct re-applies itself keyless, which
    both interpreters expand to every column.
    """
    if isinstance(op, Reduce):
        return Reduce(
            keys=op.keys,
            func=op.func if op.func != "count" else "sum",
            value_field=op.out,
            out=op.out,
        )
    return Distinct()
