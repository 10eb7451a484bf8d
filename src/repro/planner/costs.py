"""Trace-driven cost estimation for the query planner (§3.3, Figure 5).

For every query, refinement transition ``r_prev -> r`` and candidate cut,
the estimator replays training windows through the columnar engine and
records:

- ``N`` — tuples that would reach the stream processor (median/window);
- ``B`` — register bits each stateful table needs (from the sized
  :class:`RegisterSpec`, which in turn comes from the median key count);
- relaxed thresholds per refinement level (§4.1: the minimum aggregated
  count over keys that satisfy the original query, floored at the original
  threshold so an empty training window can never relax below it);
- the level-``r`` output keys per window, which feed the refinement filter
  of the next-finer level in the following window (pipelined execution).

Each (sub-query, level) chain reads each training window once, and every
transition into that level is priced from that one run:

1. the finest level first, with the original thresholds. Its root
   transition ``* -> finest`` reads no filter table, so the join of its
   leaves is the query's output: the ground truth;
2. then each coarse level, coarsest first, without bounds. The chain runs
   up to its first filter holding a threshold. From that state, the rest
   of the chain without its thresholds gives each threshold field's
   minimum over the coarsened ground-truth keys (§4.1), and the root
   transition ``* -> r`` continues with the relaxed thresholds. The join
   of its leaves gives the level-``r`` output keys;
3. the filtered transitions ``r_prev -> r`` run no chain. Their chain is
   the level-``r`` root chain behind the filter ``key/r_prev ∈ table``.
   A refined chain keeps its refinement key in every operator's output,
   and ``key/r_prev`` is a function of ``key/r``, so that filter commutes
   with every operator: a filter keeps or drops rows, a map keeps each
   row and its key (coarsened to ``r``), and a reduce or a distinct keeps
   or drops whole groups of one key. Each operator's output behind the
   filter is therefore the root run's output rows whose key passes it.
   The estimator keeps the distinct key values of each operator's output
   with their row counts (a map shares its input's: it keeps every row),
   evaluates the filter once per value with the filter's own kernel and
   sums. The packets' key counts price the table filter itself. The
   precondition is checked, not assumed: a non-empty table and an
   operator whose output lacks the key raise :class:`PlanningError`.

A level's key counts live until its filtered transitions are priced; the
finest level's live until every coarse level's output keys exist. Nothing
is cached across queries.

A key invariant makes per-transition estimation sound: with relaxed
thresholds, a query's output at level ``r`` is the same whether or not its
input was pre-filtered by a coarser level's output — coarse levels only
discard traffic whose finer keys could not satisfy the query anyway.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.analytics import apply_chain
from repro.core.errors import PlanningError
from repro.core.fields import FIELDS, coarsen_value
from repro.core.operators import (
    Filter, Map, Operator, Schema, aggregate_predicates, chain_read_fields, chain_schemas,
)
from repro.core.query import Query, SubQuery
from repro.exec import ColumnarState, predicate_mask
from repro.exec.columns import column_set, column_values
from repro.packets.trace import Trace
from repro.planner.collisions import chain_overflow_rate, size_register
from repro.planner.plans import InstancePlan
from repro.planner.refinement import (
    ROOT_LEVEL,
    RefinementSpec,
    augmented_subquery,
    can_coarsen,
    choose_refinement_spec,
    filter_table_name,
    rewrite_thresholds,
    trailing_threshold_fields,
)
from repro.streaming.batchops import assemble_join_tree
from repro.switch.compiler import CompiledSubQuery, compile_subquery
from repro.switch.config import SwitchConfig
from repro.switch.tables import LogicalTable


def _median(values: list[float]) -> float:
    if not values:
        return 0.0
    return float(statistics.median(values))


@dataclass
class CutCost:
    """Cost of cutting one sub-query instance after ``cut`` operators."""

    cut: int
    n_tuples: float  # median tuples/window sent to the stream processor
    metadata_bits: int


@dataclass
class TransitionCosts:
    """Costs for one (sub-query, r_prev -> r) instance."""

    qid: int
    subid: int
    r_prev: int
    r_level: int
    augmented: SubQuery
    compiled: CompiledSubQuery
    cuts: list[CutCost]
    #: Sized tables for the full compilable prefix (registers included).
    sized_tables: list[LogicalTable]
    #: Median unique keys per stateful operator index.
    key_estimates: dict[int, int]

    def cut_options(self) -> list[int]:
        return [c.cut for c in self.cuts]

    def cost_of(self, cut: int) -> CutCost:
        for c in self.cuts:
            if c.cut == cut:
                return c
        raise PlanningError(f"no such cut {cut} for {self.augmented.name}")

    def tables_for_cut(self, cut: int) -> list[LogicalTable]:
        names = {t.name for t in self.compiled.tables_for_partition(cut)}
        return [t for t in self.sized_tables if t.name in names]

    def instance_plan(
        self, cut: int, stage_assignment: dict[str, int] | None
    ) -> InstancePlan:
        """This instance cut after ``cut`` operators, its tables at
        ``stage_assignment``."""
        return InstancePlan(
            qid=self.qid,
            subid=self.subid,
            r_prev=self.r_prev,
            r_level=self.r_level,
            cut=cut,
            augmented=self.augmented,
            compiled=self.compiled,
            tables=self.tables_for_cut(cut),
            stage_assignment=stage_assignment,
            residual_ops=self.compiled.residual_operators(cut),
            est_tuples=self.cost_of(cut).n_tuples,
            read_filter_table=(
                filter_table_name(self.qid, self.r_prev)
                if self.r_prev != ROOT_LEVEL
                else None
            ),
        )


@dataclass
class QueryCosts:
    """All estimator outputs for one query."""

    query: Query
    spec: RefinementSpec | None
    relaxed_thresholds: dict[tuple[int, int], dict[str, int]]  # (subid, level)
    transitions: dict[tuple[int, int], dict[int, TransitionCosts]]
    window_packets: float
    output_keys_per_level: dict[int, float]  # median |output| at each level

    @property
    def levels(self) -> tuple[int, ...]:
        if self.spec is None:
            return (self.native_level,)
        return self.spec.levels

    @property
    def native_level(self) -> int:
        if self.spec is None:
            return 32
        return self.spec.finest


@dataclass
class _KeyCounts:
    """One column's distinct refinement-key values, and how many rows hold
    each."""

    values: ColumnarState
    counts: np.ndarray

    @staticmethod
    def of(state: ColumnarState, key: str) -> "_KeyCounts | None":
        column = state.columns.get(key)
        if column is None:
            return None
        values, counts = np.unique(column, return_counts=True)
        vocabs = {key: state.vocabs[key]} if key in state.vocabs else {}
        return _KeyCounts(ColumnarState({key: values}, vocabs), counts)

    def passing(self, table_filter: Filter, tables: Mapping[str, set]) -> int:
        """Rows whose key passes ``table_filter``."""
        keep = predicate_mask(table_filter.predicates[0], self.values, tables)
        return int(self.counts[keep].sum())


def _continue(
    ops: tuple[Operator, ...],
    state: ColumnarState,
    schema: Schema,
    key: str | None,
    rows: list[int],
    counts: list[_KeyCounts | None],
) -> ColumnarState:
    """Apply ``ops`` from ``state``, appending each operator's rows out and,
    if ``key`` is set, its output's key counts; returns the last state."""
    for op, out in zip(ops, apply_chain(ops, state, schema)):
        rows.append(out.n_rows)
        if key:
            # A map keeps every row, as does a filter that returns its input.
            kept = out is state or isinstance(op, Map)
            counts.append(counts[-1] if kept else _KeyCounts.of(out, key))
        state = out
    return state


@dataclass
class _LevelRun:
    """One sub-query's root chain at one level, run once per window."""

    sq: SubQuery
    root: TransitionCosts
    packets_in: list[float]
    #: The root chain's output per window, until the join reads it.
    outputs: list[ColumnarState]
    #: Per window: the packets' key counts, then each operator output's
    #: (empty at the coarsest level, which no transition filters into).
    key_counts: list[list[_KeyCounts | None]]


class CostEstimator:
    """Estimates planning inputs for a set of queries over a training trace."""

    def __init__(
        self,
        queries: list[Query],
        training_trace: Trace,
        config: SwitchConfig | None = None,
        window: float | None = None,
        max_levels: int = 8,
        refinement_specs: dict[int, RefinementSpec | None] | None = None,
        relax_thresholds: bool = True,
    ) -> None:
        self.queries = queries
        self.trace = training_trace
        self.config = config or SwitchConfig.paper_default()
        self.window = window if window is not None else (
            queries[0].window if queries else 3.0
        )
        self.max_levels = max_levels
        self.relax_thresholds = relax_thresholds
        self._specs = refinement_specs or {}
        self._windows: list[Trace] | None = None
        #: (sub-query, level, window) chains run, and transitions priced
        #: from another transition's run.
        self.chain_runs = 0
        self.derived_transitions = 0

    # -- window handling ---------------------------------------------------
    def windows(self) -> list[Trace]:
        if self._windows is None:
            self._windows = [w for _, w in self.trace.windows(self.window)]
            if not self._windows:
                raise PlanningError("training trace is empty")
        return self._windows

    def spec_for(self, query: Query) -> RefinementSpec | None:
        if query.qid in self._specs:
            return self._specs[query.qid]
        return choose_refinement_spec(query, max_levels=self.max_levels)

    # -- main entry ----------------------------------------------------------
    def estimate(self) -> dict[int, QueryCosts]:
        return {query.qid: self.estimate_query(query) for query in self.queries}

    def estimate_query(self, query: Query) -> QueryCosts:
        spec = self.spec_for(query)
        levels = spec.levels if spec is not None else (32,)
        pairs = spec.transitions() if spec is not None else [(ROOT_LEVEL, 32)]
        transitions: dict[tuple[int, int], dict[int, TransitionCosts]] = {
            pair: {} for pair in pairs
        }
        # The finest level keeps the original thresholds, so its output is
        # the ground truth. Disabling relaxation (an ablation) keeps them at
        # every level — always correct, but coarse levels prune less (§4.1).
        relaxed = {
            (sq.subid, level): thresholds
            for sq in query.subqueries
            if spec is not None
            and self.relax_thresholds
            and (thresholds := trailing_threshold_fields(sq))
            for level in levels
        }
        feed_keys: dict[int, list[set]] = {}
        finest: dict[int, _LevelRun] = {}
        for level in levels[-1:] + levels[:-1]:
            # A sub-query inactive at a coarse level leaves the stateful
            # side of the join to drive refinement alone (Figure 9).
            runs = {
                sq.subid: self._run_level(
                    sq, spec, level, relaxed, feed_keys.get(levels[-1])
                )
                for sq in query.subqueries
                if spec is None or can_coarsen(sq, spec, level)
            }
            for subid, run in runs.items():
                transitions[(ROOT_LEVEL, level)][subid] = run.root
            feed_keys[level] = self._output_keys(query, spec, runs)
            if level == levels[-1]:
                finest = runs
            else:
                self._price_filtered(
                    spec, level, runs, relaxed, feed_keys, transitions
                )
        if spec is not None:
            self._price_filtered(
                spec, levels[-1], finest, relaxed, feed_keys, transitions
            )

        return QueryCosts(
            query=query,
            spec=spec,
            relaxed_thresholds=relaxed,
            transitions=transitions,
            window_packets=_median([float(len(w)) for w in self.windows()]),
            output_keys_per_level={
                level: _median([float(len(k)) for k in feed_keys[level]])
                for level in levels
            },
        )

    # -- pieces ---------------------------------------------------------------
    def _run_level(
        self,
        sq: SubQuery,
        spec: RefinementSpec | None,
        level: int,
        relaxed: dict[tuple[int, int], dict[str, int]],
        truth: list[set] | None,
    ) -> _LevelRun:
        """Run ``sq``'s root chain ``* -> level`` once per window.

        At a coarse level with thresholds to relax, the run stops at the
        first filter holding a threshold; the rest of the chain without
        its thresholds yields the minima (§4.1), which set
        ``relaxed[(sq.subid, level)]`` before the root chain continues.
        """
        thresholds = relaxed.get((sq.subid, level))
        if spec is None:
            root = sq
        else:
            root = augmented_subquery(sq, spec, ROOT_LEVEL, level, thresholds)
        ops = root.operators
        schemas = chain_schemas(ops, sq.registry)
        read = set(chain_read_fields(ops, schemas))
        split = len(ops)
        satisfied: list[set] = []
        if thresholds and level != spec.finest:
            field = FIELDS.get(spec.key_field)
            satisfied = [
                {coarsen_value(field, key, level) for key in keys} for keys in truth
            ]
        relax = any(satisfied)
        if relax:
            stripped = augmented_subquery(
                replace(
                    sq,
                    name=f"{sq.name}.relax",
                    operators=rewrite_thresholds(sq.operators, None, bounds=False),
                ),
                spec,
                ROOT_LEVEL,
                level,
            )
            stripped_schemas = chain_schemas(stripped.operators, sq.registry)
            read |= chain_read_fields(stripped.operators, stripped_schemas)
            split = min(
                i for (i, _), threshold in aggregate_predicates(ops).items() if threshold
            )
            minima: dict[str, list[int]] = {fld: [] for fld in thresholds}
        key = spec.key_field if spec is not None and level != spec.levels[0] else None

        packets_in: list[float] = []
        rows_out: list[list[int]] = []
        key_counts: list[list[_KeyCounts | None]] = []
        held: list[ColumnarState] = []
        for w_index, window in enumerate(self.windows()):
            self.chain_runs += 1
            packets = ColumnarState.from_trace(window, sq.registry)
            packets_in.append(float(packets.n_rows))
            counts = [_KeyCounts.of(packets, key)] if key else []
            rows: list[int] = []
            state = _continue(
                ops[:split], packets.project(read), schemas[0], key, rows, counts
            )
            if relax and satisfied[w_index]:
                final = _continue(
                    stripped.operators[split:], state, stripped_schemas[split],
                    None, [], [],
                )
                self._add_minima(
                    final,
                    stripped_schemas[-1].fields,
                    spec.key_field,
                    satisfied[w_index],
                    minima,
                )
            held.append(state)
            rows_out.append(rows)
            key_counts.append(counts)

        if relax:
            relaxed[(sq.subid, level)] = {
                fld: max(value, min(minima[fld]) - 1) if minima[fld] else value
                for fld, value in thresholds.items()
            }
            root = augmented_subquery(
                sq, spec, ROOT_LEVEL, level, relaxed[(sq.subid, level)]
            )
            ops = root.operators
        outputs = [
            _continue(
                ops[split:], state, schemas[split], key,
                rows_out[w_index], key_counts[w_index],
            )
            for w_index, state in enumerate(held)
        ]
        return _LevelRun(
            sq=sq,
            root=self._price(root, ROOT_LEVEL, level, packets_in, rows_out),
            packets_in=packets_in,
            outputs=outputs,
            key_counts=key_counts,
        )

    @staticmethod
    def _add_minima(
        state: ColumnarState,
        fields: Sequence[str],
        key_field: str,
        keys: set,
        minima: dict[str, list[int]],
    ) -> None:
        """Append each threshold field's minimum over ``keys`` in one
        window's un-thresholded output ``state`` (with output ``fields``);
        a key repeated in the output reads its last row."""
        present = [fld for fld in minima if fld in fields]
        if not present or not state.n_rows:
            return
        key_values = column_values(state, key_field)
        for fld in present:
            counts = dict(zip(key_values, column_values(state, fld)))
            found = [counts[k] for k in keys if counts.get(k) is not None]
            if found:
                minima[fld].append(min(found))

    def _output_keys(
        self,
        query: Query,
        spec: RefinementSpec | None,
        runs: dict[int, _LevelRun],
    ) -> list[set]:
        """The keys of the joined root-transition output (whole rows when
        the query has no refinement key), per window."""
        outputs = [
            assemble_join_tree(
                query.join_tree,
                {subid: run.outputs[w_index] for subid, run in runs.items()},
            )
            or ColumnarState(columns={})
            for w_index in range(len(self.windows()))
        ]
        for run in runs.values():
            run.outputs = []
        if spec is None:  # whole rows, as tuples of their values
            return [set(zip(*(column_values(o, n) for n in o.columns))) for o in outputs]
        return [column_set(out, spec.key_field) for out in outputs]

    def _price_filtered(
        self,
        spec: RefinementSpec,
        level: int,
        runs: dict[int, _LevelRun],
        relaxed: dict[tuple[int, int], dict[str, int]],
        feed_keys: dict[int, list[set]],
        transitions: dict[tuple[int, int], dict[int, TransitionCosts]],
    ) -> None:
        """Price every ``r_prev -> level`` from the level's root runs (see
        the module docstring), then drop their key counts."""
        for r_prev in spec.levels[: spec.levels.index(level)]:
            for subid, run in runs.items():
                augmented = augmented_subquery(
                    run.sq, spec, r_prev, level, relaxed.get((subid, level))
                )
                table_filter = augmented.operators[0]
                name = filter_table_name(run.sq.qid, r_prev)
                rows_out = []
                for w_index, counts in enumerate(run.key_counts):
                    table = feed_keys[r_prev][max(w_index - 1, 0)]
                    passing: dict[int, int] = {}  # by id: maps share counts
                    for op, column in zip(augmented.operators, counts):
                        if column is None and table:
                            raise PlanningError(
                                f"{augmented.name}: {op.describe()} drops the "
                                f"refinement key {spec.key_field}, so its "
                                "filtered transitions cannot be priced"
                            )
                        if id(column) not in passing:
                            passing[id(column)] = (
                                column.passing(table_filter, {name: table})
                                if column is not None
                                else 0
                            )
                    rows_out.append([passing[id(column)] for column in counts])
                transitions[(r_prev, level)][subid] = self._price(
                    augmented, r_prev, level, run.packets_in, rows_out
                )
                self.derived_transitions += 1
        for run in runs.values():
            run.key_counts = []

    def _price(
        self,
        augmented: SubQuery,
        r_prev: int,
        r_level: int,
        packets_in: list[float],
        rows_out: list[list[int]],
    ) -> TransitionCosts:
        """Cost one instance from its rows out of each operator, per
        window."""
        compiled = compile_subquery(augmented)
        rows_after_op = {
            op_index: [float(rows[op_index]) for rows in rows_out]
            for op_index in range(len(augmented.operators))
        }
        key_estimates = {
            op_index: int(round(_median(rows_after_op[op_index]))) or 1
            for op_index, op in enumerate(augmented.operators)
            if op.stateful
        }

        # Size registers once per stateful table from the key estimates,
        # and add the expected extra tuples due to register overflow (§3.3:
        # the ILP "considers both the number of additional packets processed
        # by the stream processor and the additional switch memory"). Every
        # packet of an overflowed key is mirrored, so the expected overflow
        # load of a stateful operator is its overflow *rate* times the
        # packets entering it.
        sized: list[LogicalTable] = []
        overflow_by_op: dict[int, float] = {}
        for table in compiled.tables:
            if not table.stateful or table.register is None:
                sized.append(table)
                continue
            op_index = table.operator_index
            keys = key_estimates.get(op_index, 1)
            register = size_register(
                name=table.register.name,
                estimated_keys=keys,
                key_bits=table.register.key_bits,
                value_bits=table.register.value_bits,
                config=self.config,
            )
            sized.append(table.sized(register))
            rate = chain_overflow_rate(register.n_slots, keys, register.d)
            rows_in = _median(rows_after_op.get(op_index - 1, packets_in))
            overflow_by_op[op_index] = rate * rows_in

        cuts: list[CutCost] = []
        for cut in compiled.partition_points():
            if cut == 0:
                n_tuples = _median(packets_in)
            else:
                n_tuples = _median(rows_after_op.get(cut - 1, [0.0]))
                n_tuples += sum(
                    extra for op_i, extra in overflow_by_op.items() if op_i < cut
                )
            cuts.append(
                CutCost(
                    cut=cut,
                    n_tuples=n_tuples,
                    metadata_bits=compiled.metadata_bits(cut),
                )
            )

        return TransitionCosts(
            qid=augmented.qid,
            subid=augmented.subid,
            r_prev=r_prev,
            r_level=r_level,
            augmented=augmented,
            compiled=compiled,
            cuts=cuts,
            sized_tables=sized,
            key_estimates=key_estimates,
        )
