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

Every operator chain runs once per training window, in this order:

1. the root transitions ``* -> finest``, with the original thresholds. A
   root transition reads no filter table, so the join of its leaves is the
   query's output; at the finest level it is the ground truth;
2. per (sub-query, coarse level), the chain stripped of its trailing
   thresholds; every threshold field's minimum comes from the same rows;
3. the coarse root transitions ``* -> r``, with relaxed thresholds; their
   join gives the level-``r`` output keys;
4. the filtered transitions ``r_prev -> r``.

A key invariant makes per-transition estimation sound: with relaxed
thresholds, a query's output at level ``r`` is the same whether or not its
input was pre-filtered by a coarser level's output — coarse levels only
discard traffic whose finer keys could not satisfy the query anyway.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, replace

from repro.analytics import ColumnarResult, execute_subquery
from repro.core.errors import PlanningError
from repro.core.fields import FIELDS, coarsen_value
from repro.core.query import Query, SubQuery
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
    trailing_threshold_fields,
    without_thresholds,
)
from repro.streaming.rowops import assemble_join_tree
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
        chain_depth: int | None = None,
        relax_thresholds: bool = True,
    ) -> None:
        self.queries = queries
        self.trace = training_trace
        self.config = config or SwitchConfig.paper_default()
        self.window = window if window is not None else (
            queries[0].window if queries else 3.0
        )
        self.max_levels = max_levels
        self.chain_depth = chain_depth
        self.relax_thresholds = relax_thresholds
        self._specs = refinement_specs or {}
        self._windows: list[Trace] | None = None

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
        windows = self.windows()
        window_packets = _median([float(len(w)) for w in windows])

        native = spec.finest if spec is not None else 32
        levels = spec.levels if spec is not None else (native,)
        pairs = (
            spec.transitions() if spec is not None else [(ROOT_LEVEL, native)]
        )
        transitions: dict[tuple[int, int], dict[int, TransitionCosts]] = {
            pair: {} for pair in pairs
        }

        # 1. The root transition to the finest level. It runs with the
        #    original thresholds, so its output is the ground truth.
        #    Disabling relaxation (an ablation) keeps the original
        #    thresholds at every level — always correct, but coarse levels
        #    prune less (§4.1).
        original = {
            (sq.subid, level): thresholds
            for sq in query.subqueries
            if spec is not None and (thresholds := trailing_threshold_fields(sq))
            for level in levels
        }
        relaxed = original if self.relax_thresholds else {}
        feed_keys = {
            native: self._root_keys(query, spec, native, relaxed, transitions)
        }

        # 2. Relaxed thresholds per (subid, level), from the ground truth.
        if self.relax_thresholds and original:
            relaxed = self._relax_thresholds(query, spec, original, feed_keys[native])

        # 3. The coarse root transitions, with relaxed thresholds. Their
        #    output keys feed the next-finer level's filter table.
        for level in levels[:-1]:
            feed_keys[level] = self._root_keys(
                query, spec, level, relaxed, transitions
            )

        # 4. The filtered transitions r_prev -> r.
        for r_prev, r_level in pairs:
            if r_prev == ROOT_LEVEL:
                continue
            for sq in query.subqueries:
                if can_coarsen(sq, spec, r_level):
                    transitions[(r_prev, r_level)][sq.subid], _ = self._transition_costs(
                        sq, spec, r_prev, r_level, relaxed, feed_keys
                    )

        return QueryCosts(
            query=query,
            spec=spec,
            relaxed_thresholds=relaxed,
            transitions=transitions,
            window_packets=window_packets,
            output_keys_per_level={
                level: _median([float(len(k)) for k in feed_keys[level]])
                for level in levels
            },
        )

    # -- pieces ---------------------------------------------------------------
    def _root_keys(
        self,
        query: Query,
        spec: RefinementSpec | None,
        level: int,
        relaxed: dict[tuple[int, int], dict[str, int]],
        transitions: dict[tuple[int, int], dict[int, TransitionCosts]],
    ) -> list[set]:
        """Cost the root transitions ``* -> level`` into ``transitions``;
        return the keys of their joined output (whole rows when the query
        has no refinement key), per window."""
        leaves: list[dict[int, list]] = [{} for _ in self.windows()]
        for sq in query.subqueries:
            if spec is not None and not can_coarsen(sq, spec, level):
                # Inactive at this (coarse) level: the stateful side
                # of the join drives refinement alone (Figure 9).
                continue
            costs, results = self._transition_costs(
                sq, spec, ROOT_LEVEL, level, relaxed, {}
            )
            transitions[(ROOT_LEVEL, level)][sq.subid] = costs
            for leaf, result in zip(leaves, results):
                leaf[sq.subid] = result.rows()
        outputs = [assemble_join_tree(query.join_tree, leaf) or [] for leaf in leaves]
        if spec is None:
            return [{tuple(sorted(r.items())) for r in rows} for rows in outputs]
        key = spec.key_field
        return [{row[key] for row in rows if key in row} for rows in outputs]

    def _relax_thresholds(
        self,
        query: Query,
        spec: RefinementSpec,
        original: dict[tuple[int, int], dict[str, int]],
        truth: list[set],
    ) -> dict[tuple[int, int], dict[str, int]]:
        """Relaxed thresholds per (subid, level); §4.1.

        At each coarse level, the sub-query runs once per window without its
        trailing thresholds; each threshold relaxes to its minimum over the
        coarsened ground-truth keys ``truth``.
        """
        key_field = spec.key_field
        field = FIELDS.get(key_field)
        subqueries = {sq.subid: sq for sq in query.subqueries}
        relaxed: dict[tuple[int, int], dict[str, int]] = {}
        for (subid, level), thresholds in original.items():
            relaxed[(subid, level)] = dict(thresholds)
            if level == spec.finest:
                continue
            satisfied = [
                {coarsen_value(field, key, level) for key in keys} for keys in truth
            ]
            if not any(satisfied):
                continue
            sq = subqueries[subid]
            stripped = without_thresholds(sq.operators, set(thresholds))
            coarse = augmented_subquery(
                replace(sq, name=f"{sq.name}.relax", operators=stripped),
                spec,
                ROOT_LEVEL,
                level,
            )
            minima: dict[str, list[int]] = {fld: [] for fld in thresholds}
            for window, keys in zip(self.windows(), satisfied):
                if not keys:
                    continue
                rows = execute_subquery(coarse, window).rows()
                for fld, values in minima.items():
                    counts = {
                        row[key_field]: row.get(fld) for row in rows if fld in row
                    }
                    found = [counts[k] for k in keys if counts.get(k) is not None]
                    if found:
                        values.append(min(found))
            relaxed[(subid, level)] = {
                fld: max(value, min(minima[fld]) - 1) if minima[fld] else value
                for fld, value in thresholds.items()
            }
        return relaxed

    def _transition_costs(
        self,
        sq: SubQuery,
        spec: RefinementSpec | None,
        r_prev: int,
        r_level: int,
        relaxed: dict[tuple[int, int], dict[str, int]],
        feed_keys: dict[int, list[set]],
    ) -> tuple[TransitionCosts, list[ColumnarResult]]:
        """Cost one instance from one run of its chain per window; the
        runs' results are returned alongside."""
        if spec is None:
            augmented = sq
        else:
            augmented = augmented_subquery(
                sq, spec, r_prev, r_level, relaxed.get((sq.subid, r_level))
            )
        compiled = compile_subquery(augmented)
        table_name = filter_table_name(sq.qid, r_prev)

        rows_after_op: dict[int, list[float]] = {}
        keys_per_op: dict[int, list[float]] = {}
        packets_in: list[float] = []
        results: list[ColumnarResult] = []
        for w_index, window in enumerate(self.windows()):
            tables: dict[str, set] = {}
            if r_prev != ROOT_LEVEL:
                tables[table_name] = feed_keys[r_prev][max(w_index - 1, 0)]
            result = execute_subquery(augmented, window, tables)
            results.append(result)
            packets_in.append(float(result.input_rows))
            for op_index, stat in enumerate(result.stats):
                rows_after_op.setdefault(op_index, []).append(float(stat.rows_out))
                if stat.stateful:
                    keys_per_op.setdefault(op_index, []).append(float(stat.keys))

        key_estimates = {
            op_index: int(round(_median(values))) or 1
            for op_index, values in keys_per_op.items()
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
                d=self.chain_depth,
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
            qid=sq.qid,
            subid=sq.subid,
            r_prev=r_prev,
            r_level=r_level,
            augmented=augmented,
            compiled=compiled,
            cuts=cuts,
            sized_tables=sized,
            key_estimates=key_estimates,
        ), results
