"""Cost-model bookkeeping over the columnar operator interpreter.

The engine executes a linear operator chain over one window of a
:class:`~repro.packets.trace.Trace` and records, after every operator, the
number of rows that would flow to the next operator (for a stateful
operator, its keys). The cost estimator turns those counts into the
``N_{q,t}`` and ``B_{q,t}`` inputs of the query planning ILP (Table 1 of
the paper); :func:`apply_chain` lets it run a chain in pieces.

The operators themselves run on the stream processor's interpreter,
:func:`repro.streaming.batchops.apply_operator_state`, so the planner, the
All-SP ground truth and the raw-mirror path count exactly the tuples the
stream processor would produce, in the same order. Joins are assembled by
the row-wise :func:`~repro.streaming.rowops.assemble_join_tree`, as at the
stream processor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.core.fields import FIELDS, FieldRegistry
from repro.core.operators import (
    Operator, Schema, chain_read_fields, chain_schemas, resolve_value_fields,
)
from repro.core.query import Query, SubQuery
from repro.exec import ColumnarState, materialize_rows
from repro.packets.trace import Trace
from repro.streaming.batchops import apply_operator_state
from repro.streaming.rowops import assemble_join_tree

__all__ = [
    "ColumnarState",
    "OperatorStats",
    "ColumnarResult",
    "apply_chain",
    "execute_operators",
    "execute_subquery",
    "execute_query",
]


@dataclass(frozen=True)
class OperatorStats:
    """Per-operator execution statistics for the cost model."""

    operator: str
    rows_out: int


@dataclass
class ColumnarResult:
    """Outcome of executing an operator chain on one window."""

    stats: list[OperatorStats]
    final: ColumnarState
    schema: Schema
    input_rows: int

    def rows_after(self, op_index: int) -> int:
        """Rows flowing out of operator ``op_index`` (-1 = raw input)."""
        if op_index < 0:
            return self.input_rows
        return self.stats[op_index].rows_out

    def rows(self) -> list[dict[str, Any]]:
        """Materialize the final tuples as dicts (ids resolved to strings)."""
        return materialize_rows(self.final, self.schema.fields)


def apply_chain(
    operators: Sequence[Operator],
    state: ColumnarState,
    schema: Schema,
    tables: Mapping[str, set] | None = None,
) -> Iterator[ColumnarState]:
    """Apply ``operators`` to ``state`` (whose schema is ``schema``) in
    turn, yielding the state after each."""
    for op in resolve_value_fields(operators, schema):
        state = apply_operator_state(state, op, tables)
        yield state


def execute_operators(
    operators: Sequence[Operator],
    trace: Trace,
    tables: Mapping[str, set] | None = None,
    registry: FieldRegistry = FIELDS,
) -> ColumnarResult:
    """Execute a linear operator chain over one window of ``trace``.

    The window is projected to the fields the chain reads, as on the
    switch, so that no operator carries a column nothing reads.
    """
    schemas = chain_schemas(operators, registry)
    state = ColumnarState.from_trace(trace, registry)
    input_rows = state.n_rows
    state = state.project(chain_read_fields(operators, schemas))
    stats: list[OperatorStats] = []
    states = apply_chain(operators, state, schemas[0], tables)
    for op, state in zip(operators, states):
        stats.append(OperatorStats(operator=op.describe(), rows_out=state.n_rows))
    return ColumnarResult(
        stats=stats, final=state, schema=schemas[-1], input_rows=input_rows
    )


def execute_subquery(
    subquery: SubQuery,
    trace: Trace,
    tables: Mapping[str, set] | None = None,
) -> ColumnarResult:
    """Execute a :class:`SubQuery` over one window of ``trace``."""
    return execute_operators(subquery.operators, trace, tables, subquery.registry)


def execute_query(
    query: Query,
    trace: Trace,
    tables: Mapping[str, set] | None = None,
) -> list[dict[str, Any]]:
    """Execute a full query (including joins) over one window.

    This is the ground-truth, All-SP semantics: every packet is visible to
    every operator. Returns the output tuples as dicts.
    """
    leaf_outputs = {
        sq.subid: execute_subquery(sq, trace, tables).rows()
        for sq in query.subqueries
    }
    return assemble_join_tree(query.join_tree, leaf_outputs, tables)
