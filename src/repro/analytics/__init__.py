"""Vectorized query evaluation over columnar traces.

This is the trace-driven analysis engine: the planner uses it to estimate
``N`` (tuples reaching the stream processor) and ``B`` (register state) for
every candidate cut of every query (§3.3), the runtime uses it for
raw-mirrored instances, and the test suite uses it as ground truth that
the per-packet switch + stream-processor pipeline must agree with. It
runs operators on the stream processor's columnar interpreter
(:mod:`repro.streaming.batchops`) and adds the per-operator statistics.
"""

from repro.analytics.columnar import (
    ColumnarResult,
    ColumnarState,
    OperatorStats,
    apply_chain,
    chain_schemas,
    execute_operators,
    execute_query,
    execute_subquery,
)

__all__ = [
    "ColumnarState",
    "ColumnarResult",
    "OperatorStats",
    "apply_chain",
    "chain_schemas",
    "execute_operators",
    "execute_subquery",
    "execute_query",
]
