"""Shared vectorized execution kernels (the batched execution core).

Both batch engines in the pipeline — the switch's batched window path and
the columnar operator interpreter in :mod:`repro.streaming.batchops`
(stream processor, emitter, planner cost estimation, All-SP ground truth,
raw mirroring, the network collector) — run on this one kernel layer,
joins included, operating on column dicts over
:class:`~repro.packets.trace.Trace` numpy views, in the one columnar
tuple format of :mod:`repro.exec.columns`. The scalar ALU fold semantics
the row-wise interpreters use live in :mod:`repro.exec.alu`.
"""

from repro.exec.alu import (
    UPDATE_FUNCS,
    aggregate_groups,
    init_value,
    running_groups,
)
from repro.exec.columns import (
    ColumnarState,
    Row,
    Vocab,
    canonical_column,
    canonical_state,
    concat_states,
    materialize_rows,
    state_from_rows,
    value_kind,
    values_equal,
)
from repro.exec.kernels import (
    apply_map,
    eval_expression,
    filter_mask,
    first_occurrences,
    group_first_occurrence,
    group_keys,
    join_states,
    key_columns,
    keys_in,
    predicate_mask,
    reduce_args,
)

__all__ = [
    "UPDATE_FUNCS",
    "init_value",
    "aggregate_groups",
    "running_groups",
    "ColumnarState",
    "Row",
    "Vocab",
    "canonical_column",
    "canonical_state",
    "concat_states",
    "materialize_rows",
    "state_from_rows",
    "value_kind",
    "values_equal",
    "predicate_mask",
    "filter_mask",
    "eval_expression",
    "apply_map",
    "first_occurrences",
    "group_first_occurrence",
    "group_keys",
    "join_states",
    "key_columns",
    "keys_in",
    "reduce_args",
]
