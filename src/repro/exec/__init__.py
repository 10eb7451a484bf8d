"""Shared vectorized execution kernels (the batched execution core).

Every batch engine in the pipeline — the columnar analytics engine used
for planner cost estimation and the switch's batched window path — runs
on this one kernel layer, operating on column dicts over
:class:`~repro.packets.trace.Trace` numpy views. The scalar ALU fold
semantics the row-wise interpreters use live in :mod:`repro.exec.alu`.
"""

from repro.exec.alu import (
    MERGE_FUNCS,
    UPDATE_FUNCS,
    aggregate_groups,
    init_value,
    running_groups,
)
from repro.exec.columns import (
    ColumnarState,
    is_str_field,
    materialize_rows,
    materialize_value,
    value_mask,
)
from repro.exec.kernels import (
    apply_distinct,
    apply_filter,
    apply_map,
    apply_reduce,
    coarsen_vocab,
    eval_expression,
    filter_mask,
    group_first_occurrence,
    group_keys,
    key_columns,
    materialize_keys,
    predicate_mask,
    reduce_args,
    state_bits,
    threshold_mask,
)

__all__ = [
    "UPDATE_FUNCS",
    "MERGE_FUNCS",
    "init_value",
    "aggregate_groups",
    "running_groups",
    "ColumnarState",
    "is_str_field",
    "materialize_value",
    "materialize_rows",
    "value_mask",
    "coarsen_vocab",
    "predicate_mask",
    "filter_mask",
    "apply_filter",
    "eval_expression",
    "apply_map",
    "group_keys",
    "group_first_occurrence",
    "key_columns",
    "apply_reduce",
    "apply_distinct",
    "state_bits",
    "threshold_mask",
    "reduce_args",
    "materialize_keys",
]
