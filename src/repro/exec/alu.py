"""Shared register-ALU semantics for every execution engine.

A PISA stage's stateful ALU supports a fixed set of update functions
(sum/count/max/min/or). The row-wise stream interpreter, the switch
register chains and the columnar engine must all implement *exactly* the
same fold semantics — this module is the single definition all three
import, in scalar form (``UPDATE_FUNCS`` / ``init_value``) and in grouped
numpy form (``aggregate_groups`` / ``running_groups``).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.errors import QueryValidationError

#: ALU update functions a PISA stage supports for register values.
#: ``old`` is the stored value, ``arg`` the per-packet argument.
UPDATE_FUNCS: dict[str, Callable[[int, int], int]] = {
    "sum": lambda old, arg: old + arg,
    "count": lambda old, arg: old + 1,
    "max": max,
    "min": min,
    "or": lambda old, arg: old | arg,
}


def init_value(func: str, arg: int) -> int:
    """Stored value after the *first* update of a key.

    The value starts from the argument itself (1 for counting) — min/max
    in particular must not fold with a zero-initialized register.
    """
    return 1 if func == "count" else arg


def aggregate_groups(
    inverse: np.ndarray, values: np.ndarray | None, n_groups: int, func: str
) -> np.ndarray:
    """Final per-group aggregate, identical to folding ``UPDATE_FUNCS``.

    ``inverse`` maps each row to its group id; ``values`` are the per-row
    arguments (ignored for ``count``; ``None`` means count semantics).
    """
    if func == "count" or values is None:
        return np.bincount(inverse, minlength=n_groups).astype(np.int64)
    values = values.astype(np.int64)
    if func == "sum":
        agg = np.bincount(inverse, weights=values.astype(np.float64), minlength=n_groups)
        return np.rint(agg).astype(np.int64)
    if func == "max":
        agg = np.full(n_groups, np.iinfo(np.int64).min, dtype=np.int64)
        np.maximum.at(agg, inverse, values)
        return agg
    if func == "min":
        agg = np.full(n_groups, np.iinfo(np.int64).max, dtype=np.int64)
        np.minimum.at(agg, inverse, values)
        return agg
    if func == "or":
        agg = np.zeros(n_groups, dtype=np.int64)
        np.bitwise_or.at(agg, inverse, values)
        return agg
    raise QueryValidationError(f"unknown reduce func {func}")


def running_groups(
    order: np.ndarray, starts: np.ndarray, values: np.ndarray | None, func: str
) -> np.ndarray:
    """Per-row *running* aggregate within each group, in row order.

    The groups are given as runs: ``order`` lists the rows group by
    group, each group's rows in row order, and ``starts`` are the
    positions where a group begins (a grouping sort's output, see
    :func:`~repro.exec.group_first_occurrence`). Row ``i``'s output is the
    register value a row-wise engine would observe right after applying
    row ``i``'s update — the quantity a folded threshold filter probes
    for first-crossing reports.
    """
    n = len(order)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if func == "count" or values is None:
        v = np.ones(n, dtype=np.int64)
    else:
        v = values.astype(np.int64)[order]
    bounds = np.r_[starts, n]
    if func in ("sum", "count"):
        cs = np.cumsum(v)
        offsets = np.repeat(cs[starts] - v[starts], np.diff(bounds))
        run = cs - offsets
    else:
        try:
            ufunc = {"max": np.maximum, "min": np.minimum, "or": np.bitwise_or}[func]
        except KeyError:
            raise QueryValidationError(f"unknown reduce func {func}") from None
        run = np.empty(n, dtype=np.int64)
        for s, e in zip(bounds[:-1], bounds[1:]):
            run[s:e] = ufunc.accumulate(v[s:e])
    out = np.empty(n, dtype=np.int64)
    out[order] = run
    return out
