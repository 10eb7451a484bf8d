"""Logical match-action tables: the unit the ILP places into stages.

Each dataflow operator compiles to one table (filter, map) or two
(reduce/distinct: an index-computation table plus a stateful update table,
§3.1.2). The planner's stage-assignment variables X_{q,t,s} range over
the ``stateful`` tables, which count against A and whose ``register``
bits count against B; the stateless ones are placed around them.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.operators import Filter, Operator
from repro.switch.registers import RegisterSpec


@dataclass
class LogicalTable:
    """One match-action table produced by the query compiler.

    Attributes:
        name: Unique name within the compiled sub-query (drives P4 gen).
        kind: ``filter | map | reduce_idx | reduce_upd | distinct_idx |
            distinct_upd``.
        operator_index: Index of the source operator in the sub-query.
        is_operator_end: True on the last table of an operator — the only
            positions where the planner may cut the query (a reduce cannot
            be split between its index and update tables).
        stateful: Counts against the per-stage stateful-action budget A.
        match_bits: Width of the match key (ternary for coarsened matches).
        register: Register sizing for stateful tables (filled in by the
            planner once it has key estimates from training data).
        folded_filter: A threshold filter merged into a stateful update
            table (§3.3: "the filter operator that checks the threshold
            after the reduce ... can be compiled to the same table as the
            reduce operator").
        dynamic_table: Name of the runtime-updatable match table backing an
            ``in`` predicate (dynamic refinement), if any.
    """

    name: str
    kind: str
    operator_index: int
    operator: Operator
    is_operator_end: bool
    stateful: bool
    match_bits: int = 0
    register: RegisterSpec | None = None
    folded_filter: Filter | None = None
    dynamic_table: str | None = None

    @property
    def register_bits(self) -> int:
        return self.register.total_bits if self.register is not None else 0

    def sized(self, register: RegisterSpec | None) -> "LogicalTable":
        """Copy with register sizing applied."""
        return LogicalTable(
            name=self.name,
            kind=self.kind,
            operator_index=self.operator_index,
            operator=self.operator,
            is_operator_end=self.is_operator_end,
            stateful=self.stateful,
            match_bits=self.match_bits,
            register=register,
            folded_filter=self.folded_filter,
            dynamic_table=self.dynamic_table,
        )

    def describe(self) -> str:
        extra = ""
        if self.register is not None:
            extra = f" [{self.register.d}x{self.register.n_slots} slots]"
        if self.folded_filter is not None:
            extra += " +threshold"
        return f"{self.name}({self.kind}{extra})"
