"""Install-time resource rules of a PISA switch (§3.2, Table 2).

Each rule is defined once here and read by both sides of the planner/switch
contract: :class:`~repro.switch.simulator.PISASwitch` checks them when an
instance is installed, and :class:`~repro.planner.ilp.PlanILP` turns them
into MILP rows and places the tables of a plan with them. Budgets
are named by their :class:`SwitchConfig` field, so an error says which
field to raise.

- :func:`stage_demand` — what a table takes from its stage: a table slot,
  and for a stateful table a stateful action (C2) and its register bits
  (C1);
- :func:`chain_violation` — why no placement can install a chain: more
  tables than stages (C3), an unsized stateful table, or a register over
  ``max_single_register_bits``;
- :func:`header_fields` — the header fields the parser extracts for a cut,
  bounded in total by ``phv_header_bits``;
- :func:`over_budget` — the one comparison of a usage against a budget;
- :class:`StageLedger` — per-stage usage, with first-fit placement of a
  chain in strictly increasing stages (C3/C4).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.core.errors import ResourceExhaustedError
from repro.switch.compiler import CompiledSubQuery
from repro.switch.config import SwitchConfig
from repro.switch.tables import LogicalTable

#: Per-stage budgets, in the order the MILP emits their rows.
STAGE_BUDGETS = (
    "register_bits_per_stage",  # B (C1)
    "stateful_actions_per_stage",  # A (C2)
    "stateless_actions_per_stage",  # table slots, stateful tables included
)


def stage_demand(table: LogicalTable) -> dict[str, int]:
    """What ``table`` takes from its stage, by :data:`STAGE_BUDGETS` field."""
    if not table.stateful:
        return {"stateless_actions_per_stage": 1}
    return {
        "register_bits_per_stage": table.register_bits,
        "stateful_actions_per_stage": 1,
        "stateless_actions_per_stage": 1,
    }


def over_budget(budget: str, used: int, config: SwitchConfig) -> str | None:
    """``"<used> over <budget>=<cap>"`` when ``used`` exceeds the budget."""
    cap = getattr(config, budget)
    return f"{used} over {budget}={cap}" if used > cap else None


def chain_violation(
    tables: Sequence[LogicalTable], config: SwitchConfig
) -> str | None:
    """Why no stage placement can install ``tables``, or None."""
    too_long = over_budget("stages", len(tables), config)
    if too_long:
        return f"chain of {len(tables)} tables: {too_long} (C3)"
    for table in tables:
        if not table.stateful:
            continue
        if table.register is None or table.register.placeholder:
            return f"stateful table {table.name} lacks register sizing"
        too_big = over_budget("max_single_register_bits", table.register_bits, config)
        if too_big:
            return f"register {table.register.name}: {too_big}"
    return None


def header_fields(compiled: CompiledSubQuery, cut: int) -> dict[str, int]:
    """Header field -> width for the fields the first ``cut`` operators read."""
    return {
        name: compiled.registry.get(name).width
        for op in compiled.subquery.operators[:cut]
        for name in op.input_fields()
        if name in compiled.registry
    }


class StageLedger:
    """Per-stage usage of one switch, keyed by :data:`STAGE_BUDGETS` field."""

    def __init__(self, config: SwitchConfig) -> None:
        self.config = config
        self.used: dict[str, dict[int, int]] = {b: {} for b in STAGE_BUDGETS}

    def fits(self, table: LogicalTable, stage: int) -> bool:
        return 0 <= stage < self.config.stages and not any(
            self.used[b].get(stage, 0) + n > getattr(self.config, b)
            for b, n in stage_demand(table).items()
        )

    def take(self, table: LogicalTable, stage: int) -> None:
        """Charge ``table`` to ``stage``; raises naming an overrun budget."""
        if not 0 <= stage < self.config.stages:
            raise ResourceExhaustedError(
                f"table {table.name}: stage {stage} outside "
                f"0..{self.config.stages - 1} (stages, C3)"
            )
        for budget, amount in stage_demand(table).items():
            used = self.used[budget]
            used[stage] = used.get(stage, 0) + amount
            over = over_budget(budget, used[stage], self.config)
            if over:
                raise ResourceExhaustedError(
                    f"table {table.name}: stage {stage} uses {over}"
                )

    def place(
        self, tables: Sequence[LogicalTable], fixed: Mapping[str, int]
    ) -> dict[str, int]:
        """Take a stage for each table of one chain, in strictly increasing
        stages (C4). A table in ``fixed`` keeps its stage; every other one
        goes to the earliest stage with room after its predecessor and
        before the next pinned table."""
        placed: dict[str, int] = {}
        previous = -1
        for k, table in enumerate(tables):
            if table.name in fixed:
                stage = fixed[table.name]
                if stage <= previous:
                    raise ResourceExhaustedError(
                        f"table {table.name} breaks intra-query ordering (C4)"
                    )
            else:
                limit = next(
                    (fixed[t.name] for t in tables[k + 1:] if t.name in fixed),
                    self.config.stages,
                )
                stage = next(
                    (s for s in range(previous + 1, limit) if self.fits(table, s)),
                    None,
                )
                if stage is None:
                    full = [
                        b
                        for b, n in stage_demand(table).items()
                        if any(
                            self.used[b].get(s, 0) + n > getattr(self.config, b)
                            for s in range(previous + 1, limit)
                        )
                    ]
                    if not full:  # the range itself is empty
                        full = [
                            "stages (C3)"
                            if limit == self.config.stages
                            else "intra-query ordering (C4)"
                        ]
                    raise ResourceExhaustedError(
                        f"table {table.name}: no stage in [{previous + 1}, {limit}) "
                        f"has room under {', '.join(full)}"
                    )
            self.take(table, stage)
            placed[table.name] = stage
            previous = stage
        return placed
