"""Plan data structures: what the planner hands to the runtime.

A :class:`Plan` holds one :class:`QueryPlan` per query; each query plan is
a refinement *path* (the ordered levels the runtime iterates through) and,
per path transition and sub-query, an :class:`InstancePlan` describing the
partitioning cut, the sized switch tables with their stage assignment, and
the residual operators for the stream processor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from repro.core.operators import Operator
from repro.core.query import Query, SubQuery
from repro.planner.refinement import ROOT_LEVEL, RefinementSpec
from repro.switch.compiler import CompiledSubQuery
from repro.switch.config import SwitchConfig
from repro.switch.tables import LogicalTable

if TYPE_CHECKING:
    from repro.switch.simulator import PISASwitch


def instance_key(qid: int, subid: int, r_prev: int, r_level: int) -> str:
    return f"q{qid}.s{subid}@{r_prev}-{r_level}"


@dataclass
class InstancePlan:
    """One sub-query at one refinement transition, partitioned."""

    qid: int
    subid: int
    r_prev: int
    r_level: int
    cut: int  # operators executed on the switch
    augmented: SubQuery
    compiled: CompiledSubQuery
    tables: list[LogicalTable]  # sized tables for the cut
    stage_assignment: dict[str, int] | None
    residual_ops: tuple[Operator, ...]
    est_tuples: float
    read_filter_table: str | None  # dynamic table feeding this instance

    @property
    def key(self) -> str:
        return instance_key(self.qid, self.subid, self.r_prev, self.r_level)

    @property
    def on_switch(self) -> bool:
        return self.cut > 0

    def describe(self) -> str:
        where = f"{self.cut} ops on switch" if self.on_switch else "all at SP"
        return f"{self.key}: {where}, est {self.est_tuples:.0f} tuples/window"


@dataclass
class QueryPlan:
    """Refinement path + per-transition instances for one query."""

    query: Query
    spec: RefinementSpec | None
    path: tuple[int, ...]  # refinement levels in execution order
    instances: list[InstancePlan]
    relaxed_thresholds: dict[tuple[int, int], dict[str, int]] = field(
        default_factory=dict
    )

    @property
    def qid(self) -> int:
        return self.query.qid

    @property
    def detection_delay_windows(self) -> int:
        """Worst-case extra windows before the finest level reports (§4.1)."""
        return len(self.path)

    def transitions(self) -> list[tuple[int, int]]:
        levels = (ROOT_LEVEL,) + self.path
        return [(levels[i], levels[i + 1]) for i in range(len(self.path))]

    def instances_for(self, r_prev: int, r_level: int) -> list[InstancePlan]:
        return [
            inst
            for inst in self.instances
            if inst.r_prev == r_prev and inst.r_level == r_level
        ]

    @property
    def est_tuples_per_window(self) -> float:
        # Raw-mirror instances of one query share the mirror stream.
        total = 0.0
        shared_mirror: set[tuple[int, int]] = set()
        for inst in self.instances:
            if inst.on_switch:
                total += inst.est_tuples
            else:
                shared_mirror.add((inst.r_prev, inst.r_level))
        for r_prev, r_level in shared_mirror:
            insts = self.instances_for(r_prev, r_level)
            total += max(i.est_tuples for i in insts if not i.on_switch)
        return total

    def describe(self) -> str:
        lines = [
            f"plan for {self.query.name} (qid={self.qid}): "
            f"path {' -> '.join(str(r) for r in self.path)}, "
            f"delay {self.detection_delay_windows} windows"
        ]
        lines.extend(f"  {inst.describe()}" for inst in self.instances)
        return "\n".join(lines)


@dataclass
class Plan:
    """A full multi-query plan."""

    mode: str
    switch_config: SwitchConfig
    query_plans: dict[int, QueryPlan]
    est_total_tuples: float
    solver_info: dict[str, Any] = field(default_factory=dict)

    def all_instances(self) -> list[InstancePlan]:
        return [
            inst
            for plan in self.query_plans.values()
            for inst in plan.instances
        ]

    def install(self, switch: "PISASwitch") -> "PISASwitch":
        """Install every on-switch instance on ``switch``, in plan order;
        raises ResourceExhaustedError when the switch refuses one."""
        for inst in self.all_instances():
            if inst.on_switch:
                switch.install(
                    inst.key,
                    inst.compiled,
                    inst.cut,
                    sized_tables=inst.tables,
                    stage_assignment=inst.stage_assignment,
                )
        return switch

    def describe(self) -> str:
        lines = [
            f"{self.mode} plan: est {self.est_total_tuples:.0f} tuples/window "
            f"across {len(self.query_plans)} queries"
        ]
        lines.extend(plan.describe() for plan in self.query_plans.values())
        return "\n".join(lines)
