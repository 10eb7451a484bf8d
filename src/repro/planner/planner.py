"""Planner facade: estimate costs once, then plan under any mode (Table 4).

``QueryPlanner`` wires the pieces together: refinement-spec selection,
trace-driven cost estimation (shared across modes — emulating a baseline
never changes the measurements, only the ILP constraints), the solve (the
per-query optima when no switch budget binds, else the joint MILP), and a
greedy fallback solver used both for cross-validation in tests and when
the MILP exceeds its time budget.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Any, Iterable

from repro.core.errors import PlanningError, ResourceExhaustedError
from repro.core.query import Query
from repro.obs import get_observability
from repro.packets.trace import Trace
from repro.planner.costs import CostEstimator, QueryCosts
from repro.planner.ilp import PlanILP, allowed_cuts
from repro.planner.plans import InstancePlan, Plan, QueryPlan
from repro.planner.refinement import ROOT_LEVEL
from repro.switch.config import SwitchConfig
from repro.switch.simulator import PISASwitch

logger = logging.getLogger(__name__)


class PlanningMode(str, Enum):
    """The query plans of Table 4 plus Sonata itself."""

    ALL_SP = "all_sp"  # Gigascope / OpenSOC / NetQRE: mirror everything
    FILTER_DP = "filter_dp"  # EverFlow: only filters on the switch
    MAX_DP = "max_dp"  # UnivMon / OpenSketch: max work on switch, no zoom
    FIX_REF = "fix_ref"  # DREAM: fixed one-level-at-a-time refinement
    SONATA = "sonata"


class QueryPlanner:
    """Plans a set of queries against one switch using training traffic."""

    def __init__(
        self,
        queries: Iterable[Query],
        training_trace: Trace,
        config: SwitchConfig | None = None,
        window: float | None = None,
        max_levels: int = 4,
        max_delay: dict[int, int] | None = None,
        time_limit: float = 60.0,
        refinement_specs: "dict[int, Any] | None" = None,
        obs=None,
    ) -> None:
        self.queries = list(queries)
        if not self.queries:
            raise PlanningError("no queries to plan")
        self.obs = obs if obs is not None else get_observability()
        self.config = config or SwitchConfig.paper_default()
        self.trace = training_trace
        self.window = window
        self.max_levels = max_levels
        self.max_delay = max_delay
        self.time_limit = time_limit
        self.refinement_specs = refinement_specs
        self._costs: dict[int, QueryCosts] | None = None

    # -- cost estimation (shared by all modes) -----------------------------
    def costs(self) -> dict[int, QueryCosts]:
        if self._costs is None:
            with self.obs.span(
                "planner.estimate_costs",
                queries=len(self.queries),
                packets=len(self.trace),
            ):
                estimator = CostEstimator(
                    self.queries,
                    self.trace,
                    config=self.config,
                    window=self.window,
                    max_levels=self.max_levels,
                    refinement_specs=self.refinement_specs,
                )
                self._costs = estimator.estimate()
        return self._costs

    # -- planning -----------------------------------------------------------
    def plan(
        self,
        mode: PlanningMode | str = PlanningMode.SONATA,
        solver: str = "ilp",
        verify_install: bool = True,
    ) -> Plan:
        """Produce a plan; ``solver`` is ``"ilp"`` or ``"greedy"``."""
        mode_value = PlanningMode(mode).value
        costs = self.costs()  # outside the solve span: estimation has its own
        with self.obs.span(
            "planner.solve", mode=mode_value, solver=solver
        ) as span:
            if solver == "ilp":
                ilp = PlanILP(
                    costs=costs,
                    config=self.config,
                    mode=mode_value,
                    max_delay=self.max_delay,
                    time_limit=self.time_limit,
                )
                plan = ilp.solve()
            elif solver == "greedy":
                plan = GreedyPlanner(costs, self.config, mode_value, self.max_delay).solve()
            else:
                raise PlanningError(f"unknown solver {solver!r}")
            span.set_attribute("est_tuples_per_window", plan.est_total_tuples)
            span.set_attribute("solved_by", plan.solver_info["solver"])
            if "separable_declined" in plan.solver_info:
                logger.info(
                    "planner: the MILP runs, as %s",
                    plan.solver_info["separable_declined"],
                )
                self.obs.event(
                    "planner.separable_declined",
                    budget=plan.solver_info["separable_declined"],
                )
            if "variables" in plan.solver_info:
                span.set_attribute("milp_vars", plan.solver_info["variables"])
                span.set_attribute(
                    "milp_constraints", plan.solver_info["constraints"]
                )
            if "fallback" in plan.solver_info:
                logger.info("planner fallback: %s", plan.solver_info["fallback"])
                self.obs.event(
                    "planner.fallback", reason=str(plan.solver_info["fallback"])
                )
        self.obs.histogram(
            "sonata_planner_solve_seconds", "wall-clock time of one plan solve"
        ).observe(span.duration, mode=mode_value, solver=solver)
        self.obs.gauge(
            "sonata_plan_est_tuples_per_window",
            "the solved plan's estimated tuple load per window",
        ).set(plan.est_total_tuples, mode=mode_value)
        logger.info(
            "planned %d queries (mode=%s, solver=%s): est %.0f tuples/window",
            len(self.queries),
            mode_value,
            solver,
            plan.est_total_tuples,
        )
        if verify_install:
            self.verify(plan)
        return plan

    def verify(self, plan: Plan) -> PISASwitch:
        """Install the plan on a fresh simulated switch; raises if infeasible.

        This closes the loop between the planner's resource model and the
        switch's install-time checks: a plan the ILP considers feasible
        must install cleanly.
        """
        switch = PISASwitch(self.config)
        for inst in plan.all_instances():
            if not inst.on_switch:
                continue
            switch.install(
                inst.key,
                inst.compiled,
                inst.cut,
                sized_tables=inst.tables,
                stage_assignment=inst.stage_assignment,
            )
        return switch


class GreedyPlanner:
    """A resource-aware greedy heuristic for the same planning problem.

    Per query, enumerate refinement paths (bounded by the delay cap) and
    score each path by the sum over transitions of its cheapest cut
    assuming sufficient resources; then install queries in ascending-cost
    order with first-fit stage packing, downgrading cuts when a resource
    budget is hit. Produces feasible (generally sub-optimal) plans; tests
    assert the ILP never does worse.
    """

    def __init__(
        self,
        costs: dict[int, QueryCosts],
        config: SwitchConfig,
        mode: str = "sonata",
        max_delay: dict[int, int] | None = None,
    ) -> None:
        self.costs = costs
        self.config = config
        self.mode = mode
        self.max_delay = max_delay or {}

    def _paths(self, qc: QueryCosts) -> list[tuple[int, ...]]:
        levels = qc.levels
        finest = qc.native_level
        if qc.spec is None or self.mode in ("all_sp", "filter_dp", "max_dp"):
            return [(finest,)]
        cap = self.max_delay.get(qc.query.qid, len(levels))
        if self.mode == "fix_ref":
            candidates = [tuple(levels)]
        else:
            inner = [r for r in levels if r != finest]
            candidates = [
                tuple(inner[i] for i in range(len(inner)) if mask & (1 << i))
                + (finest,)
                for mask in range(1 << len(inner))
            ]
        paths = [path for path in candidates if len(path) <= cap]
        if not paths:
            raise PlanningError(
                f"q{qc.query.qid}: no {self.mode} refinement path within "
                f"max_delay={cap} (the shortest has {min(map(len, candidates))} levels)"
            )
        return paths

    def _path_cost(self, qc: QueryCosts, path: tuple[int, ...]) -> float:
        total = 0.0
        prev = ROOT_LEVEL
        for level in path:
            per_sub = qc.transitions[(prev, level)]
            raw_mirror = False
            for tc in per_sub.values():
                cuts = allowed_cuts(tc, self.mode)
                best = min(
                    (tc.cost_of(c).n_tuples if c > 0 else float("inf"))
                    for c in cuts
                ) if any(c > 0 for c in cuts) else float("inf")
                zero_cost = qc.window_packets
                if best == float("inf") or zero_cost < best:
                    raw_mirror = True
                else:
                    total += best
            if raw_mirror:
                total += qc.window_packets
            prev = level
        return total

    def solve(self) -> Plan:
        # Rank paths per query, then install greedily on a scratch switch.
        switch = PISASwitch(self.config)
        query_plans: dict[int, QueryPlan] = {}
        total = 0.0
        for qid, qc in sorted(self.costs.items()):
            paths = sorted(
                self._paths(qc), key=lambda p: (self._path_cost(qc, p), len(p))
            )
            plan = None
            for path in paths:
                plan = self._try_install(switch, qc, path)
                if plan is not None:
                    break
            if plan is None:
                # Last resort: everything at the stream processor.
                plan = self._all_sp_plan(qc)
            query_plans[qid] = plan
            total += plan.est_tuples_per_window
        return Plan(
            mode=self.mode,
            switch_config=self.config,
            query_plans=query_plans,
            est_total_tuples=total,
            solver_info={"solver": "greedy"},
        )

    def _try_install(
        self, switch: PISASwitch, qc: QueryCosts, path: tuple[int, ...]
    ) -> QueryPlan | None:
        instances: list[InstancePlan] = []
        installed_keys: list[str] = []
        prev = ROOT_LEVEL
        ok = True
        for level in path:
            for subid, tc in qc.transitions[(prev, level)].items():
                cuts = sorted(allowed_cuts(tc, self.mode), reverse=True)
                key = f"greedy-{tc.qid}.{subid}@{prev}-{level}"
                chosen = None
                for cut in cuts:
                    if cut == 0:
                        chosen = tc.instance_plan(0, None)
                        break
                    tables = tc.tables_for_cut(cut)
                    try:
                        installed = switch.install(key, tc.compiled, cut, tables)
                    except ResourceExhaustedError:
                        continue
                    installed_keys.append(key)
                    chosen = tc.instance_plan(cut, dict(installed.stage_of))
                    break
                if chosen is None:
                    ok = False
                    break
                instances.append(chosen)
            if not ok:
                break
            prev = level
        if not ok:
            for key in installed_keys:
                switch.uninstall(key)
            return None
        return QueryPlan(
            query=qc.query,
            spec=qc.spec,
            path=path,
            instances=instances,
            relaxed_thresholds=qc.relaxed_thresholds,
        )

    def _all_sp_plan(self, qc: QueryCosts) -> QueryPlan:
        finest = qc.native_level
        instances = []
        for tc in qc.transitions[(ROOT_LEVEL, finest)].values():
            inst = tc.instance_plan(0, None)
            inst.est_tuples = qc.window_packets
            instances.append(inst)
        return QueryPlan(
            query=qc.query,
            spec=qc.spec,
            path=(finest,),
            instances=instances,
            relaxed_thresholds=qc.relaxed_thresholds,
        )


def replan(
    plan: Plan,
    recent_trace: Trace,
    window: float | None = None,
    time_limit: float = 30.0,
    max_levels: int = 4,
) -> Plan:
    """Re-run the planner for an existing plan on fresh traffic (§5).

    This is the action behind the runtime's re-training signal: when
    register overflow shows the original training data underestimated the
    key population, the ILP is re-solved with measurements taken from the
    recent traffic, producing a plan whose register sizing (and possibly
    partitioning/refinement) matches reality. The original plan's queries,
    switch envelope and mode are reused.
    """
    queries = [qplan.query for qplan in plan.query_plans.values()]
    planner = QueryPlanner(
        queries,
        recent_trace,
        config=plan.switch_config,
        window=window,
        max_levels=max_levels,
        time_limit=time_limit,
    )
    return planner.plan(plan.mode)
