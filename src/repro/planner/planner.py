"""Planner facade: estimate costs once, then plan under any mode (Table 4).

``QueryPlanner`` wires the pieces together: refinement-spec selection,
trace-driven cost estimation (shared across modes — emulating a baseline
never changes the measurements, only the ILP constraints), the solve (the
per-query optima when no switch budget binds, else the joint MILP), or
the greedy heuristic (:meth:`PlanILP.greedy`) on request.
"""

from __future__ import annotations

import logging
from enum import Enum
from typing import Any, Iterable

from repro.core.errors import PlanningError
from repro.core.query import Query
from repro.obs import get_observability
from repro.packets.trace import Trace
from repro.planner.costs import CostEstimator, QueryCosts
from repro.planner.ilp import PlanILP
from repro.planner.plans import Plan
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
            ) as span:
                estimator = CostEstimator(
                    self.queries,
                    self.trace,
                    config=self.config,
                    window=self.window,
                    max_levels=self.max_levels,
                    refinement_specs=self.refinement_specs,
                )
                self._costs = estimator.estimate()
                span.set_attribute("chain_runs", estimator.chain_runs)
                span.set_attribute(
                    "derived_transitions", estimator.derived_transitions
                )
        return self._costs

    # -- planning -----------------------------------------------------------
    def plan(
        self,
        mode: PlanningMode | str = PlanningMode.SONATA,
        solver: str = "ilp",
    ) -> Plan:
        """Produce a plan; ``solver`` is ``"ilp"`` or ``"greedy"``. The plan
        is installed on a fresh switch before it is returned
        (:meth:`verify`), so a plan the switch refuses raises here."""
        mode_value = PlanningMode(mode).value
        costs = self.costs()  # outside the solve span: estimation has its own
        with self.obs.span(
            "planner.solve", mode=mode_value, solver=solver
        ) as span:
            if solver not in ("ilp", "greedy"):
                raise PlanningError(f"unknown solver {solver!r}")
            ilp = PlanILP(
                costs=costs,
                config=self.config,
                mode=mode_value,
                max_delay=self.max_delay,
                time_limit=self.time_limit,
            )
            plan = ilp.solve() if solver == "ilp" else ilp.greedy()
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
        self.verify(plan)
        return plan

    def verify(self, plan: Plan) -> PISASwitch:
        """Install the plan on a fresh simulated switch; raises if infeasible.

        This closes the loop between the planner's resource model and the
        switch's install-time checks: a plan the ILP considers feasible
        must install cleanly.
        """
        return plan.install(PISASwitch(self.config))


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
