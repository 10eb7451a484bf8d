"""The joint partitioning + refinement ILP (Table 2 + §4.2).

Decision variables (names follow the paper):

- ``I[q,r]``        — refinement plan of query q includes level r;
- ``F[q,r1,r2]``    — level r2 executes after r1 for query q;
- ``P[q,sub,r1,r2,cut]`` — the sub-query instance at transition r1→r2 is
  cut after ``cut`` operators (cut 0 = nothing on the switch);
- ``X[q,sub,r1,r2,t,s]`` — *stateful* table t of that instance sits in
  stage s;
- ``Z[q,r1,r2]``    — some sub-query of q mirrors the raw stream at this
  transition (sub-queries of one query share a raw mirror stream, so the
  window's packet count is charged once per query, not per sub-query).

Constraints: C1 register bits/stage, C2 stateful actions/stage, C3 stage
count, C4 intra-query table ordering, C5 PHV metadata budget, plus the
refinement-path flow conservation and per-query detection-delay bound of
§4.2. Stateless tables use no stage, bit or stateful budget, so they get
no ``X``: C3/C4 become chain offsets on the stateful stages (a table at
chain index j starts at stage j or later, the tables after it fit below
S, consecutive stateful tables i < j sit at least j-i stages apart), and
the decoder places the stateless tables in the gaps. Cuts that no
placement can install (a chain longer than S, a register over the
single-register cap) are pinned to 0. Join sub-queries share the same
``I``/``F`` variables by construction, which is the paper's "both
sub-queries use the same refinement plan" constraint.

Table 4's baseline systems are emulated by fixing variables — e.g.
Fix-REF pins every ``I[q,r]`` to 1, All-SP pins every cut to 0 — exactly
the methodology of §6.1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.errors import PlanningError
from repro.core.operators import Filter
from repro.planner.costs import QueryCosts, TransitionCosts
from repro.planner.milp_model import MilpModel, MilpSolution
from repro.planner.plans import InstancePlan, Plan, QueryPlan
from repro.planner.refinement import ROOT_LEVEL, filter_table_name
from repro.switch.config import SwitchConfig
from repro.switch.tables import LogicalTable

#: Tie-break weights: when tuple costs are equal, prefer fewer refinement
#: levels (less detection delay) and *deeper* cuts (running as much of the
#: query as possible on the switch — a shallow cut with a zero training
#: cost would otherwise leave the switch idle and mirror freely at runtime).
_EPS_LEVEL = 1e-2
_EPS_SHALLOW_CUT = 1e-3


def _leading_filter_count(costs: TransitionCosts) -> int:
    count = 0
    for op in costs.augmented.operators:
        if isinstance(op, Filter):
            count += 1
        else:
            break
    return count


def allowed_cuts(costs: TransitionCosts, mode: str) -> list[int]:
    """The cuts planning ``mode`` may choose for one instance (Table 4)."""
    cuts = costs.cut_options()
    if mode == "all_sp":
        return [0]
    if mode == "filter_dp":
        limit = _leading_filter_count(costs)
        return [c for c in cuts if c <= limit]
    return cuts


@dataclass
class PlanILP:
    """Builds and decodes the query-planning MILP."""

    costs: dict[int, QueryCosts]
    config: SwitchConfig
    mode: str = "sonata"
    max_delay: dict[int, int] | None = None
    time_limit: float = 60.0
    #: Relative MIP gap at which HiGHS may stop; sweeps that solve many
    #: ILPs trade a little optimality for wall-clock (the paper similarly
    #: accepts the best solution found within a 20-minute limit).
    mip_gap: float = 1e-4

    def __post_init__(self) -> None:
        if self.mode not in ("sonata", "all_sp", "filter_dp", "max_dp", "fix_ref"):
            raise PlanningError(f"unknown planning mode {self.mode!r}")
        self.model = MilpModel(name=f"sonata-{self.mode}")
        self._refinement_allowed = self.mode in ("sonata", "fix_ref")

    # -- naming -----------------------------------------------------------
    @staticmethod
    def _iv(q: int, r: int) -> str:
        return f"I_{q}_{r}"

    @staticmethod
    def _fv(q: int, r1: int, r2: int) -> str:
        return f"F_{q}_{r1}_{r2}"

    @staticmethod
    def _pv(q: int, sub: int, r1: int, r2: int, cut: int) -> str:
        return f"P_{q}_{sub}_{r1}_{r2}_{cut}"

    @staticmethod
    def _xv(q: int, sub: int, r1: int, r2: int, t: int, s: int) -> str:
        return f"X_{q}_{sub}_{r1}_{r2}_{t}_{s}"

    @staticmethod
    def _zv(q: int, r1: int, r2: int) -> str:
        return f"Z_{q}_{r1}_{r2}"

    # -- construction ---------------------------------------------------------
    def _transitions_for(self, qc: QueryCosts) -> list[tuple[int, int]]:
        if qc.spec is None or not self._refinement_allowed:
            return [(ROOT_LEVEL, qc.native_level)]
        return sorted(qc.transitions.keys())

    def _levels_for(self, qc: QueryCosts) -> tuple[int, ...]:
        if qc.spec is None or not self._refinement_allowed:
            return (qc.native_level,)
        return qc.spec.levels

    def _unplaceable(self, tables: list[LogicalTable]) -> bool:
        """Can no stage placement install this cut's tables at all?

        A chain longer than the switch has stages breaks C3/C4, and a
        register over ``max_single_register_bits`` breaks the switch's
        single-register cap; the MILP pins such cuts to 0.
        """
        return len(tables) > self.config.stages or any(
            t.stateful and t.register_bits > self.config.max_single_register_bits
            for t in tables
        )

    def build(self) -> None:
        model = self.model
        n_stages = self.config.stages
        stages = range(n_stages)

        # Per-stage resource accumulators, filled while walking instances.
        bits_per_stage: list[dict[str, float]] = [dict() for _ in stages]
        stateful_per_stage: list[dict[str, float]] = [dict() for _ in stages]
        tables_installed: dict[str, float] = {}
        metadata_terms: dict[str, float] = {}
        objective: dict[str, float] = {}

        for qid, qc in self.costs.items():
            levels = self._levels_for(qc)
            finest = qc.native_level
            transitions = self._transitions_for(qc)

            # I variables over {root} ∪ levels.
            for r in (ROOT_LEVEL,) + tuple(levels):
                model.add_binary(self._iv(qid, r))
            model.add_equality({self._iv(qid, ROOT_LEVEL): 1.0}, 1.0)
            model.add_equality({self._iv(qid, finest): 1.0}, 1.0)
            if self.mode == "fix_ref" and qc.spec is not None:
                for r in levels:
                    model.add_equality({self._iv(qid, r): 1.0}, 1.0)
            if not self._refinement_allowed:
                for r in levels:
                    if r != finest:
                        model.add_equality({self._iv(qid, r): 1.0}, 0.0)

            # F variables and flow conservation (path root -> finest).
            for r1, r2 in transitions:
                model.add_binary(self._fv(qid, r1, r2))
            for r2 in levels:
                incoming = {
                    self._fv(qid, r1, r2): 1.0
                    for r1, rr2 in transitions
                    if rr2 == r2
                }
                if incoming:
                    incoming[self._iv(qid, r2)] = -1.0
                    model.add_equality(incoming, 0.0)
            for r1 in (ROOT_LEVEL,) + tuple(lvl for lvl in levels if lvl != finest):
                outgoing = {
                    self._fv(qid, rr1, r2): 1.0
                    for rr1, r2 in transitions
                    if rr1 == r1
                }
                if outgoing:
                    outgoing[self._iv(qid, r1)] = -1.0
                    model.add_equality(outgoing, 0.0)

            # Detection-delay bound (§4.2).
            delay_cap = (self.max_delay or {}).get(qid)
            if delay_cap is not None:
                model.add_constraint(
                    {self._iv(qid, r): 1.0 for r in levels}, upper=float(delay_cap)
                )

            # Tie-break: fewer levels.
            for r in levels:
                objective[self._iv(qid, r)] = (
                    objective.get(self._iv(qid, r), 0.0) + _EPS_LEVEL
                )

            # Per-transition instances.
            for r1, r2 in transitions:
                zname = model.add_binary(self._zv(qid, r1, r2))
                objective[zname] = qc.window_packets

                per_sub = qc.transitions[(r1, r2)]
                for subid, tc in per_sub.items():
                    cuts = allowed_cuts(tc, self.mode)
                    pnames = {}
                    # Tables installed by each cut: a prefix of the chain.
                    length = {}
                    max_cut = max(cuts)
                    for cut in cuts:
                        tables = tc.tables_for_cut(cut)
                        pname = model.add_var(
                            self._pv(qid, subid, r1, r2, cut),
                            integer=True,
                            upper=0.0 if self._unplaceable(tables) else 1.0,
                        )
                        pnames[cut] = pname
                        length[cut] = len(tables)
                        cost = tc.cost_of(cut)
                        objective[pname] = _EPS_SHALLOW_CUT * (max_cut - cut)
                        if cut > 0:
                            objective[pname] += cost.n_tuples
                        metadata_terms[pname] = float(cost.metadata_bits)
                        tables_installed[pname] = float(length[cut])
                    # Exactly F instances of this sub-query run.
                    coeffs = {p: 1.0 for p in pnames.values()}
                    coeffs[self._fv(qid, r1, r2)] = -1.0
                    model.add_equality(coeffs, 0.0)
                    # Raw mirror sharing.
                    if 0 in pnames:
                        model.add_constraint(
                            {zname: 1.0, pnames[0]: -1.0}, lower=0.0
                        )

                    # Stage binaries for the stateful tables only. The
                    # stateless tables around them need no variables: C4
                    # only asks for room, so chain offsets bound each
                    # stateful stage and the decoder places the rest.
                    prev: tuple[int, dict[str, float]] | None = None
                    for j, table in enumerate(tc.sized_tables):
                        if not table.stateful:
                            continue
                        xnames = [
                            model.add_binary(self._xv(qid, subid, r1, r2, j, s))
                            for s in stages
                        ]
                        stage_of = {x: float(s) for s, x in zip(stages, xnames)}
                        installers = [pnames[c] for c in cuts if length[c] > j]
                        # sum_s X = installed (= sum of cuts that include t).
                        coeffs = {x: 1.0 for x in xnames}
                        for p in installers:
                            coeffs[p] = -1.0
                        model.add_equality(coeffs, 0.0)

                        # The j tables before t need stages 0..stage(t)-1:
                        # stage(t) >= j * installed(t).
                        coeffs = dict(stage_of)
                        for p in installers:
                            coeffs[p] = -float(j)
                        model.add_constraint(coeffs, lower=0.0)
                        # The L_c-1-j tables after t need the stages above:
                        # stage(t) + sum_c P_c (L_c-1-j) <= S-1.
                        coeffs = dict(stage_of)
                        for c in cuts:
                            if length[c] > j + 1:
                                coeffs[pnames[c]] = float(length[c] - 1 - j)
                        model.add_constraint(coeffs, upper=float(n_stages - 1))

                        # The i..j gap to the previous stateful table holds
                        # its j-i-1 stateless tables: when t is installed,
                        # stage(t) - stage(t_i) >= j-i. The big-M must be
                        # S + (j-i): with S alone it would cap stage(t_i)
                        # at S-(j-i) when t is absent.
                        if prev is not None:
                            i, prev_stage_of = prev
                            big = float(n_stages + j - i)
                            coeffs = {
                                x: float(s) - big for s, x in zip(stages, xnames)
                            }
                            for name, value in prev_stage_of.items():
                                coeffs[name] = -value
                            model.add_constraint(coeffs, lower=float(j - i) - big)
                        prev = (j, stage_of)

                        # C1/C2 usage per stage.
                        for s, x in zip(stages, xnames):
                            stateful_per_stage[s][x] = 1.0
                            bits_per_stage[s][x] = float(table.register_bits)

        # C1/C2. A stateful table also takes a slot of the per-stage table
        # budget, so a stage holds at most min(A, that budget) of them.
        stateful_cap = min(
            self.config.stateful_actions_per_stage,
            self.config.stateless_actions_per_stage,
        )
        for s in stages:
            if bits_per_stage[s]:
                model.add_constraint(
                    bits_per_stage[s], upper=float(self.config.register_bits_per_stage)
                )
            if stateful_per_stage[s]:
                model.add_constraint(stateful_per_stage[s], upper=float(stateful_cap))
        # The per-stage table budget, summed over the switch; the decoder
        # checks it stage by stage.
        if tables_installed:
            model.add_constraint(
                tables_installed,
                upper=float(self.config.stateless_actions_per_stage * n_stages),
            )
        # C5: PHV metadata across all installed instances.
        if metadata_terms:
            model.add_constraint(
                metadata_terms, upper=float(self.config.metadata_bits)
            )

        model.set_objective(objective)

    # -- solve + decode ----------------------------------------------------
    def solve(self) -> Plan:
        """Solve the MILP; fall back to the greedy planner on a timeout.

        HiGHS may hit the time limit before finding *any* incumbent on the
        tightest instances (many queries, very few stages). The paper
        accepts "the best (possibly sub-optimal) solution" within its time
        budget; our equivalent floor is the resource-aware greedy planner,
        which always produces a feasible plan.
        """
        self.build()
        try:
            solution = self.model.solve(
                time_limit=self.time_limit, mip_rel_gap=self.mip_gap
            )
        except PlanningError:
            plan = self._greedy_plan()
            plan.solver_info["fallback"] = "greedy (MILP found no incumbent)"
            return plan
        plan = self._decode(solution)
        if solution.status != 0:
            # The time limit stopped branch-and-bound early; the incumbent
            # can be arbitrarily poor. The greedy heuristic is cheap — take
            # whichever plan is better ("the best solution found within the
            # period", as the paper does with its 20-minute cap).
            greedy = self._greedy_plan()
            if greedy.est_total_tuples < plan.est_total_tuples:
                greedy.solver_info["fallback"] = (
                    "greedy (beat the MILP's time-limited incumbent)"
                )
                return greedy
        return plan

    def _greedy_plan(self) -> Plan:
        from repro.planner.planner import GreedyPlanner

        return GreedyPlanner(
            self.costs, self.config, self.mode, self.max_delay
        ).solve()

    def _decode(self, solution: MilpSolution) -> Plan:
        query_plans: dict[int, QueryPlan] = {}
        total = 0.0
        for qid, qc in self.costs.items():
            levels = self._levels_for(qc)
            chosen_levels = tuple(
                r for r in levels if solution.binary(self._iv(qid, r))
            )
            transitions = [
                (r1, r2)
                for r1, r2 in self._transitions_for(qc)
                if solution.binary(self._fv(qid, r1, r2))
            ]
            transitions.sort(key=lambda pair: pair[1])
            instances: list[InstancePlan] = []
            for r1, r2 in transitions:
                for subid, tc in qc.transitions[(r1, r2)].items():
                    cut = None
                    for candidate in allowed_cuts(tc, self.mode):
                        if solution.binary(self._pv(qid, subid, r1, r2, candidate)):
                            cut = candidate
                            break
                    if cut is None:
                        raise PlanningError(
                            f"ILP chose transition {r1}->{r2} for q{qid}.s{subid} "
                            "but no cut"
                        )
                    tables = tc.tables_for_cut(cut)
                    assignment: dict[str, int] = {}
                    for j, table in enumerate(tables):
                        if not table.stateful:
                            continue
                        for s in range(self.config.stages):
                            if solution.binary(self._xv(qid, subid, r1, r2, j, s)):
                                assignment[table.name] = s
                                break
                    cost = tc.cost_of(cut)
                    instances.append(
                        InstancePlan(
                            qid=qid,
                            subid=subid,
                            r_prev=r1,
                            r_level=r2,
                            cut=cut,
                            augmented=tc.augmented,
                            compiled=tc.compiled,
                            tables=tables,
                            stage_assignment=assignment if tables else None,
                            residual_ops=tc.compiled.residual_operators(cut),
                            est_tuples=cost.n_tuples,
                            read_filter_table=(
                                filter_table_name(qid, r1)
                                if r1 != ROOT_LEVEL
                                else None
                            ),
                        )
                    )
            plan = QueryPlan(
                query=qc.query,
                spec=qc.spec,
                path=chosen_levels,
                instances=instances,
                relaxed_thresholds=qc.relaxed_thresholds,
            )
            query_plans[qid] = plan
            total += plan.est_tuples_per_window
        self._place_stateless(
            [inst for qp in query_plans.values() for inst in qp.instances]
        )
        return Plan(
            mode=self.mode,
            switch_config=self.config,
            query_plans=query_plans,
            est_total_tuples=total,
            solver_info={
                "objective": solution.objective,
                "status": solution.status,
                "message": solution.message,
                "variables": self.model.n_vars,
                "constraints": self.model.n_constraints,
            },
        )

    def _place_stateless(self, instances: list[InstancePlan]) -> None:
        """Give each stateless table the earliest stage it fits in.

        The MILP placed the stateful tables. A stateless table goes to the
        earliest stage after its predecessor whose table budget
        (``stateless_actions_per_stage``, stateful tables included) has
        room, and before its stateful successor. The chain-offset
        constraints leave enough stages for this whenever that budget
        does not bind; when it does, planning fails here.
        """
        budget = self.config.stateless_actions_per_stage
        used = Counter(
            stage
            for inst in instances
            if inst.stage_assignment
            for stage in inst.stage_assignment.values()
        )
        for inst in instances:
            if not inst.tables:
                continue
            placed: dict[str, int] = {}
            previous = -1
            for k, table in enumerate(inst.tables):
                if table.stateful:
                    stage = inst.stage_assignment[table.name]
                else:
                    limit = next(
                        (
                            inst.stage_assignment[t.name]
                            for t in inst.tables[k + 1:]
                            if t.stateful
                        ),
                        self.config.stages,
                    )
                    stage = next(
                        (s for s in range(previous + 1, limit) if used[s] < budget),
                        None,
                    )
                    if stage is None:
                        raise PlanningError(
                            f"{inst.key}: table {table.name} needs a stage in "
                            f"[{previous + 1}, {limit}) with room under the per-stage "
                            f"table budget (stateless_actions_per_stage={budget})"
                        )
                    used[stage] += 1
                placed[table.name] = stage
                previous = stage
            inst.stage_assignment = placed
