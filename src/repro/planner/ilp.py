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
  window's packet count is charged once per query, not per sub-query);
- ``H[f]``          — some chosen cut reads header field f (only when the
  fields read could overrun the parser's PHV header budget).

Constraints: C1 register bits/stage, C2 stateful actions/stage, C3 stage
count, C4 intra-query table ordering, C5 PHV metadata budget, the PHV
header budget, plus the refinement-path flow conservation and per-query
detection-delay bound of §4.2. The resource rows read the switch's own
install rules in :mod:`repro.switch.resources`: per-stage rows sum each
stateful table's :func:`~repro.switch.resources.stage_demand`, cuts with a
:func:`~repro.switch.resources.chain_violation` are pinned to 0, and the
decoder places tables with a :class:`~repro.switch.resources.StageLedger`.
Stateless tables use no stage, bit or stateful budget, so they get no
``X``: C3/C4 become chain offsets on the stateful stages (a table at chain
index j starts at stage j or later, the tables after it fit below S,
consecutive stateful tables i < j sit at least j-i stages apart), and the
decoder places the stateless tables in the gaps. Join sub-queries share
the same ``I``/``F`` variables by construction, which is the paper's "both
sub-queries use the same refinement plan" constraint.

The MILP is built only when a switch budget binds. :meth:`PlanILP.solve`
first takes each query's own optimum with the rows that couple queries
dropped (the per-stage rows, the table total, C5 and the header budget):
it enumerates the refinement paths the mode and delay cap allow and, per
transition, takes the cheaper of every sub-query on the switch or one
shared raw mirror. Dropping rows relaxes the MILP, so when the union of
those optima places on one switch and fits C5 and the header budget, it
is the joint optimum. Ties keep the first path in a fixed order and the
deeper cut. Otherwise the MILP is built and solved, and a placement it
cannot decode falls back to :meth:`PlanILP.greedy`. The greedy heuristic
walks the same per-query choices, ranked by the same pricing, and
installs them on a simulated switch one query at a time.

Table 4's baseline systems are emulated by fixing variables — e.g.
Fix-REF pins every ``I[q,r]`` to 1, All-SP pins every cut to 0 — exactly
the methodology of §6.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.errors import PlanningError, ResourceExhaustedError
from repro.core.operators import Filter
from repro.planner.costs import QueryCosts, TransitionCosts
from repro.planner.milp_model import MilpModel, MilpSolution
from repro.planner.plans import InstancePlan, Plan, QueryPlan, instance_key
from repro.planner.refinement import ROOT_LEVEL
from repro.switch.compiler import CompiledSubQuery
from repro.switch.config import SwitchConfig
from repro.switch.resources import (
    STAGE_BUDGETS,
    StageLedger,
    chain_violation,
    header_fields,
    over_budget,
    stage_demand,
)
from repro.switch.simulator import PISASwitch

#: Tie-break weights: when tuple costs are equal, prefer fewer refinement
#: levels (less detection delay) and *deeper* cuts (running as much of the
#: query as possible on the switch — a shallow cut with a zero training
#: cost would otherwise leave the switch idle and mirror freely at runtime).
_EPS_LEVEL = 1e-2
_EPS_SHALLOW_CUT = 1e-3

#: One query's decision: its refinement path and, per transition on it,
#: sub-query id -> cut.
Choice = tuple[tuple[int, ...], dict[tuple[int, int], dict[int, int]]]


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
    """Plans queries: the per-query optima when no switch budget binds,
    else the query-planning MILP, built and decoded here."""

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

    def build(self) -> None:
        model = self.model
        n_stages = self.config.stages
        stages = range(n_stages)

        # Per-stage rows by SwitchConfig budget, filled while walking
        # instances: budget -> stage -> {X: demand}.
        stage_rows: dict[str, list[dict[str, float]]] = {
            b: [{} for _ in stages] for b in STAGE_BUDGETS
        }
        tables_installed: dict[str, float] = {}
        header_cuts: list[tuple[CompiledSubQuery, dict[int, str]]] = []
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
                            upper=0.0 if chain_violation(tables, self.config) else 1.0,
                        )
                        pnames[cut] = pname
                        length[cut] = len(tables)
                        cost = tc.cost_of(cut)
                        objective[pname] = _EPS_SHALLOW_CUT * (max_cut - cut)
                        if cut > 0:
                            objective[pname] += cost.n_tuples
                        metadata_terms[pname] = float(cost.metadata_bits)
                        tables_installed[pname] = float(length[cut])
                    header_cuts.append((tc.compiled, pnames))
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

                        for budget, amount in stage_demand(table).items():
                            rows = stage_rows[budget]
                            for s, x in zip(stages, xnames):
                                rows[s][x] = float(amount)

        # C1/C2 and the table slots of the stateful tables, per stage. Rows
        # with equal coefficients (a stateful action takes one table slot)
        # fold into one with the tighter budget.
        for s in stages:
            folded: dict[tuple, float] = {}
            for budget, rows in stage_rows.items():
                coeffs = rows[s]
                if coeffs:
                    row = tuple(coeffs.items())
                    cap = float(getattr(self.config, budget))
                    folded[row] = min(cap, folded.get(row, cap))
            for row, cap in folded.items():
                model.add_constraint(dict(row), upper=cap)
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
        self._header_budget(header_cuts)

        model.set_objective(objective)

    def _header_budget(
        self, header_cuts: list[tuple[CompiledSubQuery, dict[int, str]]]
    ) -> None:
        """The parser's PHV header budget over the union of fields read:
        ``H_f = 1`` when any chosen cut reads f. The rows are added only
        when all the fields read together could exceed the budget."""
        widths: dict[str, int] = {}
        for compiled, pnames in header_cuts:  # a deeper cut reads a superset
            widths.update(header_fields(compiled, max(pnames)))
        if not over_budget("phv_header_bits", sum(widths.values()), self.config):
            return
        readers: dict[str, list[str]] = {}
        for compiled, pnames in header_cuts:
            for cut, pname in pnames.items():
                for name in header_fields(compiled, cut):
                    readers.setdefault(name, []).append(pname)
        terms: dict[str, float] = {}
        for name, pvars in sorted(readers.items()):
            hname = self.model.add_binary(f"H_{name}")
            coeffs = {p: 1.0 for p in pvars}
            coeffs[hname] = -float(len(pvars))
            self.model.add_constraint(coeffs, upper=0.0)
            terms[hname] = float(widths[name])
        self.model.add_constraint(terms, upper=float(self.config.phv_header_bits))

    # -- solve -------------------------------------------------------------
    def solve(self) -> Plan:
        """The optimal plan: the separable one when no switch budget binds
        (:meth:`_separable_plan`), else the joint MILP's."""
        plan, declined = self._separable_plan()
        if plan is None:
            plan = self._milp_plan()
            plan.solver_info["separable_declined"] = declined
        return plan

    # -- the separable optimum -------------------------------------------------
    def _separable_plan(self) -> tuple[Plan | None, str]:
        """Each query at its own optimum, or None and the budget that binds.

        Queries meet only in the switch budgets: the per-stage rows, the
        table total, C5 and the header budget. Without those rows the MILP
        splits into one problem per query, and its minimum bounds the joint
        optimum from below. So when the union of the per-query optima
        places on one switch and fits C5 and the header budget, it is the
        joint optimum, and no MILP is built.
        """
        choices: dict[int, Choice] = {}
        objective = 0.0
        for qid, qc in self.costs.items():
            score, choices[qid] = self._ranked_choices(qid, qc)[0]
            objective += score
        overrun = self._shared_overrun(choices)
        if overrun:
            return None, overrun
        try:
            plan = self._assemble(choices, {})
        except ResourceExhaustedError as exc:
            return None, str(exc)
        plan.solver_info = {
            "solver": "separable",
            "objective": objective,
            "status": 0,
            "variables": 0,
            "constraints": 0,
        }
        return plan, ""

    def _ranked_choices(self, qid: int, qc: QueryCosts) -> list[tuple[float, Choice]]:
        """Every choice of one query alone with its objective, least first:
        each refinement path the mode and delay cap allow, at its cheapest
        cuts. Paths come in a fixed order (by bitmask over the coarse
        levels) and the sort is stable, so the first of equal objectives
        leads. Raises PlanningError when no path is within the cap."""
        levels = self._levels_for(qc)
        inner = levels[:-1]
        paths = [levels] if self.mode == "fix_ref" else [
            tuple(r for i, r in enumerate(inner) if mask >> i & 1) + levels[-1:]
            for mask in range(1 << len(inner))
        ]
        cap = (self.max_delay or {}).get(qid)
        within = [path for path in paths if cap is None or len(path) <= cap]
        if not within:
            raise PlanningError(
                f"q{qid}: no {self.mode} refinement path within max_delay={cap} "
                f"(the shortest has {min(map(len, paths))} levels)"
            )
        priced: dict[tuple[int, int], tuple[float, dict[int, int]]] = {}
        ranked: list[tuple[float, Choice]] = []
        for path in within:
            steps = list(zip((ROOT_LEVEL,) + path, path))
            for step in steps:
                if step not in priced:
                    priced[step] = self._transition_optimum(qc, step)
            score = _EPS_LEVEL * len(path) + sum(priced[step][0] for step in steps)
            ranked.append((score, (path, {step: priced[step][1] for step in steps})))
        return sorted(ranked, key=lambda entry: entry[0])

    def _transition_optimum(
        self, qc: QueryCosts, step: tuple[int, int]
    ) -> tuple[float, dict[int, int]]:
        """The least objective of one transition and its cut per sub-query:
        either every sub-query runs on the switch, or one raw mirror stream
        (``Z``, charged once) is open and each sub-query may read it. Of
        equal-scored cuts the deeper is kept."""
        on_switch, with_mirror = 0.0, qc.window_packets
        switch_cuts: dict[int, int] = {}
        mirror_cuts: dict[int, int] = {}
        for subid, tc in qc.transitions[step].items():
            cuts = allowed_cuts(tc, self.mode)
            deepest = max(cuts)
            best_cut, best = 0, math.inf
            for cut in sorted(cuts, reverse=True):
                if cut == 0 or chain_violation(tc.tables_for_cut(cut), self.config):
                    continue
                score = tc.cost_of(cut).n_tuples + _EPS_SHALLOW_CUT * (deepest - cut)
                if score < best:
                    best_cut, best = cut, score
            raw = _EPS_SHALLOW_CUT * deepest
            on_switch += best
            with_mirror += min(best, raw)
            switch_cuts[subid] = best_cut
            mirror_cuts[subid] = best_cut if best <= raw else 0
        if with_mirror < on_switch:
            return with_mirror, mirror_cuts
        return on_switch, switch_cuts

    def _shared_overrun(self, choices: dict[int, Choice]) -> str | None:
        """C5 or the parser's header budget, when the chosen cuts together
        overrun it."""
        metadata = 0
        widths: dict[str, int] = {}
        for qid, (_, cuts) in choices.items():
            for step, per_sub in cuts.items():
                for subid, cut in per_sub.items():
                    tc = self.costs[qid].transitions[step][subid]
                    metadata += tc.cost_of(cut).metadata_bits
                    widths.update(header_fields(tc.compiled, cut))
        return over_budget("metadata_bits", metadata, self.config) or over_budget(
            "phv_header_bits", sum(widths.values()), self.config
        )

    # -- the joint MILP --------------------------------------------------------
    def _milp_plan(self) -> Plan:
        """Solve the joint MILP; fall back to :meth:`greedy` when it
        finds no incumbent, or its stages do not place.

        HiGHS may hit the time limit before finding *any* incumbent on the
        tightest instances (many queries, very few stages). The paper
        accepts "the best (possibly sub-optimal) solution" within its time
        budget; our equivalent floor is the resource-aware greedy heuristic,
        which always produces a feasible plan.
        """
        self.build()
        try:
            solution = self.model.solve(
                time_limit=self.time_limit, mip_rel_gap=self.mip_gap
            )
        except PlanningError:
            plan = self.greedy()
            plan.solver_info["fallback"] = "greedy (MILP found no incumbent)"
            return plan
        try:
            plan = self._assemble(*self._decode(solution))
        except ResourceExhaustedError as exc:
            # The MILP counts table slots over the whole switch only, so its
            # stages can leave a stage without a free slot.
            plan = self.greedy()
            plan.solver_info["fallback"] = f"greedy (MILP stages do not place: {exc})"
            return plan
        plan.solver_info = {
            "solver": "milp",
            "objective": solution.objective,
            "status": solution.status,
            "message": solution.message,
            "variables": self.model.n_vars,
            "constraints": self.model.n_constraints,
        }
        if solution.status != 0:
            # The time limit stopped branch-and-bound early; the incumbent
            # can be arbitrarily poor. The greedy heuristic is cheap — take
            # whichever plan is better ("the best solution found within the
            # period", as the paper does with its 20-minute cap).
            greedy = self.greedy()
            if greedy.est_total_tuples < plan.est_total_tuples:
                greedy.solver_info["fallback"] = (
                    "greedy (beat the MILP's time-limited incumbent)"
                )
                return greedy
        return plan

    # -- the greedy heuristic --------------------------------------------------
    def greedy(self) -> Plan:
        """A feasible plan without the MILP: §8's heuristic for expediting
        planning, and the MILP's fallback.

        Queries in qid order each take the first of their ranked choices
        (:meth:`_ranked_choices`) that installs on one switch beside the
        queries before them. An instance starts at its priced cut and steps
        down to shallower cuts only while the switch refuses it; a choice
        with an instance that installs at no cut is dropped. A query with
        no choice left runs all at the stream processor.
        """
        switch = PISASwitch(self.config)
        choices: dict[int, Choice] = {}
        stages: dict[str, dict[str, int]] = {}
        for qid, qc in sorted(self.costs.items()):
            for _, (path, priced) in self._ranked_choices(qid, qc):
                cuts = self._install_choice(switch, qid, qc, path, priced, stages)
                if cuts is not None:
                    break
            else:
                path = (qc.native_level,)
                step = (ROOT_LEVEL, qc.native_level)
                cuts = {step: dict.fromkeys(qc.transitions[step], 0)}
            choices[qid] = (path, cuts)
        plan = self._assemble(choices, stages)
        plan.solver_info = {"solver": "greedy"}
        return plan

    def _install_choice(
        self,
        switch: PISASwitch,
        qid: int,
        qc: QueryCosts,
        path: tuple[int, ...],
        priced: dict[tuple[int, int], dict[int, int]],
        stages: dict[str, dict[str, int]],
    ) -> dict[tuple[int, int], dict[int, int]] | None:
        """Install one query's path on ``switch``, each instance at the
        deepest cut up to its priced one that the switch accepts. Returns
        the cuts and records each installed instance's stages in
        ``stages``; None, with nothing left installed, when an instance
        priced on the switch installs at no cut."""
        cuts: dict[tuple[int, int], dict[int, int]] = {}
        installed: list[str] = []
        for step in zip((ROOT_LEVEL,) + path, path):
            cuts[step] = {}
            for subid, tc in qc.transitions[step].items():
                key = instance_key(qid, subid, *step)
                want = priced[step][subid]
                cut = 0
                for option in sorted(allowed_cuts(tc, self.mode), reverse=True):
                    if not 0 < option <= want:
                        continue
                    try:
                        placed = switch.install(
                            key, tc.compiled, option, tc.tables_for_cut(option)
                        )
                    except ResourceExhaustedError:
                        continue
                    cut = option
                    installed.append(key)
                    stages[key] = dict(placed.stage_of)
                    break
                if want and not cut:
                    for done in installed:
                        switch.uninstall(done)
                        del stages[done]
                    return None
                cuts[step][subid] = cut
        return cuts

    def _decode(
        self, solution: MilpSolution
    ) -> tuple[dict[int, Choice], dict[str, dict[str, int]]]:
        """The solution's choice per query, and the stage it gives each
        installed stateful table, by instance key."""
        choices: dict[int, Choice] = {}
        fixed: dict[str, dict[str, int]] = {}
        for qid, qc in self.costs.items():
            path = tuple(
                r for r in self._levels_for(qc) if solution.binary(self._iv(qid, r))
            )
            cuts: dict[tuple[int, int], dict[int, int]] = {}
            for r1, r2 in zip((ROOT_LEVEL,) + path, path):
                per_sub = cuts[(r1, r2)] = {}
                for subid, tc in qc.transitions[(r1, r2)].items():
                    cut = next(
                        (
                            c
                            for c in allowed_cuts(tc, self.mode)
                            if solution.binary(self._pv(qid, subid, r1, r2, c))
                        ),
                        None,
                    )
                    if cut is None:
                        raise PlanningError(
                            f"ILP chose transition {r1}->{r2} for q{qid}.s{subid} "
                            "but no cut"
                        )
                    per_sub[subid] = cut
                    fixed[instance_key(qid, subid, r1, r2)] = {
                        table.name: s
                        for j, table in enumerate(tc.tables_for_cut(cut))
                        if table.stateful
                        for s in range(self.config.stages)
                        if solution.binary(self._xv(qid, subid, r1, r2, j, s))
                    }
            choices[qid] = (path, cuts)
        return choices, fixed

    # -- both paths ----------------------------------------------------------
    def _assemble(
        self, choices: dict[int, Choice], fixed: dict[str, dict[str, int]]
    ) -> Plan:
        """Place the chosen cuts on one switch and build the plan. A stateful
        table in ``fixed`` (the MILP's stages, by instance key) keeps its
        stage; every other table goes to the earliest stage with room (C4
        and the per-stage budgets). Raises ResourceExhaustedError naming
        the instance, the table and the budget when a table finds none."""
        ledger = StageLedger(self.config)
        query_plans: dict[int, QueryPlan] = {}
        for qid, (path, cuts) in choices.items():
            qc = self.costs[qid]
            instances: list[InstancePlan] = []
            for step in zip((ROOT_LEVEL,) + path, path):
                for subid, tc in qc.transitions[step].items():
                    cut = cuts[step][subid]
                    tables = tc.tables_for_cut(cut)
                    key = instance_key(qid, subid, *step)
                    try:
                        stage_of = (
                            ledger.place(tables, fixed.get(key, {})) if tables else None
                        )
                    except ResourceExhaustedError as exc:
                        raise ResourceExhaustedError(f"{key}: {exc}") from None
                    instances.append(tc.instance_plan(cut, stage_of))
            query_plans[qid] = QueryPlan(
                query=qc.query,
                spec=qc.spec,
                path=path,
                instances=instances,
                relaxed_thresholds=qc.relaxed_thresholds,
            )
        return Plan(
            mode=self.mode,
            switch_config=self.config,
            query_plans=query_plans,
            est_total_tuples=sum(p.est_tuples_per_window for p in query_plans.values()),
        )
