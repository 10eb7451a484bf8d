"""Dynamic query refinement: keys, levels, and query augmentation (§4.1).

A *refinement key* is a hierarchical field used as a key of a stateful
operator; executing the query at a coarser level of that key cannot miss
traffic that satisfies the original query (for threshold queries of the
``count > Th`` form). The planner augments the query per refinement
transition ``r_prev -> r``:

- a filter keeps only packets whose key, coarsened to ``r_prev``, was
  reported by the previous window's execution at level ``r_prev``
  (matched against a runtime-updated filter table);
- every map expression producing the key is coarsened to level ``r``;
- trailing thresholds are relaxed to the training-data minimum so coarser
  levels stay correct but prune aggressively (Figure 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import PlanningError
from repro.core.expressions import Expression, FieldRef, Prefixed
from repro.core.fields import FIELDS, FieldRegistry
from repro.core.operators import Filter, Map, Operator, Predicate, Reduce
from repro.core.query import Query, SubQuery

#: The root (coarsest possible) pseudo-level: "no key restriction".
ROOT_LEVEL = 0


@dataclass(frozen=True)
class RefinementSpec:
    """The refinement key and candidate levels for one query."""

    key_field: str
    levels: tuple[int, ...]  # ascending, finest (native) level last

    @property
    def finest(self) -> int:
        return self.levels[-1]

    def transitions(self) -> list[tuple[int, int]]:
        """All (r_prev, r) pairs with r_prev coarser than r, plus root."""
        levels = (ROOT_LEVEL,) + self.levels
        return [
            (levels[i], levels[j])
            for i in range(len(levels))
            for j in range(i + 1, len(levels))
            if levels[j] != ROOT_LEVEL
        ]


def choose_refinement_spec(
    query: Query,
    max_levels: int = 8,
    registry: FieldRegistry = FIELDS,
) -> RefinementSpec | None:
    """Pick the refinement key shared by all sub-queries, if any (§4.1).

    Joined sub-queries must share a refinement plan (§4.2), so the key must
    be a stateful key in *every* sub-query. Destination-IP keys are
    preferred (they are the common case in the Table 3 queries). Returns
    None when the query cannot benefit from refinement.
    """
    # Only sub-queries with stateful operators constrain the key choice; a
    # stateless sub-query (e.g. the payload side of the Zorro query) is
    # simply filtered by the coarser levels' results and activates fully at
    # the native level (see the Figure 9 case study, where payload
    # processing starts only once the victim /32 is identified).
    stateful_candidates = [
        sq.refinement_key_candidates()
        for sq in query.subqueries
        if sq.stateful_operators()
    ]
    if not stateful_candidates or any(not c for c in stateful_candidates):
        return None
    common = set(stateful_candidates[0])
    for candidates in stateful_candidates[1:]:
        common &= set(candidates)
    if not common:
        return None
    preferred = ("ipv4.dIP", "ipv4.sIP", "dns.rr.name")
    key = next((k for k in preferred if k in common), sorted(common)[0])
    hierarchy = registry.get(key).hierarchy
    if len(hierarchy) > max_levels:
        # Keep an evenly spread subset that always includes the native
        # (finest) level — e.g. 8 IPv4 levels capped at 4 gives
        # /8, /16, /24, /32.
        step = len(hierarchy) / max_levels
        picked = sorted(
            {len(hierarchy) - 1 - int(round(i * step)) for i in range(max_levels)}
        )
        hierarchy = tuple(hierarchy[i] for i in picked if i >= 0)
    if hierarchy[-1] != registry.get(key).hierarchy[-1]:
        raise PlanningError("refinement levels must end at the native level")
    return RefinementSpec(key_field=key, levels=tuple(hierarchy))


def filter_table_name(qid: int, level: int) -> str:
    """Name of the dynamic filter table holding level-``level`` results."""
    return f"ref_q{qid}_lvl{level}"


def _coarsen_expression(expr: Expression, key_field: str, level: int) -> Expression:
    """Rewrite a map expression so the refinement key emerges coarsened."""
    if isinstance(expr, FieldRef) and expr.field == key_field:
        return Prefixed(field=key_field, level=level, rename=expr.rename)
    if isinstance(expr, Prefixed) and expr.field == key_field:
        return Prefixed(
            field=key_field, level=min(expr.level, level), rename=expr.rename
        )
    return expr


def augment_operators(
    subquery: SubQuery,
    spec: RefinementSpec,
    r_prev: int,
    r_level: int,
    relaxed_thresholds: dict[str, int] | None = None,
    registry: FieldRegistry = FIELDS,
) -> tuple[Operator, ...]:
    """Build the augmented operator chain for transition ``r_prev -> r``.

    ``relaxed_thresholds`` maps threshold-filter field names (e.g.
    ``"count"``) to the relaxed value for ``r_level``; absent entries keep
    the original thresholds (always correct, §4.1).
    """
    if r_level == ROOT_LEVEL:
        raise PlanningError("cannot execute a query at the root pseudo-level")
    native = registry.get(spec.key_field).hierarchy[-1]
    ops: list[Operator] = []
    if r_prev != ROOT_LEVEL:
        ops.append(
            Filter(
                (
                    Predicate(
                        spec.key_field,
                        "in",
                        filter_table_name(subquery.qid, r_prev),
                        level=r_prev,
                    ),
                )
            )
        )

    saw_map_of_key = False
    for op in subquery.operators:
        if isinstance(op, Map) and r_level != native:
            new_keys = tuple(
                _coarsen_expression(e, spec.key_field, r_level) for e in op.keys
            )
            new_values = tuple(
                _coarsen_expression(e, spec.key_field, r_level) for e in op.values
            )
            if new_keys != op.keys or new_values != op.values:
                saw_map_of_key = True
            ops.append(Map(keys=new_keys, values=new_values))
            continue
        if isinstance(op, Map):
            saw_map_of_key = saw_map_of_key or any(
                spec.key_field in e.inputs() for e in op.keys + op.values
            )
        if isinstance(op, Filter) and relaxed_thresholds:
            new_preds = []
            changed = False
            for pred in op.predicates:
                if pred.op in ("gt", "ge") and pred.field in relaxed_thresholds:
                    new_preds.append(
                        Predicate(
                            pred.field,
                            pred.op,
                            relaxed_thresholds[pred.field],
                            level=pred.level,
                        )
                    )
                    changed = True
                else:
                    new_preds.append(pred)
            ops.append(Filter(tuple(new_preds)) if changed else op)
            continue
        ops.append(op)

    if r_level != native and not saw_map_of_key:
        raise PlanningError(
            f"{subquery.name}: refinement key {spec.key_field} is never mapped; "
            "cannot coarsen this sub-query"
        )
    return tuple(ops)


def trailing_thresholds(subquery: SubQuery) -> list[Predicate]:
    """The gt/ge predicates on aggregate fields in the sub-query's filters.

    These are the thresholds dynamic refinement relaxes (§4.1) and the ones
    network-wide execution moves to the central collector.
    """
    reduce_outs = {
        op.out for op in subquery.operators if isinstance(op, Reduce)
    }
    return [
        pred
        for op in subquery.operators
        if isinstance(op, Filter)
        for pred in op.predicates
        if pred.op in ("gt", "ge") and pred.field in reduce_outs
    ]


def trailing_threshold_fields(subquery: SubQuery) -> dict[str, int]:
    """The value of each trailing threshold, by field."""
    return {pred.field: int(pred.value) for pred in trailing_thresholds(subquery)}


def without_thresholds(
    operators: "tuple[Operator, ...]", threshold_fields: set[str]
) -> tuple[Operator, ...]:
    """Drop filters that only threshold the given aggregate fields."""
    ops: list[Operator] = []
    for op in operators:
        if isinstance(op, Filter) and all(
            p.field in threshold_fields for p in op.predicates
        ):
            continue
        ops.append(op)
    return tuple(ops)


def scale_thresholds(
    operators: "tuple[Operator, ...]",
    threshold_fields: set[str],
    divisor: int,
) -> tuple[Operator, ...]:
    """Divide the given trailing thresholds by ``divisor`` (floor, >= 0).

    Used by network-wide execution: if a key's network-wide aggregate
    exceeds Th, some switch sees at least Th/n locally (pigeonhole), so
    scaled local thresholds preserve candidate generation.
    """
    ops: list[Operator] = []
    for op in operators:
        if isinstance(op, Filter) and any(
            p.field in threshold_fields for p in op.predicates
        ):
            new_preds = tuple(
                Predicate(p.field, p.op, int(p.value) // divisor, level=p.level)
                if p.field in threshold_fields and p.op in ("gt", "ge")
                else p
                for p in op.predicates
            )
            ops.append(Filter(new_preds))
            continue
        ops.append(op)
    return tuple(ops)


def can_coarsen(subquery: SubQuery, spec: RefinementSpec, r_level: int) -> bool:
    """Whether the sub-query can execute at a non-native level.

    Stateless sub-queries that never map the refinement key cannot be
    coarsened; the planner keeps them *inactive* at coarse levels and the
    join output of the remaining (stateful) sub-queries drives refinement.
    """
    if r_level == spec.levels[-1]:
        return True
    try:
        augment_operators(subquery, spec, ROOT_LEVEL, r_level)
    except PlanningError:
        return False
    return True


def augmented_subquery(
    subquery: SubQuery,
    spec: RefinementSpec,
    r_prev: int,
    r_level: int,
    relaxed_thresholds: dict[str, int] | None = None,
) -> SubQuery:
    """A :class:`SubQuery` clone running at transition ``r_prev -> r``."""
    return SubQuery(
        qid=subquery.qid,
        subid=subquery.subid,
        name=f"{subquery.name}@{r_prev}->{r_level}",
        operators=augment_operators(
            subquery, spec, r_prev, r_level, relaxed_thresholds
        ),
        window=subquery.window,
        registry=subquery.registry,
    )
