"""The ``PacketStream`` query DSL and query decomposition (§2).

A query is an ordered chain of dataflow operators over the packet stream::

    q = (PacketStream(name="newly_opened")
         .filter(("tcp.flags", "eq", TCP_SYN))
         .map(keys=("ipv4.dIP",), values=(Const(1),))
         .reduce(keys=("ipv4.dIP",), func="sum")
         .filter(("count", "gt", 40)))

``PacketStream`` is immutable: every operator call returns a new stream, so
partially-built queries can be shared. :class:`Query` is the planner-facing
wrapper that validates the chain, decomposes it at joins into linear
:class:`SubQuery` chains (joins always execute at the stream processor,
§3.1.2), and exposes refinement-key candidates (§4.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Sequence

from repro.core.errors import QueryValidationError
from repro.core.fields import FieldRegistry, FIELDS
from repro.core.operators import (
    Distinct,
    Filter,
    Join,
    Map,
    Operator,
    Predicate,
    Reduce,
    Schema,
    chain_schemas,
    ensure_expressions,
    resolve_value_fields,
)

_qid_counter = itertools.count(1)


def _coerce_predicates(args: tuple, level: int | None) -> tuple[Predicate, ...]:
    """Accept ``Predicate`` objects or ``(field, op, value)`` triples."""
    predicates: list[Predicate] = []
    for arg in args:
        if isinstance(arg, Predicate):
            predicates.append(arg)
        elif isinstance(arg, tuple) and len(arg) == 3:
            predicates.append(Predicate(arg[0], arg[1], arg[2], level=level))
        else:
            raise QueryValidationError(
                f"filter clause must be a Predicate or (field, op, value): {arg!r}"
            )
    return tuple(predicates)


class PacketStream:
    """An immutable chain of dataflow operators over the packet stream."""

    def __init__(
        self,
        name: str = "query",
        qid: int | None = None,
        window: float = 3.0,
        operators: tuple[Operator, ...] = (),
        registry: FieldRegistry = FIELDS,
    ) -> None:
        self.name = name
        self.qid = qid if qid is not None else next(_qid_counter)
        self.window = window
        self.operators = operators
        self.registry = registry

    # -- chaining -----------------------------------------------------
    def _extend(self, op: Operator) -> "PacketStream":
        return PacketStream(
            name=self.name,
            qid=self.qid,
            window=self.window,
            operators=self.operators + (op,),
            registry=self.registry,
        )

    def filter(self, *clauses: Any, level: int | None = None) -> "PacketStream":
        """Append a filter; clauses are ANDed ``(field, op, value)`` triples."""
        return self._extend(Filter(_coerce_predicates(clauses, level)))

    def map(
        self,
        keys: Sequence[Any] = (),
        values: Sequence[Any] = (),
    ) -> "PacketStream":
        """Append a projection/transformation to ``(keys..., values...)``."""
        return self._extend(
            Map(keys=ensure_expressions(tuple(keys)), values=ensure_expressions(tuple(values)))
        )

    def reduce(
        self,
        keys: Sequence[str],
        func: str = "sum",
        value_field: str | None = None,
        out: str = "count",
    ) -> "PacketStream":
        """Append a keyed aggregation over the window."""
        return self._extend(
            Reduce(keys=tuple(keys), func=func, value_field=value_field, out=out)
        )

    def distinct(self, keys: Sequence[str] = ()) -> "PacketStream":
        """Append per-window deduplication on ``keys`` (default all fields)."""
        return self._extend(Distinct(keys=tuple(keys)))

    def join(
        self, other: "PacketStream", keys: Sequence[str], how: str = "inner"
    ) -> "PacketStream":
        """Join with the output of another sub-query on ``keys``."""
        return self._extend(Join(right=other, keys=tuple(keys), how=how))

    # -- introspection --------------------------------------------------
    def schemas(self) -> list[Schema]:
        """Schema *after* each operator (index 0 = packet schema)."""
        return chain_schemas(self.operators, self.registry)

    def output_schema(self) -> Schema:
        return self.schemas()[-1]

    def validate(self) -> None:
        """Raise QueryValidationError on any schema mismatch in the chain."""
        self.schemas()
        for op in self.operators:
            if isinstance(op, Join):
                op.right.validate()

    def describe(self) -> str:
        return " -> ".join(op.describe() for op in self.operators) or "packetStream"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PacketStream({self.name!r}, qid={self.qid}, {self.describe()})"


@dataclass(frozen=True)
class SubQuery:
    """A linear (join-free) operator chain — the planner's unit of work.

    ``qid`` identifies the parent query; ``subid`` distinguishes the
    sub-queries produced by join decomposition. The data plane and the cost
    model both operate on sub-queries.
    """

    qid: int
    subid: int
    name: str
    operators: tuple[Operator, ...]
    window: float
    registry: FieldRegistry = FIELDS

    @property
    def key(self) -> tuple[int, int]:
        return (self.qid, self.subid)

    def schemas(self) -> list[Schema]:
        return chain_schemas(self.operators, self.registry)

    def output_schema(self) -> Schema:
        return self.schemas()[-1]

    @cached_property
    def resolved_operators(self) -> tuple[Operator, ...]:
        """The chain as the interpreters run it: every reduce's value field
        resolved from the schema (see :func:`resolve_value_fields`)."""
        return resolve_value_fields(
            self.operators, Schema.packet_schema(self.registry)
        )

    def stateful_operators(self) -> list[Operator]:
        return [op for op in self.operators if op.stateful]

    def refinement_key_candidates(self) -> list[str]:
        """Hierarchical fields usable as refinement keys (§4.1).

        Only keys of the *last* stateful operator qualify: replacing that
        key with a coarser version can only merge aggregates upward, so a
        ``count > Th`` filter can never miss traffic. Coarsening a
        mid-chain distinct key (e.g. dIP in the superspreader query) could
        merge distinct elements and *reduce* the final count — unsafe.
        The key must also reach the sub-query's output: a level's output
        keys fill the next-finer level's filter table, so a key the chain
        drops or renames could never zoom in.
        """
        schemas = self.schemas()
        last: tuple[Operator, Schema] | None = None
        for op, schema in zip(self.operators, schemas):
            if op.stateful:
                last = (op, schema)
        if last is None:
            return []
        op, schema = last
        if isinstance(op, Reduce):
            keys: Iterable[str] = op.keys
        elif isinstance(op, Distinct):
            keys = op.effective_keys(schema)
        else:
            raise QueryValidationError(f"unknown stateful operator {op!r}")
        candidates: list[str] = []
        output = schemas[-1]
        for key in keys:
            if (
                key in self.registry
                and self.registry.get(key).hierarchical
                and output.has(key)
            ):
                if key not in candidates:
                    candidates.append(key)
        return candidates

    def describe(self) -> str:
        return " -> ".join(op.describe() for op in self.operators)


@dataclass(frozen=True)
class JoinNode:
    """A node of the stream-processor join tree.

    ``left``/``right`` are either ``int`` sub-query ids (leaves, referring
    to ``Query.subqueries``) or nested :class:`JoinNode`. ``post_ops`` are
    the operators applied to the joined stream before the next join (or the
    query output).
    """

    left: "int | JoinNode"
    right: "int | JoinNode"
    keys: tuple[str, ...]
    how: str
    post_ops: tuple[Operator, ...]  # reduce value fields resolved


class Query:
    """A validated query plus its join decomposition."""

    def __init__(self, stream: PacketStream) -> None:
        stream.validate()
        self.stream = stream
        self.name = stream.name
        self.qid = stream.qid
        self.window = stream.window
        self.subqueries: list[SubQuery] = []
        self._subid_counter = itertools.count(0)
        self.join_tree: int | JoinNode = self._decompose(stream)

    # -- decomposition ---------------------------------------------------
    def _new_subquery(self, ops: tuple[Operator, ...], label: str) -> int:
        subid = next(self._subid_counter)
        self.subqueries.append(
            SubQuery(
                qid=self.qid,
                subid=subid,
                name=f"{self.name}.{label}{subid}",
                operators=ops,
                window=self.window,
                registry=self.stream.registry,
            )
        )
        return subid

    def _decompose(self, stream: PacketStream) -> int | JoinNode:
        """Split the operator chain at joins into linear sub-queries."""
        ops = stream.operators
        join_positions = [i for i, op in enumerate(ops) if isinstance(op, Join)]
        if not join_positions:
            return self._new_subquery(ops, "sq")

        schemas = stream.schemas()
        first = join_positions[0]
        node: int | JoinNode = self._new_subquery(ops[:first], "sq")
        index = first
        while index < len(ops):
            join = ops[index]
            if not isinstance(join, Join):
                raise QueryValidationError(f"expected a join at operator {index}: {join!r}")
            right_node = self._decompose(join.right)
            next_join = next(
                (i for i in range(index + 1, len(ops)) if isinstance(ops[i], Join)),
                len(ops),
            )
            node = JoinNode(
                left=node,
                right=right_node,
                keys=join.keys,
                how=join.how,
                post_ops=resolve_value_fields(
                    ops[index + 1 : next_join], schemas[index + 1]
                ),
            )
            index = next_join
        return node

    # -- introspection ----------------------------------------------------
    @property
    def has_join(self) -> bool:
        return isinstance(self.join_tree, JoinNode)

    def subquery(self, subid: int) -> SubQuery:
        return self.subqueries[subid]

    def output_schema(self) -> Schema:
        return self.stream.output_schema()

    def refinement_key_candidates(self) -> dict[int, list[str]]:
        """Candidates per sub-query id."""
        return {
            sq.subid: sq.refinement_key_candidates() for sq in self.subqueries
        }

    def describe(self) -> str:
        lines = [f"query {self.name} (qid={self.qid}, W={self.window}s)"]
        for sq in self.subqueries:
            lines.append(f"  sub{sq.subid}: {sq.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Query({self.name!r}, qid={self.qid}, subqueries={len(self.subqueries)})"
