"""Dataflow operators: filter, map, reduce, distinct, join (§2.1).

Operators are immutable descriptions; execution lives in the engines
(:mod:`repro.streaming`, :mod:`repro.analytics`, :mod:`repro.switch`). Each
operator can compute its output :class:`Schema` from an input schema, report
whether it is stateful, and report whether a given switch target can execute
it — the two facts the query planner needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.core.errors import QueryValidationError
from repro.core.expressions import Expression, FieldRef, as_expression
from repro.core.fields import FieldRegistry, FIELDS, coarsen_value


@dataclass(frozen=True)
class Schema:
    """The shape of tuples flowing between operators.

    ``keys`` identify the grouping part of the tuple and ``values`` the
    aggregation part; ``widths`` gives per-field bit widths for data-plane
    metadata accounting. The initial packet-stream schema exposes every
    registered packet field as a key.
    """

    keys: tuple[str, ...]
    values: tuple[str, ...]
    widths: Mapping[str, int]

    @property
    def fields(self) -> tuple[str, ...]:
        return self.keys + self.values

    def has(self, name: str) -> bool:
        return name in self.keys or name in self.values

    def width_of(self, name: str) -> int:
        if name not in self.widths:
            raise QueryValidationError(f"schema has no field {name!r}")
        return self.widths[name]

    @staticmethod
    def packet_schema(registry: FieldRegistry = FIELDS) -> "Schema":
        names = tuple(registry.names())
        widths = {name: registry.get(name).width for name in names}
        return Schema(keys=names, values=(), widths=widths)


#: Comparison operators understood by predicates. ``in`` matches membership
#: in a named, runtime-updatable filter table (used by dynamic refinement).
_PREDICATE_OPS = ("eq", "ne", "gt", "ge", "lt", "le", "mask", "contains", "in")


@dataclass(frozen=True)
class Predicate:
    """A single comparison clause inside a :class:`Filter`.

    Attributes:
        field: Tuple field the clause reads.
        op: One of ``eq ne gt ge lt le mask contains in``. ``mask`` tests
            ``field & value == value`` (TCP-flag tests); ``contains`` is a
            byte-substring test (stream processor only); ``in`` tests
            membership of the (optionally coarsened) field value in a named
            filter table whose contents the runtime updates every window.
        value: Comparison constant, byte pattern, or filter-table name.
        level: If set, coarsen the field to this refinement level before
            comparing — this is how the level-(i+1) query matches the
            level-i results without rewriting the rest of the query.
    """

    field: str
    op: str
    value: Any
    level: int | None = None

    def __post_init__(self) -> None:
        if self.op not in _PREDICATE_OPS:
            raise QueryValidationError(f"unknown predicate op {self.op!r}")
        if self.op == "in" and not isinstance(self.value, str):
            raise QueryValidationError("'in' predicates take a filter-table name")

    def evaluate(self, tup: Mapping[str, Any], tables: Mapping[str, set] | None = None) -> bool:
        value = tup[self.field]
        if self.level is not None and self.field in FIELDS:
            value = coarsen_value(FIELDS.get(self.field), value, self.level)
        if self.op == "eq":
            return value == self.value
        if self.op == "ne":
            return value != self.value
        if self.op == "gt":
            return value > self.value
        if self.op == "ge":
            return value >= self.value
        if self.op == "lt":
            return value < self.value
        if self.op == "le":
            return value <= self.value
        if self.op == "mask":
            return (value & self.value) == self.value
        if self.op == "contains":
            haystack = value if isinstance(value, (bytes, bytearray)) else bytes(
                str(value), "utf-8"
            )
            needle = (
                self.value
                if isinstance(self.value, (bytes, bytearray))
                else str(self.value).encode("utf-8")
            )
            return needle in haystack
        if self.op == "in":
            table = (tables or {}).get(self.value)
            if table is None:
                return False
            return value in table
        raise AssertionError(self.op)

    def switch_supported(self, registry: FieldRegistry = FIELDS) -> bool:
        if self.op == "contains":
            return False
        if self.field in registry and not registry.get(self.field).switch_parseable:
            return False
        return True

    def describe(self) -> str:
        suffix = f"/{self.level}" if self.level is not None else ""
        return f"{self.field}{suffix} {self.op} {self.value!r}"


class Operator:
    """Base class for dataflow operators."""

    #: Whether the operator keeps state across packets of a window.
    stateful: bool = False

    def output_schema(self, schema: Schema) -> Schema:
        raise NotImplementedError

    def validate(self, schema: Schema) -> None:
        """Raise :class:`QueryValidationError` if inputs are missing."""
        for name in self.input_fields():
            if not schema.has(name):
                raise QueryValidationError(
                    f"{type(self).__name__} reads {name!r} but the incoming "
                    f"schema only has {schema.fields}"
                )

    def input_fields(self) -> tuple[str, ...]:
        raise NotImplementedError

    def switch_compilable(self, registry: FieldRegistry = FIELDS) -> bool:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.describe()}>"


@dataclass(frozen=True, repr=False)
class Filter(Operator):
    """Keep tuples matching *all* predicates (conjunction).

    A disjunction is expressed as multiple rules of one match-action table
    on the switch, or as multiple Sonata queries; the Table 3 queries only
    need conjunctions.
    """

    predicates: tuple[Predicate, ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise QueryValidationError("filter needs at least one predicate")

    def input_fields(self) -> tuple[str, ...]:
        return tuple(p.field for p in self.predicates)

    def output_schema(self, schema: Schema) -> Schema:
        return schema

    def switch_compilable(self, registry: FieldRegistry = FIELDS) -> bool:
        return all(p.switch_supported(registry) for p in self.predicates)

    def describe(self) -> str:
        return "filter(" + " and ".join(p.describe() for p in self.predicates) + ")"


@dataclass(frozen=True, repr=False)
class Map(Operator):
    """Project/transform tuples into ``(keys..., values...)``."""

    keys: tuple[Expression, ...]
    values: tuple[Expression, ...] = ()

    def __post_init__(self) -> None:
        # Accept bare field names anywhere an expression is expected.
        object.__setattr__(self, "keys", tuple(as_expression(k) for k in self.keys))
        object.__setattr__(
            self, "values", tuple(as_expression(v) for v in self.values)
        )
        if not self.keys and not self.values:
            raise QueryValidationError("map must produce at least one field")
        names = [e.name for e in self.keys + self.values]
        if len(names) != len(set(names)):
            raise QueryValidationError(f"map produces duplicate field names: {names}")

    def input_fields(self) -> tuple[str, ...]:
        seen: list[str] = []
        for expr in self.keys + self.values:
            for name in expr.inputs():
                if name not in seen:
                    seen.append(name)
        return tuple(seen)

    def output_schema(self, schema: Schema) -> Schema:
        widths = {}
        for expr in self.keys + self.values:
            widths[expr.name] = expr.width()
        return Schema(
            keys=tuple(e.name for e in self.keys),
            values=tuple(e.name for e in self.values),
            widths=widths,
        )

    def switch_compilable(self, registry: FieldRegistry = FIELDS) -> bool:
        for expr in self.keys + self.values:
            if not expr.switch_supported:
                return False
            for name in expr.inputs():
                if name in registry and not registry.get(name).switch_parseable:
                    return False
        return True

    def describe(self) -> str:
        parts = [e.name for e in self.keys]
        parts += [f"{e.name}=" for e in self.values]
        return "map(" + ", ".join(parts) + ")"


_REDUCE_FUNCS = ("sum", "max", "min", "count", "or")


@dataclass(frozen=True, repr=False)
class Reduce(Operator):
    """Aggregate the value field grouped by ``keys`` within the window.

    On the switch this compiles to a register (index table + update table);
    at the stream processor it is a keyed aggregation. ``func='or'`` with a
    1-bit value is how :class:`Distinct` is implemented on the switch
    (§3.1.2: "Distinct operations are similar to a reduce, where the
    function bit_or ... is applied to a single bit").
    """

    keys: tuple[str, ...]
    func: str = "sum"
    value_field: str | None = None
    out: str = "count"

    stateful = True

    def __post_init__(self) -> None:
        if self.func not in _REDUCE_FUNCS:
            raise QueryValidationError(f"unknown reduce function {self.func!r}")
        if not self.keys:
            raise QueryValidationError("reduce needs at least one key")

    def input_fields(self) -> tuple[str, ...]:
        extra = (self.value_field,) if self.value_field else ()
        return self.keys + extra

    def resolved_value_field(self, schema: Schema) -> str | None:
        """The field being aggregated, or None for pure counting."""
        if self.value_field:
            return self.value_field
        if self.func == "count":
            return None
        if len(schema.values) == 1:
            return schema.values[0]
        if not schema.values:
            return None
        raise QueryValidationError(
            f"reduce({self.func}) is ambiguous: schema values {schema.values}; "
            "pass value_field explicitly"
        )

    def output_schema(self, schema: Schema) -> Schema:
        widths = {name: schema.width_of(name) for name in self.keys}
        widths[self.out] = 32
        return Schema(keys=self.keys, values=(self.out,), widths=widths)

    def switch_compilable(self, registry: FieldRegistry = FIELDS) -> bool:
        for name in self.keys:
            if name in registry and not registry.get(name).switch_parseable:
                return False
        return True  # sum/max/min/or/count all map to register ALU ops

    def describe(self) -> str:
        value = self.value_field or ""
        return f"reduce(keys=({', '.join(self.keys)}), {self.func}{value and ' ' + value})"


#: Reduce functions whose running aggregate never falls as rows arrive.
#: ``sum`` is one because summed values are non-negative: packet fields
#: are unsigned and the library's constants are positive.
RISING_AGGREGATES = frozenset(("count", "sum", "max", "or"))


def aggregate_predicates(operators: Sequence[Operator]) -> dict[tuple[int, int], bool]:
    """The one definition of a threshold (DESIGN.md §15).

    Maps each predicate of ``operators`` that compares a reduce's output,
    by (operator index, predicate index), to True for a *threshold*: a
    ``gt``/``ge`` predicate, with no refinement level, on a reduce in
    :data:`RISING_AGGREGATES`. Only a threshold may be folded into the
    reduce (first crossing), relaxed at a coarse level or scaled at a
    network switch. Any other such predicate maps to False, a *bound*,
    correct only on a final, finest-level aggregate. A map passes a
    reduce's output on only by :class:`FieldRef`, renamed or not.
    """
    aggregates: dict[str, Reduce] = {}
    roles: dict[tuple[int, int], bool] = {}
    for i, op in enumerate(operators):
        if isinstance(op, Filter):
            for j, pred in enumerate(op.predicates):
                reduce = aggregates.get(pred.field)
                if reduce is not None:
                    roles[(i, j)] = (
                        pred.op in ("gt", "ge")
                        and pred.level is None
                        and reduce.func in RISING_AGGREGATES
                    )
        elif isinstance(op, Reduce):
            aggregates = {op.out: op}
        elif isinstance(op, Map):
            aggregates = {
                e.name: aggregates[e.field]
                for e in op.keys + op.values
                if isinstance(e, FieldRef) and e.field in aggregates
            }
    return roles


def resolve_value_fields(
    operators: Sequence[Operator], schema: Schema
) -> tuple[Operator, ...]:
    """``operators``, read from ``schema`` on, with every reduce's value
    field made explicit (:meth:`Reduce.resolved_value_field`).

    The switch and the code generator resolve an implicit value field from
    the schema the reduce reads; the row and columnar interpreters see only
    tuples, so they run the resolved chain and take ``value_field`` as
    given (``None``: every argument is 1).
    """
    resolved = []
    for op in operators:
        if isinstance(op, Reduce) and op.value_field is None:
            value_field = op.resolved_value_field(schema)
            if value_field is not None:
                op = replace(op, value_field=value_field)
        resolved.append(op)
        schema = op.output_schema(schema)
    return tuple(resolved)


@dataclass(frozen=True, repr=False)
class Distinct(Operator):
    """Emit each distinct key combination once per window."""

    keys: tuple[str, ...] = ()

    stateful = True

    def input_fields(self) -> tuple[str, ...]:
        return self.keys

    def effective_keys(self, schema: Schema) -> tuple[str, ...]:
        return self.keys or schema.fields

    def output_schema(self, schema: Schema) -> Schema:
        keys = self.effective_keys(schema)
        widths = {name: schema.width_of(name) for name in keys}
        return Schema(keys=keys, values=(), widths=widths)

    def switch_compilable(self, registry: FieldRegistry = FIELDS) -> bool:
        for name in self.keys:
            if name in registry and not registry.get(name).switch_parseable:
                return False
        return True

    def describe(self) -> str:
        return f"distinct({', '.join(self.keys)})"


@dataclass(frozen=True, repr=False)
class Join(Operator):
    """Join this stream with another sub-query's output on ``keys``.

    Joins always run at the stream processor (§3.1.2: worst-case state grows
    with the square of the number of packets). The planner splits a query at
    each join and plans the two sides independently, constrained to share a
    refinement plan (§4.2).
    """

    right: "Any"  # PacketStream; typed loosely to avoid a circular import
    keys: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.keys:
            raise QueryValidationError("join needs at least one key")

    def input_fields(self) -> tuple[str, ...]:
        return self.keys

    def output_schema(self, schema: Schema) -> Schema:
        right_schema = self.right.output_schema()
        for key in self.keys:
            if not right_schema.has(key):
                raise QueryValidationError(
                    f"join key {key!r} missing from right sub-query schema "
                    f"{right_schema.fields}"
                )
        # The joined tuple keeps every left-side field (Query 3 filters the
        # packet payload *after* its join) plus the right side's non-key
        # fields, renamed with an ``_r`` suffix on collision — mirroring
        # the row-level merge in :func:`repro.streaming.rowops.join_rows`.
        widths = {name: schema.width_of(name) for name in self.keys}
        values: list[str] = []
        for name in schema.fields:
            if name in self.keys:
                continue
            widths[name] = schema.width_of(name)
            values.append(name)
        for name in right_schema.fields:
            if name in self.keys:
                continue
            out_name = name if name not in widths else f"{name}_r"
            widths[out_name] = right_schema.width_of(name)
            values.append(out_name)
        return Schema(keys=self.keys, values=tuple(values), widths=widths)

    def switch_compilable(self, registry: FieldRegistry = FIELDS) -> bool:
        return False

    def describe(self) -> str:
        return f"join(keys=({', '.join(self.keys)}))"


def ensure_expressions(specs: tuple) -> tuple[Expression, ...]:
    """Coerce a mixed tuple of names/expressions into expressions."""
    return tuple(as_expression(spec) for spec in specs)


def chain_schemas(
    operators: Sequence[Operator], registry: FieldRegistry = FIELDS
) -> list[Schema]:
    """Validate a chain over the packet stream; ``schemas[i]`` is operator
    i's input schema and ``schemas[len(operators)]`` the output's."""
    schemas = [Schema.packet_schema(registry)]
    for op in operators:
        op.validate(schemas[-1])
        schemas.append(op.output_schema(schemas[-1]))
    return schemas


def chain_read_fields(
    operators: Sequence[Operator], schemas: Sequence[Schema]
) -> frozenset[str]:
    """Fields a linear chain reads: its operators' inputs, a distinct's
    implicit keys, and the fields its output carries. ``schemas[i]`` is
    operator i's input schema and ``schemas[len(operators)]`` the output's.
    """
    fields = set(schemas[len(operators)].fields)
    for op, schema in zip(operators, schemas):
        fields.update(op.input_fields())
        if isinstance(op, Distinct):
            fields.update(op.effective_keys(schema))
    return frozenset(fields)
