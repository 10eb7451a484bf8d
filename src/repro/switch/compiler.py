"""Compile a linear sub-query into match-action tables (§3.1.2–3.1.3).

The compiler walks the operator chain and emits :class:`LogicalTable`
entries until it meets an operator the data plane cannot execute (payload
predicates, division, joins, a reduce or distinct keyed by a float-valued
field such as the timestamp — a register key is header bits — or any
operator after an unfolded reduce).
Everything after that point *must* run at the stream processor; everything
before it *may*, and the planner chooses the actual cut.

Folding rules applied (so table counts match the paper's examples):

- a threshold filter immediately following a reduce folds into the
  reduce's update table;
- every stateful operator occupies two tables (index + update) in two
  consecutive stages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import CompilationError
from repro.core.expressions import Const, Expression, Quantized
from repro.core.fields import FIELDS, FieldRegistry
from repro.core.operators import (
    Distinct,
    Filter,
    Join,
    Map,
    Operator,
    Reduce,
    Schema,
)
from repro.core.query import SubQuery
from repro.packets.trace import TRACE_DTYPE
from repro.switch.registers import RegisterSpec
from repro.switch.tables import LogicalTable


def _float_fields(registry: FieldRegistry) -> set[str]:
    """Packet fields whose trace column holds floats (the timestamp)."""
    columns = TRACE_DTYPE.fields
    return {
        name
        for name in registry.names()
        if registry.get(name).column in columns
        and columns[registry.get(name).column][0].kind == "f"
    }


def _float_valued(expr: Expression, floats: set[str]) -> bool:
    """Does a map expression yield floats, given the float-valued inputs?"""
    if isinstance(expr, Const):
        return isinstance(expr.value, float)
    if isinstance(expr, Quantized):
        return False  # rounds to an int
    return any(name in floats for name in expr.inputs())


def _is_threshold_filter(op: Operator, aggregate_field: str) -> bool:
    """A filter that only thresholds the aggregate (foldable into reduce)."""
    if not isinstance(op, Filter):
        return False
    return all(
        pred.field == aggregate_field
        and pred.level is None
        and pred.op in ("gt", "ge", "lt", "le")
        for pred in op.predicates
    )


@dataclass
class CompiledSubQuery:
    """Result of compiling one sub-query for a PISA target."""

    subquery: SubQuery
    #: Tables for the switch-compilable prefix of the operator chain.
    tables: list[LogicalTable]
    #: Number of leading operators covered by ``tables`` (the rest is
    #: stream-processor-only).
    compilable_operators: int
    #: Schemas after each operator (index 0 = packet schema).
    schemas: list[Schema]
    registry: FieldRegistry = FIELDS

    # -- partition enumeration ------------------------------------------
    def partition_points(self) -> list[int]:
        """Valid cuts, as *operator counts* on the switch (0 = nothing).

        A cut of ``k`` means operators ``[0, k)`` run on the switch. Cuts
        are only allowed at operator boundaries covered by the compiled
        tables, and operators folded into a predecessor's table cannot be
        a cut on their own (the fold is atomic).
        """
        points = [0]
        for table in self.tables:
            if not table.is_operator_end:
                continue
            end = table.operator_index + 1
            if table.folded_filter is not None:
                end += 1
            if end not in points:
                points.append(end)
        return points

    def tables_for_partition(self, n_operators: int) -> list[LogicalTable]:
        """The tables installed when ``n_operators`` run on the switch."""
        out = []
        for table in self.tables:
            end = table.operator_index + 1
            if table.folded_filter is not None:
                end += 1
            if end <= n_operators:
                out.append(table)
        return out

    def residual_operators(self, n_operators: int) -> tuple[Operator, ...]:
        """Operators left for the stream processor after the cut."""
        return self.subquery.resolved_operators[n_operators:]

    def last_operator_stateful(self, n_operators: int) -> bool:
        """True when the cut ends in register state (possibly via a fold)."""
        if n_operators == 0:
            return False
        op = self.subquery.operators[n_operators - 1]
        if isinstance(op, Filter):
            # A threshold filter folded into the preceding reduce means the
            # physical last table is still the stateful update table.
            return any(
                table.operator_index == n_operators - 2
                and table.folded_filter is not None
                for table in self.tables
            )
        return op.stateful

    # -- resource accounting -----------------------------------------------
    def metadata_bits(self, n_operators: int) -> int:
        """PHV metadata the query needs when cut after ``n_operators``.

        Model (§3.1.3: original header values are copied into auxiliary
        metadata before processing): the metadata for a query instance is
        the union of packet fields its on-switch operators read, plus the
        widest derived tuple it carries, plus the query id (16 bits) and
        the report flag (1 bit).
        """
        if n_operators == 0:
            return 0
        packet_fields: set[str] = set()
        derived_max = 0
        for i, op in enumerate(self.subquery.operators[:n_operators]):
            for name in op.input_fields():
                if name in self.registry:
                    packet_fields.add(name)
            schema = self.schemas[i + 1]
            derived = sum(
                schema.width_of(name)
                for name in schema.fields
                if name not in self.registry
            )
            derived_max = max(derived_max, derived)
        copied = sum(self.registry.get(name).width for name in packet_fields)
        return copied + derived_max + 16 + 1

    def stateful_tables(self, n_operators: int) -> list[LogicalTable]:
        return [
            t for t in self.tables_for_partition(n_operators) if t.stateful
        ]


def compile_subquery(
    subquery: SubQuery, registry: FieldRegistry = FIELDS
) -> CompiledSubQuery:
    """Compile the switch-executable prefix of ``subquery`` into tables."""
    schemas = subquery.schemas()
    tables: list[LogicalTable] = []
    compilable_ops = 0
    prefix = f"q{subquery.qid}_{subquery.subid}"
    reduce_done = False  # an unfolded reduce ends the switch prefix
    floats = _float_fields(registry)  # float-valued fields of the tuple

    ops = subquery.operators
    i = 0
    while i < len(ops):
        op = ops[i]
        schema_in = schemas[i]
        if isinstance(op, Join):
            break
        if not op.switch_compilable(registry):
            break
        if reduce_done:
            # Nothing may follow a reduce on the switch except the folded
            # threshold filter (already consumed below).
            break

        if isinstance(op, Filter):
            dynamic = next(
                (p.value for p in op.predicates if p.op == "in"), None
            )
            match_bits = sum(
                schema_in.width_of(p.field)
                for p in op.predicates
                if schema_in.has(p.field)
            )
            tables.append(
                LogicalTable(
                    name=f"{prefix}_t{len(tables)}_filter",
                    kind="filter",
                    operator_index=i,
                    operator=op,
                    is_operator_end=True,
                    stateful=False,
                    match_bits=match_bits,
                    dynamic_table=dynamic,
                )
            )
            compilable_ops = i + 1
            i += 1
            continue

        if isinstance(op, Map):
            floats = {
                expr.name
                for expr in op.keys + op.values
                if _float_valued(expr, floats)
            }
            tables.append(
                LogicalTable(
                    name=f"{prefix}_t{len(tables)}_map",
                    kind="map",
                    operator_index=i,
                    operator=op,
                    is_operator_end=True,
                    stateful=False,
                )
            )
            compilable_ops = i + 1
            i += 1
            continue

        if isinstance(op, (Reduce, Distinct)):
            schema_out = op.output_schema(schema_in)
            if isinstance(op, Reduce):
                keys = op.keys
                value_bits = 32
                kind = "reduce"
            else:
                keys = op.effective_keys(schema_in)
                value_bits = 1
                kind = "distinct"
            if floats.intersection(keys):
                break  # not a register key: runs at the stream processor
            key_bits = sum(schema_in.width_of(k) for k in keys)
            # Placeholder register: the planner sizes n_slots/d from the
            # training data; the compiler records widths only.
            register = RegisterSpec(
                name=f"{prefix}_r{len(tables)}",
                n_slots=1,
                d=1,
                key_bits=key_bits,
                value_bits=value_bits,
                placeholder=True,
            )
            tables.append(
                LogicalTable(
                    name=f"{prefix}_t{len(tables)}_{kind}_idx",
                    kind=f"{kind}_idx",
                    operator_index=i,
                    operator=op,
                    is_operator_end=False,
                    stateful=False,
                    match_bits=key_bits,
                )
            )
            folded = None
            if isinstance(op, Reduce) and i + 1 < len(ops):
                nxt = ops[i + 1]
                if _is_threshold_filter(nxt, op.out) and nxt.switch_compilable(registry):
                    folded = nxt
            tables.append(
                LogicalTable(
                    name=f"{prefix}_t{len(tables)}_{kind}_upd",
                    kind=f"{kind}_upd",
                    operator_index=i,
                    operator=op,
                    is_operator_end=True,
                    stateful=True,
                    match_bits=key_bits,
                    register=register,
                    folded_filter=folded,
                )
            )
            if isinstance(op, Reduce):
                reduce_done = True
            compilable_ops = i + 1
            if folded is not None:
                compilable_ops = i + 2
                i += 2
                continue
            i += 1
            continue

        raise CompilationError(f"unsupported operator for compilation: {op!r}")

    return CompiledSubQuery(
        subquery=subquery,
        tables=tables,
        compilable_operators=compilable_ops,
        schemas=schemas,
        registry=registry,
    )
