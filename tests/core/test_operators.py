"""Tests for dataflow operators: schema propagation and predicates."""

import pytest
from hypothesis import given, strategies as st

from repro.core.errors import QueryValidationError
from repro.core.expressions import Const, FieldRef
from repro.core.operators import (
    Distinct,
    Filter,
    Join,
    Map,
    Predicate,
    Reduce,
    Schema,
    aggregate_predicates,
    chain_schemas,
)
from repro.core.query import PacketStream


def packet_schema():
    return Schema.packet_schema()


class TestPredicate:
    def test_comparison_ops(self):
        tup = {"x": 5}
        assert Predicate("x", "eq", 5).evaluate(tup)
        assert Predicate("x", "ne", 4).evaluate(tup)
        assert Predicate("x", "gt", 4).evaluate(tup)
        assert Predicate("x", "ge", 5).evaluate(tup)
        assert Predicate("x", "lt", 6).evaluate(tup)
        assert Predicate("x", "le", 5).evaluate(tup)
        assert not Predicate("x", "gt", 5).evaluate(tup)

    def test_mask(self):
        assert Predicate("flags", "mask", 0x02).evaluate({"flags": 0x12})
        assert not Predicate("flags", "mask", 0x02).evaluate({"flags": 0x10})

    def test_contains(self):
        pred = Predicate("payload", "contains", b"zorro")
        assert pred.evaluate({"payload": b"run zorro.sh"})
        assert not pred.evaluate({"payload": b"benign"})

    def test_contains_is_sp_only(self):
        assert not Predicate("payload", "contains", b"x").switch_supported()

    def test_in_table(self):
        pred = Predicate("ipv4.dIP", "in", "t")
        assert pred.evaluate({"ipv4.dIP": 5}, tables={"t": {5}})
        assert not pred.evaluate({"ipv4.dIP": 5}, tables={"t": set()})
        assert not pred.evaluate({"ipv4.dIP": 5}, tables={})

    def test_in_with_level_coarsens(self):
        pred = Predicate("ipv4.dIP", "in", "t", level=8)
        assert pred.evaluate({"ipv4.dIP": 0x0A010203}, tables={"t": {0x0A000000}})

    def test_in_requires_table_name(self):
        with pytest.raises(QueryValidationError):
            Predicate("x", "in", 5)

    def test_unknown_op_rejected(self):
        with pytest.raises(QueryValidationError):
            Predicate("x", "like", 5)


class TestFilter:
    def test_requires_predicates(self):
        with pytest.raises(QueryValidationError):
            Filter(())

    def test_schema_unchanged(self):
        schema = packet_schema()
        op = Filter((Predicate("tcp.flags", "eq", 2),))
        assert op.output_schema(schema) is schema

    def test_payload_filter_not_compilable(self):
        op = Filter((Predicate("payload", "contains", b"x"),))
        assert not op.switch_compilable()

    def test_validate_missing_field(self):
        op = Filter((Predicate("nonexistent", "eq", 1),))
        with pytest.raises(QueryValidationError):
            op.validate(packet_schema())


class TestMap:
    def test_schema(self):
        op = Map(keys=(FieldRef("ipv4.dIP"),), values=(Const(1),))
        schema = op.output_schema(packet_schema())
        assert schema.keys == ("ipv4.dIP",)
        assert schema.values == ("count",)
        assert schema.width_of("ipv4.dIP") == 32

    def test_duplicate_names_rejected(self):
        with pytest.raises(QueryValidationError):
            Map(keys=(FieldRef("ipv4.dIP"), FieldRef("ipv4.dIP")))

    def test_empty_rejected(self):
        with pytest.raises(QueryValidationError):
            Map(keys=())

    def test_payload_input_not_compilable(self):
        op = Map(keys=(FieldRef("payload"),))
        assert not op.switch_compilable()


class TestReduce:
    def test_schema(self):
        schema_in = Map(
            keys=(FieldRef("ipv4.dIP"),), values=(Const(1),)
        ).output_schema(packet_schema())
        op = Reduce(keys=("ipv4.dIP",), func="sum")
        schema = op.output_schema(schema_in)
        assert schema.fields == ("ipv4.dIP", "count")

    def test_resolved_value_field(self):
        schema_in = Map(
            keys=(FieldRef("ipv4.dIP"),), values=(FieldRef("pktlen", "bytes"),)
        ).output_schema(packet_schema())
        op = Reduce(keys=("ipv4.dIP",), func="sum", out="bytes")
        assert op.resolved_value_field(schema_in) == "bytes"

    def test_ambiguous_value_field(self):
        schema = Schema(
            keys=("k",), values=("a", "b"), widths={"k": 32, "a": 32, "b": 32}
        )
        op = Reduce(keys=("k",), func="sum")
        with pytest.raises(QueryValidationError):
            op.resolved_value_field(schema)

    def test_unknown_func_rejected(self):
        with pytest.raises(QueryValidationError):
            Reduce(keys=("k",), func="mean")

    def test_needs_keys(self):
        with pytest.raises(QueryValidationError):
            Reduce(keys=(), func="sum")

    def test_stateful(self):
        assert Reduce(keys=("k",), func="sum").stateful


class TestAggregatePredicates:
    """The one rule: which comparisons of a reduce's output are thresholds
    (True) and which are bounds (False)."""

    @staticmethod
    def roles(func, *predicates, tail=()):
        ops = (
            Map(keys=("ipv4.dIP",), values=(FieldRef("pktlen", "v"),)),
            Reduce(keys=("ipv4.dIP",), func=func, value_field="v"),
            *tail,
            Filter(predicates),
        )
        return aggregate_predicates(ops)

    @pytest.mark.parametrize("func", ["count", "sum", "max", "or"])
    @pytest.mark.parametrize("op", ["gt", "ge"])
    def test_lower_bound_on_rising_aggregate_is_threshold(self, func, op):
        assert self.roles(func, Predicate("count", op, 5)) == {(2, 0): True}

    @pytest.mark.parametrize("op", ["lt", "le", "eq", "ne"])
    def test_other_comparisons_are_bounds(self, op):
        assert self.roles("sum", Predicate("count", op, 5)) == {(2, 0): False}

    def test_falling_aggregate_has_only_bounds(self):
        assert self.roles("min", Predicate("count", "gt", 5)) == {(2, 0): False}

    def test_refinement_level_makes_a_bound(self):
        pred = Predicate("count", "gt", 5, level=8)
        assert self.roles("sum", pred) == {(2, 0): False}

    def test_packet_fields_are_neither(self):
        roles = self.roles(
            "sum", Predicate("ipv4.dIP", "gt", 5), Predicate("count", "gt", 1)
        )
        assert roles == {(2, 1): True}

    def test_renaming_map_passes_the_aggregate_on(self):
        tail = (Map(keys=("ipv4.dIP",), values=(FieldRef("count", "n"),)),)
        roles = self.roles("sum", Predicate("n", "gt", 5), tail=tail)
        assert roles == {(3, 0): True}

    def test_computing_map_ends_the_aggregate(self):
        tail = (Map(keys=("ipv4.dIP",), values=(Const(1),)),)
        assert self.roles("sum", Predicate("count", "gt", 5), tail=tail) == {}


def test_chain_schemas_is_the_one_schema_walk():
    stream = (
        PacketStream(name="s")
        .map(keys=("ipv4.dIP",), values=(Const(1),))
        .reduce(keys=("ipv4.dIP",), func="sum")
    )
    schemas = chain_schemas(stream.operators)
    assert stream.schemas() == schemas
    assert schemas[-1].fields == ("ipv4.dIP", "count")


class TestDistinct:
    def test_schema_keeps_keys_only(self):
        schema_in = Map(
            keys=(FieldRef("ipv4.dIP"), FieldRef("ipv4.sIP"))
        ).output_schema(packet_schema())
        op = Distinct()
        schema = op.output_schema(schema_in)
        assert schema.fields == ("ipv4.dIP", "ipv4.sIP")

    def test_explicit_keys(self):
        schema = Distinct(keys=("ipv4.dIP",)).output_schema(packet_schema())
        assert schema.fields == ("ipv4.dIP",)

    def test_stateful(self):
        assert Distinct().stateful


class TestJoin:
    def _right(self):
        return (
            PacketStream(name="right")
            .map(keys=("ipv4.dIP",), values=(Const(1, "conns"),))
            .reduce(keys=("ipv4.dIP",), func="sum", out="conns")
        )

    def test_schema_merges_and_keeps_left_fields(self):
        schema_in = (
            Map(keys=(FieldRef("ipv4.dIP"),), values=(FieldRef("pktlen", "bytes"),))
            .output_schema(packet_schema())
        )
        op = Join(right=self._right(), keys=("ipv4.dIP",))
        schema = op.output_schema(schema_in)
        assert set(schema.fields) == {"ipv4.dIP", "bytes", "conns"}

    def test_collision_renamed(self):
        left_schema = (
            Map(keys=(FieldRef("ipv4.dIP"),), values=(Const(1, "conns"),))
            .output_schema(packet_schema())
        )
        op = Join(right=self._right(), keys=("ipv4.dIP",))
        schema = op.output_schema(left_schema)
        assert "conns" in schema.fields and "conns_r" in schema.fields

    def test_missing_join_key_rejected(self):
        op = Join(right=self._right(), keys=("tcp.dPort",))
        with pytest.raises(QueryValidationError):
            op.output_schema(packet_schema())

    def test_never_compilable(self):
        assert not Join(right=self._right(), keys=("ipv4.dIP",)).switch_compilable()


class TestSchema:
    def test_total_width(self):
        schema = Schema(keys=("a",), values=("b",), widths={"a": 32, "b": 8})
        assert schema.total_width() == 40

    def test_width_of_missing(self):
        schema = Schema(keys=("a",), values=(), widths={"a": 32})
        with pytest.raises(QueryValidationError):
            schema.width_of("b")

    @given(st.sampled_from(["ipv4.dIP", "tcp.flags", "pktlen", "payload"]))
    def test_packet_schema_has_registry_fields(self, name):
        assert packet_schema().has(name)
