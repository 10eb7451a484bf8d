"""Tests for row-wise operator execution and join assembly."""

import pytest

from repro.core.errors import QueryValidationError
from repro.core.expressions import Const, Ratio
from repro.core.operators import (
    Distinct,
    Filter,
    Map,
    Predicate,
    Reduce,
    Schema,
    resolve_value_fields,
)
from repro.core.query import JoinNode
from repro.streaming.rowops import (
    apply_operator,
    apply_operators,
    assemble_join_tree,
    join_rows,
)


class TestApplyOperator:
    def test_filter(self):
        rows = [{"x": 1}, {"x": 5}]
        out = apply_operator(rows, Filter((Predicate("x", "gt", 2),)))
        assert out == [{"x": 5}]

    def test_filter_with_table(self):
        rows = [{"k": 1}, {"k": 2}]
        out = apply_operator(
            rows, Filter((Predicate("k", "in", "t"),)), tables={"t": {2}}
        )
        assert out == [{"k": 2}]

    def test_map(self):
        rows = [{"a": 2, "b": 4}]
        op = Map(keys=(Const(9, "k"),), values=(Ratio("a", "b", "r", scale=10),))
        assert apply_operator(rows, op) == [{"k": 9, "r": 5}]

    def test_reduce_count_implicit(self):
        rows = [{"k": 1}, {"k": 1}, {"k": 2}]
        op = Reduce(keys=("k",), func="count")
        out = {r["k"]: r["count"] for r in apply_operator(rows, op)}
        assert out == {1: 2, 2: 1}

    @staticmethod
    def _resolved(op, keys, values):
        """``op`` with its value field resolved from a (keys, values) schema,
        as the interpreters receive it."""
        schema = Schema(keys=keys, values=values, widths=dict.fromkeys(keys + values, 32))
        (resolved,) = resolve_value_fields((op,), schema)
        return resolved

    def test_reduce_sum_single_value_field(self):
        rows = [{"k": 1, "v": 5}, {"k": 1, "v": 2}]
        op = self._resolved(Reduce(keys=("k",), func="sum", out="v"), ("k",), ("v",))
        assert apply_operator(rows, op) == [{"k": 1, "v": 7}]

    def test_reduce_reaggregates_partials(self):
        # A switch partial's count is the schema's one value field.
        rows = [{"k": 1, "count": 5}, {"k": 1, "count": 2}]
        op = self._resolved(Reduce(keys=("k",), func="sum"), ("k",), ("count",))
        assert apply_operator(rows, op) == [{"k": 1, "count": 7}]

    def test_reduce_ambiguous_raises(self):
        with pytest.raises(QueryValidationError):
            self._resolved(Reduce(keys=("k",), func="sum"), ("k",), ("a", "b"))

    def test_reduce_max_min_or(self):
        rows = [{"k": 1, "v": 5}, {"k": 1, "v": 2}]
        assert apply_operator(rows, Reduce(keys=("k",), func="max", value_field="v", out="v"))[0]["v"] == 5
        assert apply_operator(rows, Reduce(keys=("k",), func="min", value_field="v", out="v"))[0]["v"] == 2
        assert apply_operator(rows, Reduce(keys=("k",), func="or", value_field="v", out="v"))[0]["v"] == 7

    def test_distinct_whole_row(self):
        rows = [{"a": 1}, {"a": 1}, {"a": 2}]
        assert apply_operator(rows, Distinct()) == [{"a": 1}, {"a": 2}]

    def test_distinct_on_keys(self):
        rows = [{"a": 1, "b": 9}, {"a": 1, "b": 8}]
        assert apply_operator(rows, Distinct(keys=("a",))) == [{"a": 1}]

    def test_chain(self):
        rows = [{"k": 1, "v": 1}, {"k": 1, "v": 1}, {"k": 2, "v": 1}]
        ops = [
            Reduce(keys=("k",), func="sum", out="v"),
            Filter((Predicate("v", "gt", 1),)),
        ]
        assert apply_operators(rows, ops) == [{"k": 1, "v": 2}]


class TestJoinRows:
    def test_inner(self):
        left = [{"k": 1, "a": 10}, {"k": 2, "a": 20}]
        right = [{"k": 1, "b": 99}]
        out = join_rows(left, right, ("k",))
        assert out == [{"k": 1, "a": 10, "b": 99}]

    def test_collision_suffix(self):
        out = join_rows([{"k": 1, "v": 1}], [{"k": 1, "v": 2}], ("k",))
        assert out == [{"k": 1, "v": 1, "v_r": 2}]

    def test_multi_match(self):
        out = join_rows([{"k": 1, "a": 0}], [{"k": 1, "b": 1}, {"k": 1, "b": 2}], ("k",))
        assert len(out) == 2


class TestAssembleJoinTree:
    def _node(self, post_ops=()):
        return JoinNode(left=0, right=1, keys=("k",), post_ops=tuple(post_ops))

    def test_leaf(self):
        assert assemble_join_tree(0, {0: [{"k": 1}]}) == [{"k": 1}]

    def test_join_and_post_ops(self):
        node = self._node([Filter((Predicate("b", "gt", 5),))])
        out = assemble_join_tree(
            node, {0: [{"k": 1, "a": 1}], 1: [{"k": 1, "b": 9}]}
        )
        assert out == [{"k": 1, "a": 1, "b": 9}]

    def test_inactive_left_degrades_to_right(self):
        node = self._node([Filter((Predicate("missing", "gt", 0),))])
        out = assemble_join_tree(node, {0: None, 1: [{"k": 1, "b": 9}]})
        # post-ops skipped: the right side's rows drive refinement
        assert out == [{"k": 1, "b": 9}]

    def test_inactive_right_degrades_to_left(self):
        node = self._node()
        assert assemble_join_tree(node, {0: [{"k": 2}], 1: None}) == [{"k": 2}]

    def test_all_inactive_is_none(self):
        assert assemble_join_tree(self._node(), {0: None, 1: None}) is None
