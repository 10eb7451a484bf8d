"""``join_states`` and the columnar ``assemble_join_tree`` against the
row-wise oracle (``rowops.join_rows`` / ``rowops.assemble_join_tree``).

The kernel packs both sides' key codes into one sort, so each run of
equal keys lists its left rows, then its right rows. These tests pin its
output to the row join's: the same rows, in the same order (left rows in
order, each followed by its matches in right order), with the same keys
in the same order (left columns, then the right's non-key columns, a
taken name suffixed ``_r``).
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.expressions import Difference
from repro.core.operators import Filter, Map, Predicate
from repro.core.query import JoinNode
from repro.exec import (
    ColumnarState,
    Vocab,
    join_states,
    materialize_rows,
    state_from_rows,
)
from repro.streaming import batchops, rowops


def _items(rows):
    """Rows as ordered item lists: equal only with equal key order."""
    return [list(row.items()) for row in rows]


def _check(left: ColumnarState, right: ColumnarState, keys) -> list:
    expected = rowops.join_rows(materialize_rows(left), materialize_rows(right), keys)
    got = materialize_rows(join_states(left, right, keys))
    assert _items(got) == _items(expected)
    return got


def _join_rows(left_rows, right_rows, keys) -> list:
    return _check(state_from_rows(left_rows), state_from_rows(right_rows), keys)


class TestJoinStates:
    def test_duplicates_on_both_sides(self):
        left = [{"k": 1, "a": 10}, {"k": 2, "a": 20}, {"k": 1, "a": 30}]
        right = [{"k": 1, "b": 7}, {"k": 3, "b": 8}, {"k": 1, "b": 9}]
        out = _join_rows(left, right, ("k",))
        assert [(r["a"], r["b"]) for r in out] == [(10, 7), (10, 9), (30, 7), (30, 9)]

    def test_no_match_keeps_the_schema(self):
        out = join_states(
            state_from_rows([{"k": 1, "a": 1}]), state_from_rows([{"k": 2, "b": 2}]), ("k",)
        )
        assert out.n_rows == 0 and list(out.columns) == ["k", "a", "b"]

    def test_r_collisions(self):
        """A taken name gets ``_r``; a right ``x_r`` meeting the rename of
        an earlier ``x`` overwrites it in place, as the row merge does."""
        left = [{"k": 1, "v": 1, "w": 2}, {"k": 2, "v": 3, "w": 4}]
        right = [{"v": 5, "k": 1, "w_r": 6, "w": 7}, {"v": 8, "k": 2, "w_r": 9, "w": 0}]
        out = _join_rows(left, right, ("k",))
        assert list(out[0]) == ["k", "v", "w", "v_r", "w_r"]

    def test_multi_column_keys(self):
        left = [{"k": i % 3, "j": i % 2, "a": i} for i in range(12)]
        right = [{"j": i % 2, "k": i % 4, "b": i} for i in range(10)]
        _join_rows(left, right, ("k", "j"))

    def test_wide_keys_are_densified(self):
        """Keys spanning the whole int64 range on several columns need
        more than 64 packed bits."""
        big = np.iinfo(np.int64)
        values = [big.min, -1, 0, 1, big.max]
        pairs = itertools.product(values, values)
        left = [{"x": v, "y": w, "z": v, "a": i} for i, (v, w) in enumerate(pairs)]
        right = [
            {"x": r["x"], "y": r["y"], "z": r["z"], "b": -r["a"]}
            for r in left[::-2] + left[::3]
        ]
        _join_rows(left, right, ("x", "y", "z"))

    def test_vocab_keys_recoded_through_one_table(self):
        """Equal names match whatever their ids: duplicate vocab entries,
        and an absent cell (-1) reading as the empty name."""
        left = ColumnarState(
            columns={"n": np.array([0, 1, -1, 2]), "a": np.arange(4)},
            vocabs={"n": Vocab(["a.com", "b.com", "a.com"])},
        )
        right = ColumnarState(
            columns={"n": np.array([1, 0, 1, 2]), "b": np.arange(4) * 10},
            vocabs={"n": Vocab(["", "a.com", "c.com"])},
        )
        out = _check(left, right, ("n",))
        assert [(r["n"], r["a"], r["b"]) for r in out] == [
            ("a.com", 0, 0), ("a.com", 0, 20), ("", 2, 10), ("a.com", 3, 0), ("a.com", 3, 20)
        ]

    def test_vocab_value_columns_keep_their_vocabs(self):
        left = state_from_rows([{"k": 1, "p": b"x"}, {"k": 2, "p": b"y"}])
        right = state_from_rows([{"k": 2, "p": b"z", "n": "q"}, {"k": 1, "p": b"", "n": "r"}])
        out = join_states(left, right, ("k",))
        assert out.vocabs["p"].kind == "bytes" and out.vocabs["n"].kind == "str"
        _check(left, right, ("k",))

    def test_float_columns(self):
        left = [{"k": 1, "ts": 0.5}, {"k": 2, "ts": 1.5}]
        right = [{"k": 2, "ts": 2.5}, {"k": 1, "ts": 3.5}]
        out = _join_rows(left, right, ("k",))
        assert all(isinstance(r["ts_r"], float) for r in out)

    def test_empty_and_schemaless_sides(self):
        rows = state_from_rows([{"k": 1, "a": 2}])
        empty = rows.select(np.zeros(1, dtype=bool))
        schemaless = ColumnarState(columns={})
        for left, right in [
            (rows, empty), (empty, rows), (rows, schemaless), (schemaless, rows),
            (schemaless, schemaless),
        ]:
            out = join_states(left, right, ("k",))
            assert out.columns == {} and materialize_rows(out) == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        left=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["", "a", "b"]),
                                st.integers(-2, 2)), max_size=12),
        right=st.lists(st.tuples(st.integers(0, 3), st.sampled_from(["", "a", "c"]),
                                 st.integers(-2, 2)), max_size=12),
        keys=st.sampled_from([("k",), ("s",), ("k", "s"), ("s", "k")]),
    )
    def test_random_rows_match_the_row_join(self, left, right, keys):
        _join_rows(
            [{"k": k, "s": s, "v": v} for k, s, v in left],
            [{"s": s, "v": v, "k": k, "w": -v} for k, s, v in right],
            keys,
        )


class TestAssembleJoinTree:
    """The columnar tree against the row tree, inactive leaves included."""

    LEAVES = {
        0: [{"k": 1, "a": 5}, {"k": 2, "a": 1}, {"k": 1, "a": 9}],
        1: [{"k": 1, "a": 2}, {"k": 2, "a": 3}],
        2: [{"k": 2, "c": 4}, {"k": 1, "c": 6}, {"k": 2, "c": 8}],
    }
    #: ((0 ⋈ 1) → a - a_r > 0) ⋈ 2: post-join ops between nested joins.
    TREE = JoinNode(
        left=JoinNode(
            left=0, right=1, keys=("k",),
            post_ops=(
                Map(keys=("k",), values=(Difference("a", "a_r", "d"),)),
                Filter((Predicate("d", "gt", 0),)),
            ),
        ),
        right=2, keys=("k",), post_ops=(),
    )

    def _both(self, active):
        rows = {i: self.LEAVES[i] if i in active else None for i in self.LEAVES}
        states = {i: None if r is None else state_from_rows(r) for i, r in rows.items()}
        expected = rowops.assemble_join_tree(self.TREE, rows)
        got = batchops.assemble_join_tree(self.TREE, states)
        return expected, got

    def test_all_active(self):
        expected, got = self._both({0, 1, 2})
        assert _items(materialize_rows(got)) == _items(expected)
        assert [(r["d"], r["c"]) for r in expected] == [(3, 6), (7, 6)]

    def test_inactive_leaves_degrade_to_the_active_side(self):
        for active in ({0, 2}, {1, 2}, {0, 1}, {2}, {0}):
            expected, got = self._both(active)
            assert _items(materialize_rows(got)) == _items(expected), active

    def test_all_inactive_is_none(self):
        assert self._both(set()) == (None, None)

    def test_inactive_leaf_skips_every_post_join_operator_above_it(self):
        """``a ⋈ (b ⋈ c)`` with ``b`` inactive and ``Difference("a", "b")``
        after the outer join: the outer join is above ``b`` too, so its
        post-join operators are skipped (they would read a ``b`` no row
        has), and the refinement keys stay a superset."""
        leaves = {
            0: [{"k": 1, "a": 5}, {"k": 2, "a": 1}],
            1: None,
            2: [{"k": 2, "c": 4}, {"k": 1, "c": 6}, {"k": 3, "c": 1}],
        }
        tree = JoinNode(
            left=0,
            right=JoinNode(left=1, right=2, keys=("k",), post_ops=()),
            keys=("k",),
            post_ops=(
                Map(keys=("k",), values=(Difference("a", "b", "d"),)),
                Filter((Predicate("d", "gt", 0),)),
            ),
        )
        states = {i: None if r is None else state_from_rows(r) for i, r in leaves.items()}
        expected = rowops.assemble_join_tree(tree, leaves)
        got = batchops.assemble_join_tree(tree, states)
        assert _items(materialize_rows(got)) == _items(expected)
        assert expected == [{"k": 1, "a": 5, "c": 6}, {"k": 2, "a": 1, "c": 4}]

    def test_empty_active_leaf_gives_empty(self):
        states = {0: state_from_rows(self.LEAVES[0]), 1: ColumnarState(columns={}), 2: None}
        assert materialize_rows(batchops.assemble_join_tree(self.TREE, states)) == []
