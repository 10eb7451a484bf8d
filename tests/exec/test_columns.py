"""Tests for the columnar tuple format: vocabulary kinds and merges."""

import pickle

import numpy as np
import pytest

from repro.exec import (
    ColumnarState,
    Vocab,
    concat_states,
    materialize_rows,
    state_from_rows,
)


class TestVocab:
    def test_kind_decides_the_empty_value(self):
        assert Vocab(["a"]).empty == ""
        assert Vocab([b"a"], "bytes").empty == b""
        with pytest.raises(ValueError):
            Vocab([1], "int")

    def test_kind_survives_pickling(self):
        vocab = pickle.loads(pickle.dumps(Vocab([b"x"], "bytes")))
        assert (vocab, vocab.kind) == ([b"x"], "bytes")

    def test_rows_intern_by_the_first_value(self):
        state = state_from_rows([{"p": b"", "n": "a.com", "v": 1}])
        assert {k: v.kind for k, v in state.vocabs.items()} == {"p": "bytes", "n": "str"}


class TestConcatStates:
    def test_unshared_vocabularies_keep_values_and_kinds(self):
        """Each state's absent cells read as its own empty value, and the
        union keeps the column's kind."""
        names = ["p", "n"]
        first = state_from_rows([{"p": b"x", "n": "a.com"}])
        second = ColumnarState(
            {"p": np.array([-1, 0]), "n": np.array([0, -1])},
            {"p": Vocab([b"y"], "bytes"), "n": Vocab(["b.com"])},
        )
        merged = concat_states([first, second])
        assert materialize_rows(merged, names) == (
            materialize_rows(first, names) + materialize_rows(second, names)
        )
        assert merged.vocabs["p"].kind == "bytes"


class TestFromTrace:
    def test_columns_are_read_only_views(self, backbone_small):
        """An in-place write raises: a grouping shared by column identity
        within a window cannot go stale."""
        state = ColumnarState.from_trace(backbone_small)
        column = state.columns["ipv4.dIP"]
        assert np.shares_memory(column, backbone_small.array)
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 1
        with pytest.raises(ValueError, match="read-only"):
            column += 1
        # Derived columns stay writable.
        masked = state.select(np.ones(state.n_rows, dtype=bool)).columns["ipv4.dIP"]
        masked[0] = 1
