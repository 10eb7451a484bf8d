"""Tests for hash-indexed register chains."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ResourceExhaustedError
from repro.switch.registers import RegisterChain, RegisterSpec


def make_chain(n_slots=64, d=2, seed=0):
    return RegisterChain(
        RegisterSpec(name="r", n_slots=n_slots, d=d, key_bits=32, seed=seed)
    )


class TestSpec:
    def test_total_bits(self):
        spec = RegisterSpec("r", n_slots=100, d=3, key_bits=32, value_bits=32)
        assert spec.total_bits == 3 * 100 * 64

    def test_rejects_bad_geometry(self):
        with pytest.raises(ResourceExhaustedError):
            RegisterSpec("r", n_slots=0, d=1, key_bits=32)
        with pytest.raises(ResourceExhaustedError):
            RegisterSpec("r", n_slots=1, d=0, key_bits=32)


class TestUpdates:
    def test_sum(self):
        chain = make_chain()
        assert chain.update(1, "sum", 5).value == 5
        assert chain.update(1, "sum", 3).value == 8
        assert chain.lookup(1) == 8

    def test_count(self):
        chain = make_chain()
        chain.update("k", "count")
        chain.update("k", "count")
        assert chain.lookup("k") == 2

    def test_max_min_or(self):
        chain = make_chain()
        chain.update(1, "max", 5)
        assert chain.update(1, "max", 3).value == 5
        chain.update(2, "min", 5)
        assert chain.update(2, "min", 3).value == 3
        chain.update(3, "or", 4)
        assert chain.update(3, "or", 1).value == 5

    def test_inserted_flag(self):
        chain = make_chain()
        assert chain.update(1, "sum", 1).inserted
        assert not chain.update(1, "sum", 1).inserted

    def test_unknown_func_rejected(self):
        with pytest.raises(ResourceExhaustedError):
            make_chain().update(1, "avg", 1)

    def test_lookup_missing(self):
        assert make_chain().lookup("nope") is None

    def test_reset(self):
        chain = make_chain()
        chain.update(1, "sum", 5)
        chain.reset()
        assert chain.lookup(1) is None
        assert chain.dump() == {}

    def test_tuple_keys(self):
        chain = make_chain()
        chain.update((1, 2), "sum", 1)
        chain.update((2, 1), "sum", 1)
        assert chain.lookup((1, 2)) == 1
        assert chain.lookup((2, 1)) == 1


class TestCollisions:
    def test_overflow_with_single_slot(self):
        chain = make_chain(n_slots=1, d=1)
        assert not chain.update("a", "sum", 1).overflowed
        result = chain.update("b", "sum", 1)
        assert result.overflowed
        assert chain.overflows == 1

    def test_chain_absorbs_single_array_collisions(self):
        shallow = make_chain(n_slots=32, d=1, seed=3)
        deep = make_chain(n_slots=32, d=4, seed=3)
        keys = list(range(30))
        shallow_overflows = sum(
            shallow.update(k, "sum", 1).overflowed for k in keys
        )
        deep_overflows = sum(deep.update(k, "sum", 1).overflowed for k in keys)
        assert deep_overflows <= shallow_overflows

    def test_overflowed_key_keeps_overflowing(self):
        chain = make_chain(n_slots=1, d=1)
        chain.update("a", "sum", 1)
        assert chain.update("b", "sum", 1).overflowed
        assert chain.update("b", "sum", 1).overflowed  # deterministic

    def test_dump_returns_all_stored(self):
        chain = make_chain(n_slots=256, d=2)
        for key in range(100):
            chain.update(key, "sum", key)
        dump = chain.dump()
        assert len(dump) + chain.overflows >= 100
        for key, value in dump.items():
            assert value == key

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=200))
    def test_aggregates_match_python_for_stored_keys(self, stream):
        chain = make_chain(n_slots=512, d=2)
        truth: dict[int, int] = {}
        overflowed: set[int] = set()
        for key in stream:
            result = chain.update(key, "sum", 1)
            if result.overflowed:
                overflowed.add(key)
            else:
                truth[key] = truth.get(key, 0) + 1
        for key, value in chain.dump().items():
            assert truth[key] == value
        # a key is either stored or overflowed, never both
        assert not (set(chain.dump()) & overflowed)
