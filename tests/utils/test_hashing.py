"""Tests for deterministic hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.utils.hashing import (
    HashFamily,
    counter_uniform,
    counter_uniforms,
    stable_hash,
)

_KEYS = st.one_of(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.binary(max_size=64),
    st.text(max_size=32),
    st.tuples(st.integers(min_value=0, max_value=2**32), st.integers()),
)


class TestCounterUniforms:
    @given(
        st.integers(min_value=0, max_value=2**64 - 1),
        st.integers(min_value=0, max_value=2**40),
        st.integers(min_value=0, max_value=64),
    )
    def test_vector_matches_scalar_bits(self, base, start, n):
        vec = counter_uniforms(base, start, n)
        assert vec.tolist() == [counter_uniform(base, start + k) for k in range(n)]

    def test_unit_interval_and_spread(self):
        draws = counter_uniforms(stable_hash("stream"), 0, 20_000)
        assert draws.min() >= 0.0 and draws.max() < 1.0
        assert abs(draws.mean() - 0.5) < 0.01


class TestStableHash:
    @given(_KEYS)
    def test_deterministic(self, key):
        assert stable_hash(key) == stable_hash(key)

    @given(_KEYS, st.integers(min_value=0, max_value=2**32))
    def test_seed_changes_output(self, key, seed):
        # Not literally guaranteed for every (key, seed), but a fixed
        # counterexample would indicate a broken mix.
        if stable_hash(key, seed) == stable_hash(key, seed + 1):
            pytest.fail("seed had no effect on hash output")

    def test_types_do_not_collide_trivially(self):
        assert stable_hash("a") != stable_hash(("a",))
        assert stable_hash(b"") != stable_hash(0)
        assert stable_hash(1) != stable_hash(True) or True  # bool normalized
        assert stable_hash(True) == stable_hash(1)

    def test_str_matches_utf8_bytes(self):
        assert stable_hash("host") == stable_hash(b"host")

    def test_rejects_unhashable(self):
        with pytest.raises(TypeError):
            stable_hash([1, 2])  # type: ignore[arg-type]

    @given(st.integers(min_value=0, max_value=2**128))
    def test_large_ints_supported(self, value):
        assert isinstance(stable_hash(value), int)

    def test_avalanche_rough(self):
        # Flipping one input bit should flip a substantial share of output
        # bits on average.
        base = stable_hash(0xDEADBEEF)
        flipped = stable_hash(0xDEADBEEF ^ 1)
        differing = bin(base ^ flipped).count("1")
        assert differing > 10


class TestHashFamily:
    def test_indices_in_range(self):
        family = HashFamily(d=4, n_slots=100, seed=7)
        for key in range(1000):
            for index in family.indices(key):
                assert 0 <= index < 100

    def test_functions_differ(self):
        family = HashFamily(d=2, n_slots=1 << 20, seed=7)
        same = sum(
            1 for key in range(200) if family.index(0, key) == family.index(1, key)
        )
        assert same <= 2  # collisions across functions should be rare

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HashFamily(d=0, n_slots=10)
        with pytest.raises(ValueError):
            HashFamily(d=1, n_slots=0)

    def test_uniformity_rough(self):
        family = HashFamily(d=1, n_slots=10, seed=3)
        buckets = [0] * 10
        for key in range(10_000):
            buckets[family.index(0, key)] += 1
        assert min(buckets) > 700 and max(buckets) < 1300
