"""Tests for the count-min sketch of the sketch-vs-chain ablation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ResourceExhaustedError
from repro.switch.sketches import CountMinSketch, SketchSpec


def make_sketch(width=256, depth=3, seed=0):
    return CountMinSketch(SketchSpec("s", width=width, depth=depth, seed=seed))


class TestCountMinSketch:
    def test_exact_when_sparse(self):
        sketch = make_sketch()
        for key in range(20):
            for _ in range(key + 1):
                sketch.update(key)
        for key in range(20):
            assert sketch.estimate(key) == key + 1

    def test_never_undercounts(self):
        sketch = make_sketch(width=16, depth=2)  # heavy collisions
        truth = {}
        for key in range(200):
            sketch.update(key, key % 5 + 1)
            truth[key] = key % 5 + 1
        for key, value in truth.items():
            assert sketch.estimate(key) >= value

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=300))
    def test_overcount_only_property(self, stream):
        sketch = make_sketch(width=64, depth=3)
        truth: dict[int, int] = {}
        for key in stream:
            sketch.update(key)
            truth[key] = truth.get(key, 0) + 1
        for key, value in truth.items():
            assert sketch.estimate(key) >= value

    def test_reset(self):
        sketch = make_sketch()
        sketch.update(1, 10)
        sketch.reset()
        assert sketch.estimate(1) == 0

    def test_bad_geometry(self):
        with pytest.raises(ResourceExhaustedError):
            SketchSpec("s", width=0, depth=1)

    def test_memory_accounting(self):
        spec = SketchSpec("s", width=100, depth=4)
        assert spec.total_bits == 100 * 4 * 32
