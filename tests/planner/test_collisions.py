"""Tests for the collision model (Figure 3) and register sizing."""

import pytest

from repro.planner.collisions import (
    chain_overflow_rate,
    size_register,
)
from repro.switch.config import SwitchConfig
from repro.switch.registers import RegisterChain


class TestModelShape:
    """Figure 3's qualitative shape must hold."""

    def test_rate_increases_with_keys(self):
        rates = [chain_overflow_rate(1000, k, 1) for k in (100, 500, 1000, 2000)]
        assert rates == sorted(rates)
        assert rates[0] < rates[-1]

    def test_rate_decreases_with_depth(self):
        rates = [chain_overflow_rate(500, 1000, d) for d in (1, 2, 3, 4)]
        assert rates == sorted(rates, reverse=True)
        assert rates[3] < rates[0]

    def test_zero_keys(self):
        assert chain_overflow_rate(100, 0, 2) == 0.0

    def test_rate_bounded(self):
        for k in (1, 10, 100, 10_000):
            rate = chain_overflow_rate(64, k, 2)
            assert 0.0 <= rate <= 1.0

    def test_fifty_percent_regime(self):
        # With k = 2n and d = 1, roughly half the keys should collide
        # (1 - n(1-e^-2)/2n ≈ 0.57).
        rate = chain_overflow_rate(1000, 2000, 1)
        assert 0.4 < rate < 0.7


class TestModelAccuracy:
    """The analytic model must track the simulated register chain."""

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("ratio", [0.5, 1.0, 1.5])
    def test_matches_simulation(self, d, ratio):
        n_slots, trials = 256, 4
        k = int(n_slots * ratio)
        simulated = []
        for seed in range(trials):
            from repro.switch.registers import RegisterSpec

            chain = RegisterChain(
                RegisterSpec("r", n_slots=n_slots, d=d, key_bits=32, seed=seed)
            )
            overflows = sum(
                chain.update(key, "sum", 1).overflowed for key in range(k)
            )
            simulated.append(overflows / k)
        predicted = chain_overflow_rate(n_slots, k, d)
        average = sum(simulated) / trials
        assert abs(predicted - average) < 0.08


class TestSizing:
    def test_meets_target_overflow(self):
        config = SwitchConfig.paper_default()
        spec = size_register("r", 10_000, 32, 32, config, target_overflow=0.01)
        assert chain_overflow_rate(spec.n_slots, 10_000, spec.d) <= 0.01
        assert not spec.placeholder

    def test_headroom_applied(self):
        config = SwitchConfig.paper_default()
        spec = size_register("r", 1_000, 32, 32, config)
        assert spec.d * spec.n_slots >= config.register_headroom * 1_000

    def test_minimum_size(self):
        config = SwitchConfig.paper_default()
        spec = size_register("r", 1, 32, 32, config)
        assert spec.n_slots >= 16
