"""Tests for the reference fault injector's bit-density machinery."""

import numpy as np
import pytest

from repro.sim.bitvec import WORD_BITS, popcount

from tests.sim.reference import FaultInjector


class TestInjectorDensity:
    @pytest.mark.parametrize("rate", [0.5, 0.25, 0.1, 1e-2, 1e-3])
    def test_mean_density_matches_rate(self, rate):
        rng = np.random.default_rng(0)
        injector = FaultInjector(rate, words=4, rng=rng)
        nodes = np.arange(64)
        total_bits = 0
        draws = 300
        for cycle in range(draws):
            mask = injector.mask(cycle, nodes)
            total_bits += popcount(mask)
        density = total_bits / (draws * 64 * 4 * WORD_BITS)
        assert density == pytest.approx(rate, rel=0.25)

    def test_zero_rate_no_flips(self):
        injector = FaultInjector(0.0, words=2, rng=np.random.default_rng(1))
        mask = injector.mask(0, np.arange(8))
        assert popcount(mask) == 0
        assert mask.shape == (8, 2)

    def test_mask_shape(self):
        injector = FaultInjector(0.1, words=3, rng=np.random.default_rng(2))
        assert injector.mask(0, np.arange(5)).shape == (5, 3)

    def test_masks_vary_across_calls(self):
        injector = FaultInjector(0.5, words=1, rng=np.random.default_rng(3))
        a = injector.mask(0, np.arange(4))
        b = injector.mask(1, np.arange(4))
        assert not (a == b).all()

    def test_k_mixing_brackets_rate(self):
        """The AND-of-k-words trick mixes two adjacent densities whose
        expectation equals the requested rate exactly."""
        rate = 3e-3
        injector = FaultInjector(rate, words=1, rng=np.random.default_rng(4))
        p_lo, p_hi = 2.0**-injector.k_lo, 2.0**-injector.k_hi
        w = injector.w_lo
        assert p_hi <= rate <= p_lo
        assert w * p_lo + (1 - w) * p_hi == pytest.approx(rate)
        assert 0.0 <= w <= 1.0
