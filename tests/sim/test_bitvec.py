"""Tests for packed bit-vector utilities (repro.sim.bitvec)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.bitvec import (
    WORD_BITS,
    biased_words,
    pack_bits,
    popcount,
    popcount_int64,
    unpack_bits,
    words_for,
)


class TestWordsFor:
    @pytest.mark.parametrize(
        "streams,expected", [(1, 1), (63, 1), (64, 1), (65, 2), (128, 2), (129, 3)]
    )
    def test_rounding(self, streams, expected):
        assert words_for(streams) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            words_for(0)


class TestPopcount:
    def test_known_values(self):
        words = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert popcount(words) == 0 + 1 + 2 + 64

    def test_axis_reduction(self):
        words = np.array(
            [[1, 3], [0xFF, 0]], dtype=np.uint64
        )
        per_row = popcount(words, axis=1)
        assert per_row.tolist() == [3, 8]

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            popcount(np.zeros(3, dtype=np.int64))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=16))
    def test_property_matches_python_bin(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = sum(bin(v).count("1") for v in values)
        assert popcount(words) == expected


class TestPopcountInt64:
    """The ``np.bitwise_count`` popcount must agree with the byte-LUT
    reference exactly."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_property_matches_lut_popcount(self, seed):
        rng = np.random.default_rng(seed)
        words = rng.integers(0, 2**64, size=(5, 4, 3), dtype=np.uint64)
        assert int(popcount_int64(words)) == int(popcount(words))
        for axis in (0, 1, 2):
            got = popcount_int64(words, axis=axis)
            assert got.dtype == np.int64
            assert np.array_equal(got, popcount(words, axis=axis).astype(np.int64))

    def test_extremes(self):
        words = np.array([0, 1, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
        assert popcount_int64(words) == 65

    @pytest.mark.parametrize("fill", [0, 0xFFFFFFFFFFFFFFFF])
    def test_all_zero_and_all_one_words_match_lut(self, fill):
        words = np.full((24, 37, 2), fill, dtype=np.uint64)
        total = popcount_int64(words)
        assert total.dtype == np.int64
        assert int(total) == int(popcount(words)) == (64 * words.size if fill else 0)
        for axis in (0, 1, 2):
            assert np.array_equal(
                popcount_int64(words, axis=axis),
                popcount(words, axis=axis).astype(np.int64),
            )

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            popcount_int64(np.zeros(3, dtype=np.int64))


class TestPackUnpack:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, size=(3, 2, WORD_BITS)).astype(bool)
        packed = pack_bits(bits)
        assert packed.shape == (3, 2)
        assert (unpack_bits(packed) == bits).all()

    def test_bit_order_little(self):
        bits = np.zeros((1, WORD_BITS), dtype=bool)
        bits[0, 0] = True  # lowest stream -> LSB
        assert pack_bits(bits)[0] == 1

    def test_rejects_bad_last_axis(self):
        with pytest.raises(ValueError):
            pack_bits(np.zeros((2, 3), dtype=bool))

    def test_unpack_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            unpack_bits(np.zeros(2, dtype=np.uint32))


class TestBiasedWords:
    def test_extreme_probs(self):
        rng = np.random.default_rng(0)
        zeros = biased_words(rng, (4, 2), 0.0)
        ones = biased_words(rng, (4, 2), 1.0)
        assert popcount(zeros) == 0
        assert popcount(ones) == 4 * 2 * WORD_BITS

    def test_density_tracks_probability(self):
        rng = np.random.default_rng(1)
        words = biased_words(rng, (200,), 0.3)
        density = popcount(words) / (200 * WORD_BITS)
        assert density == pytest.approx(0.3, abs=0.02)

    def test_per_position_probabilities(self):
        rng = np.random.default_rng(2)
        probs = np.array([0.1, 0.9])
        words = biased_words(rng, (2, 500), probs[:, None])
        d0 = popcount(words[0]) / (500 * WORD_BITS)
        d1 = popcount(words[1]) / (500 * WORD_BITS)
        assert d0 == pytest.approx(0.1, abs=0.02)
        assert d1 == pytest.approx(0.9, abs=0.02)
