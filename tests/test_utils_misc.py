"""Tests for the repro.utils random-source helpers."""

from __future__ import annotations

import numpy as np

from repro.utils.random import RandomSource


class TestRandomSource:
    def test_child_streams_are_reproducible(self):
        a = RandomSource(7).child("chain", 0).standard_normal(5)
        b = RandomSource(7).child("chain", 0).standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_child_streams_are_distinct(self):
        source = RandomSource(7)
        a = source.child("chain", 0).standard_normal(5)
        b = source.child("chain", 1).standard_normal(5)
        assert not np.allclose(a, b)

    def test_same_name_returns_same_generator(self):
        source = RandomSource(0)
        assert source.child("x") is source.child("x")

    def test_spawn_gives_independent_reproducible_generators(self):
        rngs = RandomSource(3).spawn(4)
        assert len(rngs) == 4
        draws = [r.standard_normal(3) for r in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])
        again = [r.standard_normal(3) for r in RandomSource(3).spawn(4)]
        np.testing.assert_array_equal(draws, again)

    def test_integers_in_range_and_reproducible(self):
        source = RandomSource(11)
        draws = [source.integers(5, 9) for _ in range(50)]
        assert all(5 <= d < 9 and isinstance(d, int) for d in draws)
        assert RandomSource(11).integers(5, 9) == draws[0]
        assert RandomSource(11).seed_entropy == 11
