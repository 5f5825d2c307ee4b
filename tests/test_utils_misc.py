"""Tests for the repro.utils random-source helpers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.random import (
    RandomSource,
    as_generator,
    choice_without_replacement,
    spawn_rngs,
    stratified_indices,
)


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

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(3, 4)
        assert len(rngs) == 4
        draws = [r.standard_normal(3) for r in rngs]
        for i in range(4):
            for j in range(i + 1, 4):
                assert not np.allclose(draws[i], draws[j])

    def test_as_generator(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen
        assert isinstance(as_generator(5), np.random.Generator)

    def test_stratified_indices_sorted_and_in_range(self, rng):
        idx = stratified_indices(rng, 100, 10)
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 100

    def test_stratified_indices_invalid_strata(self, rng):
        with pytest.raises(ValueError):
            stratified_indices(rng, 10, 0)

    def test_choice_without_replacement(self, rng):
        picked = choice_without_replacement(rng, range(10), 4)
        assert len(picked) == 4 and len(set(picked)) == 4
        assert choice_without_replacement(rng, range(3), 10) == [0, 1, 2]
