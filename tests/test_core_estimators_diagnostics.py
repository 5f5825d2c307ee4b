"""Tests for estimators (telescoping sum, MC baseline, allocation) and diagnostics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.diagnostics import diagnose_collection, gelman_rubin
from repro.core.estimators import (
    MonteCarloEstimate,
    MultilevelEstimate,
    optimal_sample_allocation,
)
from repro.core.sample_collection import CorrectionCollection, SampleCollection


def _correction(level: int, fine: np.ndarray, coarse: np.ndarray | None) -> CorrectionCollection:
    collection = CorrectionCollection(level)
    for i in range(fine.shape[0]):
        collection.add(fine[i], None if coarse is None else coarse[i])
    return collection


class TestMultilevelEstimate:
    def test_telescoping_sum_identity(self, rng):
        # E[Q_0] + sum of corrections must equal the mean assembled by the estimator.
        q0 = rng.normal(1.0, 0.1, size=(500, 2))
        q1_fine = rng.normal(1.5, 0.1, size=(300, 2))
        q1_coarse = rng.normal(1.0, 0.1, size=(300, 2))
        corrections = [
            _correction(0, q0, None),
            _correction(1, q1_fine, q1_coarse),
        ]
        estimate = MultilevelEstimate.from_corrections(corrections, costs_per_sample=[1.0, 4.0])
        expected = q0.mean(axis=0) + (q1_fine - q1_coarse).mean(axis=0)
        np.testing.assert_allclose(estimate.mean, expected, rtol=1e-12)
        cumulative = estimate.cumulative_means()
        np.testing.assert_allclose(cumulative[0], q0.mean(axis=0))
        np.testing.assert_allclose(cumulative[-1], estimate.mean)

    def test_costs_and_summary(self, rng):
        corrections = [
            _correction(0, rng.normal(size=(100, 1)), None),
            _correction(1, rng.normal(size=(50, 1)), rng.normal(size=(50, 1))),
        ]
        estimate = MultilevelEstimate.from_corrections(corrections, costs_per_sample=[0.1, 1.0])
        assert estimate.total_cost == pytest.approx(100 * 0.1 + 50 * 1.0)
        summary = estimate.summary()
        assert len(summary) == 2
        assert summary[1]["num_samples"] == 50

    def test_mixed_empty_level_raises_instead_of_silent_corruption(self, rng):
        # Regression: np.zeros(0) + np.zeros(d) broadcasts to shape (0,), so a
        # single empty level used to silently discard every other level's
        # contribution from the telescoping sum.
        corrections = [
            _correction(0, rng.normal(size=(50, 2)), None),
            CorrectionCollection(1),  # a level that never reported
            _correction(2, rng.normal(size=(20, 2)), rng.normal(size=(20, 2))),
        ]
        estimate = MultilevelEstimate.from_corrections(corrections)
        with pytest.raises(ValueError, match=r"level\(s\) \[1\]"):
            _ = estimate.mean
        with pytest.raises(ValueError, match="empty"):
            estimate.cumulative_means()

    def test_all_levels_empty_keeps_legacy_empty_mean(self):
        estimate = MultilevelEstimate.from_corrections(
            [CorrectionCollection(0), CorrectionCollection(1)]
        )
        assert estimate.mean.size == 0
        assert MultilevelEstimate(contributions=[]).mean.size == 0

    def test_estimator_variance_decreases_with_samples(self, rng):
        small = MultilevelEstimate.from_corrections(
            [_correction(0, rng.normal(size=(50, 1)), None)]
        )
        large = MultilevelEstimate.from_corrections(
            [_correction(0, rng.normal(size=(5000, 1)), None)]
        )
        assert large.estimator_variance()[0] < small.estimator_variance()[0]

    def test_mse_against_reference(self, rng):
        corrections = [_correction(0, np.full((100, 2), 3.0), None)]
        estimate = MultilevelEstimate.from_corrections(corrections)
        assert estimate.mean_squared_error(np.array([3.0, 3.0])) == pytest.approx(0.0)
        assert estimate.mean_squared_error(np.array([4.0, 3.0])) == pytest.approx(0.5)


class TestMonteCarloEstimate:
    def test_from_samples(self, rng):
        collection = SampleCollection()
        data = rng.normal(2.0, 1.0, size=(500, 2))
        for row in data:
            collection.add(row, qoi=row)
        estimate = MonteCarloEstimate.from_samples(collection, cost_per_sample=0.5)
        np.testing.assert_allclose(estimate.mean, data.mean(axis=0))
        assert estimate.num_samples == 500
        assert estimate.total_cost == pytest.approx(250.0)
        assert estimate.ess > 100


class TestOptimalAllocation:
    def test_matches_mlmc_formula(self):
        variances = np.array([1.0, 0.1, 0.01])
        costs = np.array([1.0, 10.0, 100.0])
        eps2 = 1e-2
        counts = optimal_sample_allocation(variances, costs, eps2)
        total = np.sum(np.sqrt(variances * costs))
        expected = np.ceil(np.sqrt(variances / costs) * total / eps2)
        np.testing.assert_array_equal(counts, expected.astype(int))
        # coarse level gets the most samples
        assert counts[0] > counts[1] > counts[2]

    def test_allocation_achieves_target_variance(self):
        variances = np.array([2.0, 0.2])
        costs = np.array([1.0, 8.0])
        target = 1e-3
        counts = optimal_sample_allocation(variances, costs, target)
        achieved = np.sum(variances / counts)
        assert achieved <= target * 1.05

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_sample_allocation(np.array([1.0]), np.array([1.0, 2.0]), 0.1)
        with pytest.raises(ValueError):
            optimal_sample_allocation(np.array([1.0]), np.array([1.0]), -1.0)
        with pytest.raises(ValueError):
            optimal_sample_allocation(np.array([1.0]), np.array([0.0]), 0.1)

    @given(
        v0=st.floats(0.1, 10), v1=st.floats(0.001, 0.1), c1=st.floats(2, 100),
        eps=st.floats(1e-4, 1e-1),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_more_variance_means_more_samples(self, v0, v1, c1, eps):
        counts = optimal_sample_allocation(np.array([v0, v1]), np.array([1.0, c1]), eps)
        assert counts[0] >= 1 and counts[1] >= 1
        assert counts[0] >= counts[1]


class TestDiagnostics:
    def test_diagnose_collection(self, rng):
        collection = SampleCollection()
        for _ in range(300):
            collection.add(rng.normal(1.0, 2.0, size=2))
        diag = diagnose_collection(collection)
        np.testing.assert_allclose(diag.mean, 1.0, atol=0.5)
        assert diag.num_samples == 300
        assert diag.ess > 50
        assert diag.iact >= 1.0
        assert "mean_norm" in diag.as_dict()

    def test_diagnose_empty(self):
        diag = diagnose_collection(SampleCollection())
        assert diag.num_samples == 0 and diag.ess == 0.0

    def test_gelman_rubin_converged_chains(self, rng):
        chains = [rng.normal(size=(2000, 2)) for _ in range(4)]
        rhat = gelman_rubin(chains)
        assert np.all(rhat < 1.1)

    def test_gelman_rubin_detects_disagreement(self, rng):
        chains = [rng.normal(0.0, 1.0, size=(500, 1)), rng.normal(5.0, 1.0, size=(500, 1))]
        rhat = gelman_rubin(chains)
        assert rhat[0] > 1.5

    def test_gelman_rubin_validation(self, rng):
        with pytest.raises(ValueError):
            gelman_rubin([rng.normal(size=(100, 1))])
        with pytest.raises(ValueError):
            gelman_rubin([np.zeros((1, 1)), np.zeros((1, 1))])
