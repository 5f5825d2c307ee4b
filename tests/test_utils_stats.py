"""Tests for repro.utils.stats: running moments and MCMC diagnostics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.utils.stats import (
    RunningMoments,
    autocorrelation,
    batch_means_variance,
    effective_sample_size,
    integrated_autocorrelation_time,
)


class TestRunningMoments:
    def test_matches_numpy_mean_and_variance(self, rng):
        data = rng.normal(size=(200, 3))
        moments = RunningMoments()
        moments.extend(data)
        assert moments.count == 200
        np.testing.assert_allclose(moments.mean(), data.mean(axis=0), rtol=1e-12)
        np.testing.assert_allclose(moments.variance(), data.var(axis=0, ddof=1), rtol=1e-12)
        np.testing.assert_allclose(moments.std(), data.std(axis=0, ddof=1), rtol=1e-12)

    def test_covariance_matches_numpy(self, rng):
        data = rng.normal(size=(150, 4))
        moments = RunningMoments(track_covariance=True)
        moments.extend(data)
        np.testing.assert_allclose(moments.covariance(), np.cov(data.T), rtol=1e-10)

    def test_scalar_samples_are_promoted(self):
        moments = RunningMoments()
        for x in [1.0, 2.0, 3.0]:
            moments.push(x)
        np.testing.assert_allclose(moments.mean(), [2.0])

    def test_empty_moments(self):
        moments = RunningMoments()
        assert moments.count == 0
        assert moments.mean().size == 0
        assert moments.standard_error().size == 0

    def test_dimension_mismatch_raises(self):
        moments = RunningMoments()
        moments.push(np.zeros(2))
        with pytest.raises(ValueError):
            moments.push(np.zeros(3))

    def test_merge_equivalent_to_single_pass(self, rng):
        data = rng.normal(size=(300, 2))
        full = RunningMoments(track_covariance=True)
        full.extend(data)
        part_a = RunningMoments(track_covariance=True)
        part_b = RunningMoments(track_covariance=True)
        part_a.extend(data[:100])
        part_b.extend(data[100:])
        part_a.merge(part_b)
        assert part_a.count == 300
        np.testing.assert_allclose(part_a.mean(), full.mean(), rtol=1e-10)
        np.testing.assert_allclose(part_a.variance(), full.variance(), rtol=1e-10)
        np.testing.assert_allclose(part_a.covariance(), full.covariance(), rtol=1e-9)

    def test_merge_into_empty(self, rng):
        data = rng.normal(size=(50, 2))
        filled = RunningMoments()
        filled.extend(data)
        empty = RunningMoments()
        empty.merge(filled)
        np.testing.assert_allclose(empty.mean(), data.mean(axis=0))

    def test_merge_empty_is_noop(self, rng):
        data = rng.normal(size=(50, 2))
        filled = RunningMoments()
        filled.extend(data)
        filled.merge(RunningMoments())
        assert filled.count == 50

    @given(
        data=hnp.arrays(
            dtype=float,
            shape=st.tuples(st.integers(2, 40), st.integers(1, 4)),
            elements=st.floats(-1e3, 1e3, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_matches_two_pass(self, data):
        moments = RunningMoments()
        moments.extend(data)
        np.testing.assert_allclose(moments.mean(), data.mean(axis=0), atol=1e-8)
        np.testing.assert_allclose(
            moments.variance(), data.var(axis=0, ddof=1), rtol=1e-6, atol=1e-6
        )

    @given(
        n_split=st.integers(1, 29),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_property_merge_invariant_to_split_point(self, n_split, seed):
        data = np.random.default_rng(seed).normal(size=(30, 2))
        a = RunningMoments()
        b = RunningMoments()
        a.extend(data[:n_split])
        b.extend(data[n_split:])
        a.merge(b)
        np.testing.assert_allclose(a.mean(), data.mean(axis=0), atol=1e-10)
        np.testing.assert_allclose(a.variance(), data.var(axis=0, ddof=1), atol=1e-10)


_blocks = st.lists(st.integers(0, 12), min_size=3, max_size=3)


def _split(data: np.ndarray, sizes: list[int]) -> list[np.ndarray]:
    cuts = np.cumsum(sizes)[:-1]
    return np.split(data, np.minimum(cuts, data.shape[0]))


class TestMergeProperties:
    """Chan merges are associative and agree with one sequential pass."""

    @given(sizes=_blocks, dim=st.integers(1, 3), seed=st.integers(0, 1000))
    @settings(max_examples=60, deadline=None)
    def test_running_moments_merge_is_associative(self, sizes, dim, seed):
        data = np.random.default_rng(seed).normal(2.0, 3.0, size=(sum(sizes), dim))
        parts = _split(data, sizes)

        def acc(rows):
            moments = RunningMoments(track_covariance=True)
            moments.extend(rows)
            return moments

        def part(i):
            return acc(parts[i])

        left = part(0).merge(part(1)).merge(part(2))
        right = part(0).merge(part(1).merge(part(2)))
        sequential = acc(data)
        for merged in (left, right):
            assert merged.count == sequential.count == data.shape[0]
            np.testing.assert_allclose(merged.mean(), sequential.mean(), atol=1e-12)
            np.testing.assert_allclose(merged.variance(), sequential.variance(), atol=1e-10)
            np.testing.assert_allclose(
                merged.covariance(), sequential.covariance(), atol=1e-10
            )


class TestAutocorrelation:
    def test_iid_series_has_unit_iact(self, rng):
        series = rng.standard_normal(20_000)
        tau = integrated_autocorrelation_time(series)
        assert tau == pytest.approx(1.0, abs=0.2)

    def test_ar1_series_iact_matches_theory(self, rng):
        # AR(1) with coefficient phi has IACT = (1 + phi) / (1 - phi).
        phi = 0.8
        n = 60_000
        noise = rng.standard_normal(n)
        series = np.zeros(n)
        for i in range(1, n):
            series[i] = phi * series[i - 1] + noise[i]
        tau = integrated_autocorrelation_time(series)
        expected = (1 + phi) / (1 - phi)
        assert tau == pytest.approx(expected, rel=0.25)

    def test_autocorrelation_starts_at_one(self, rng):
        rho = autocorrelation(rng.standard_normal(500))
        assert rho[0] == pytest.approx(1.0)
        assert np.all(np.abs(rho) <= 1.0 + 1e-9)

    def test_constant_series(self):
        assert integrated_autocorrelation_time(np.ones(100)) == 1.0

    def test_short_series(self):
        assert integrated_autocorrelation_time(np.array([1.0, 2.0])) == 1.0

    def test_effective_sample_size_bounds(self, rng):
        series = rng.standard_normal(5000)
        ess = effective_sample_size(series)
        assert 0 < ess <= 5000 * 1.2
        # correlated series has smaller ESS
        correlated = np.repeat(rng.standard_normal(500), 10)
        assert effective_sample_size(correlated) < ess

    def test_effective_sample_size_multivariate_takes_minimum(self, rng):
        iid = rng.standard_normal(4000)
        correlated = np.repeat(rng.standard_normal(400), 10)
        combined = np.stack([iid, correlated], axis=1)
        assert effective_sample_size(combined) <= effective_sample_size(iid)

    def test_batch_means_variance_positive(self, rng):
        series = rng.standard_normal(1000)
        var = batch_means_variance(series)
        assert var > 0
        # Roughly 1/N for iid standard normals.
        assert var == pytest.approx(1.0 / 1000, rel=1.0)

    def test_batch_means_variance_short_series(self):
        assert batch_means_variance(np.array([1.0])) == 0.0
        assert batch_means_variance(np.ones((1, 3))).tobytes() == np.zeros(3).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 19, 20, 21, 41, 360])
    @pytest.mark.parametrize("q", [1, 3, 289])
    def test_batch_means_variance_columns_match_the_per_column_loop(self, n, q):
        def one_series(series, num_batches=20):
            # the single-series formula, written out plainly
            x = np.asarray(series, dtype=float).ravel()
            batches = max(2, min(num_batches, x.size // 2)) if x.size >= 4 else 2
            size = x.size // batches
            means = x[: size * batches].reshape(batches, size).mean(axis=1)
            return float(np.var(means, ddof=1) / batches)

        rng = np.random.default_rng(1000 * n + q)
        block = rng.normal(size=(n, q)) * rng.uniform(0.1, 10.0, size=q) + rng.normal(size=q)
        loop = np.array([one_series(block[:, j]) for j in range(q)])
        assert batch_means_variance(block).tobytes() == loop.tobytes()
        assert batch_means_variance(block[:, 0]) == loop[0]
        assert isinstance(batch_means_variance(block[:, 0]), float)
