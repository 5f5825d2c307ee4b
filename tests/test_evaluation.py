"""Tests for the model-evaluation backend subsystem (:mod:`repro.evaluation`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DensitySamplingProblem, GaussianTargetProblem, MLMCMCSampler
from repro.evaluation import (
    BatchEvaluator,
    CachingEvaluator,
    EvaluatorStats,
    InProcessEvaluator,
    PoolEvaluator,
    make_evaluator,
)
from repro.models.gaussian import GaussianHierarchyFactory


def _quadratic_log_density(theta: np.ndarray) -> float:
    """Module-level target so it can cross process boundaries (pool backend)."""
    return -0.5 * float(np.sum(np.asarray(theta, dtype=float) ** 2))


class TestEvaluatorStats:
    def test_record_and_derived_quantities(self):
        stats = EvaluatorStats()
        stats.record("log_density", wall_time=0.5, cost=2.0)
        stats.record("qoi", wall_time=0.25, cost=1.0)
        stats.record("log_density", 0.0, 0.0, cache_hit=True)
        assert stats.log_density_evaluations == 1
        assert stats.qoi_evaluations == 1
        assert stats.cache_hits == 1
        assert stats.total_evaluations == 2
        assert stats.density_requests == 2
        assert stats.wall_time == pytest.approx(0.75)
        assert stats.cost_units == pytest.approx(3.0)
        assert stats.mean_wall_time_per_evaluation() == pytest.approx(0.375)
        assert 0.0 < stats.hit_rate < 1.0

    def test_batch_record(self):
        stats = EvaluatorStats()
        stats.record("log_density", wall_time=1.0, cost=8.0, batch_size=8)
        assert stats.log_density_evaluations == 8
        assert stats.batch_calls == 1

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EvaluatorStats().record("solve", 0.0, 0.0)

    def test_snapshot_delta_merge(self):
        stats = EvaluatorStats()
        stats.record("log_density", 0.1, 1.0)
        before = stats.snapshot()
        stats.record("log_density", 0.2, 1.0)
        delta = stats.delta(before)
        assert delta.log_density_evaluations == 1
        assert delta.wall_time == pytest.approx(0.2)
        # snapshot is independent of the live object
        assert before.log_density_evaluations == 1
        merged = EvaluatorStats().merge(stats).merge(stats)
        assert merged.log_density_evaluations == 4
        assert set(stats.as_dict()) >= {"log_density_evaluations", "wall_time", "cost_units"}


class TestInProcessEvaluator:
    def test_counts_and_cost_units(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0, cost=4.0)
        assert isinstance(problem.evaluator, InProcessEvaluator)
        problem.log_density(np.ones(2))
        problem.log_density(np.ones(2))  # raw arrays are never cached
        problem.qoi(np.ones(2))
        stats = problem.evaluation_stats
        assert stats.log_density_evaluations == 2
        assert problem.num_density_evaluations == 2
        assert stats.qoi_evaluations == 1
        assert stats.cost_units == pytest.approx(3 * 4.0)
        assert stats.wall_time > 0.0

    def test_unbound_evaluator_raises(self):
        with pytest.raises(RuntimeError):
            InProcessEvaluator().log_density(np.zeros(2))

    def test_rebinding_shared_evaluator_rejected(self):
        """An evaluator serves exactly one problem (a shared one would silently
        evaluate the wrong model and poison caches)."""
        shared = InProcessEvaluator()
        GaussianTargetProblem(np.zeros(2), 1.0, evaluator=shared)
        with pytest.raises(RuntimeError, match="already bound"):
            GaussianTargetProblem(np.ones(2), 1.0, evaluator=shared)


class TestCachingEvaluator:
    def test_hit_and_miss_semantics(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0, evaluator=CachingEvaluator())
        x, y = np.array([1.0, 2.0]), np.array([3.0, 4.0])
        first = problem.log_density(x)
        assert problem.evaluation_stats.cache_misses == 1
        second = problem.log_density(x.copy())  # equal bytes -> hit
        assert first == second
        problem.log_density(y)
        stats = problem.evaluation_stats
        assert stats.log_density_evaluations == 2  # only the misses ran the model
        assert stats.cache_hits == 1
        assert stats.cache_misses == 2
        assert problem.num_density_evaluations == 2

    def test_qoi_cached_and_copy_safe(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0, evaluator=CachingEvaluator())
        x = np.array([1.0, 2.0])
        qoi = problem.qoi(x)
        qoi[:] = -99.0  # mutate the returned array; the cache must not see it
        np.testing.assert_allclose(problem.qoi(x), [1.0, 2.0])
        assert problem.evaluation_stats.qoi_evaluations == 1
        assert problem.evaluation_stats.qoi_cache_hits == 1
        assert problem.evaluation_stats.cache_hits == 0  # density hits tracked apart

    def test_lru_eviction(self):
        evaluator = CachingEvaluator(max_entries=2)
        problem = GaussianTargetProblem(np.zeros(1), 1.0, evaluator=evaluator)
        a, b, c = np.array([1.0]), np.array([2.0]), np.array([3.0])
        problem.log_density(a)
        problem.log_density(b)
        problem.log_density(a)  # refresh a: b is now least recently used
        problem.log_density(c)  # evicts b
        assert evaluator.cache_size == 2
        problem.log_density(a)  # hit
        problem.log_density(b)  # miss: was evicted
        stats = problem.evaluation_stats
        assert stats.log_density_evaluations == 4  # a, b, c and re-computed b
        assert stats.cache_hits == 2

    def test_batch_uses_cache(self):
        evaluator = CachingEvaluator()
        problem = GaussianTargetProblem(np.zeros(2), 1.0, evaluator=evaluator)
        block = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0]])
        values = problem.log_density_batch(block)
        assert values[0] == values[2]
        assert problem.evaluation_stats.log_density_evaluations == 2
        again = problem.log_density_batch(block)
        np.testing.assert_array_equal(values, again)
        assert problem.evaluation_stats.log_density_evaluations == 2

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CachingEvaluator(max_entries=0)


class TestBatchEvaluator:
    def test_batch_matches_loop_on_gaussian(self, rng):
        problem = GaussianTargetProblem(np.ones(3), 2.5, evaluator=BatchEvaluator())
        reference = GaussianTargetProblem(np.ones(3), 2.5)
        block = rng.standard_normal((17, 3))
        batch = problem.log_density_batch(block)
        loop = np.array([reference.log_density(theta) for theta in block])
        np.testing.assert_allclose(batch, loop, rtol=1e-12)
        stats = problem.evaluation_stats
        assert stats.log_density_evaluations == 17
        assert stats.batch_calls >= 1

    def test_chunking_respects_max_batch_size(self, rng):
        problem = GaussianTargetProblem(np.zeros(2), 1.0, evaluator=BatchEvaluator(max_batch_size=4))
        block = rng.standard_normal((10, 2))
        problem.log_density_batch(block)
        assert problem.evaluation_stats.batch_calls == 3  # 4 + 4 + 2

    def test_batch_matches_loop_on_poisson_posterior(self, small_poisson_factory, rng):
        problem = small_poisson_factory.problem_for_level(0)
        block = 0.3 * rng.standard_normal((5, problem.dim))
        batch = problem.log_density_batch(block)
        loop = np.array([problem.log_density(theta) for theta in block])
        np.testing.assert_allclose(batch, loop, rtol=1e-8)


class TestPoolEvaluator:
    def test_pool_matches_inprocess(self, rng):
        evaluator = PoolEvaluator(processes=2)
        problem = DensitySamplingProblem(
            dim=3, log_density=_quadratic_log_density, evaluator=evaluator
        )
        block = rng.standard_normal((8, 3))
        try:
            values = problem.log_density_batch(block)
        finally:
            evaluator.close()
        expected = np.array([_quadratic_log_density(theta) for theta in block])
        np.testing.assert_allclose(values, expected, rtol=1e-12)
        assert problem.evaluation_stats.log_density_evaluations == 8
        assert problem.evaluation_stats.batch_calls == 1

    def test_small_batches_stay_in_process(self):
        evaluator = PoolEvaluator(processes=2, min_batch_size=4)
        problem = DensitySamplingProblem(
            dim=2, log_density=_quadratic_log_density, evaluator=evaluator
        )
        problem.log_density_batch(np.zeros((2, 2)))
        assert evaluator._pool is None  # never spawned
        evaluator.close()

    def test_min_batch_size_honored_as_documented(self, rng):
        # Regression: min_batch_size=1 was silently clamped to 2, so single-
        # vector batches never reached the pool despite the docstring.
        evaluator = PoolEvaluator(processes=2, min_batch_size=1)
        problem = DensitySamplingProblem(
            dim=3, log_density=_quadratic_log_density, evaluator=evaluator
        )
        single = rng.standard_normal((1, 3))
        try:
            values = problem.log_density_batch(single)
            assert evaluator._pool is not None, "single batch should use the pool"
        finally:
            evaluator.close()
        np.testing.assert_allclose(values, [_quadratic_log_density(single[0])])

    def test_min_batch_size_validation(self):
        with pytest.raises(ValueError, match="min_batch_size"):
            PoolEvaluator(processes=1, min_batch_size=0)

    def test_close_is_graceful_and_pool_rebuilds(self, rng):
        evaluator = PoolEvaluator(processes=2)
        problem = DensitySamplingProblem(
            dim=2, log_density=_quadratic_log_density, evaluator=evaluator
        )
        block = rng.standard_normal((4, 2))
        first = problem.log_density_batch(block)
        evaluator.close()
        assert evaluator._pool is None
        # a closed evaluator lazily rebuilds its pool on the next batch
        try:
            second = problem.log_density_batch(block)
        finally:
            evaluator.close()
        np.testing.assert_array_equal(first, second)


class TestMakeEvaluator:
    def test_dispatch(self):
        assert isinstance(make_evaluator("inprocess"), InProcessEvaluator)
        caching = make_evaluator("caching", cache_size=7)
        assert isinstance(caching, CachingEvaluator)
        assert caching.max_entries == 7
        assert isinstance(make_evaluator("batch", max_batch_size=3), BatchEvaluator)
        assert isinstance(make_evaluator("pool", processes=1), PoolEvaluator)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            make_evaluator("quantum")

    def test_factory_evaluator_hook_is_consulted(self):
        """Overriding MLComponentFactory.evaluator_for_level reaches the problems."""

        class HookedFactory(GaussianHierarchyFactory):
            def evaluator_for_level(self, level):
                return CachingEvaluator(max_entries=5)

        problem = HookedFactory(dim=2, num_levels=2).problem_for_level(1)
        assert isinstance(problem.evaluator, CachingEvaluator)
        assert problem.evaluator.max_entries == 5

    def test_callable_inner_gives_fresh_instance_per_problem(self):
        factory = GaussianHierarchyFactory(
            dim=2,
            num_levels=2,
            evaluation_backend="caching",
            evaluator_options={"inner": BatchEvaluator},  # callable, not instance
        )
        p0, p1 = factory.problem_for_level(0), factory.problem_for_level(1)
        assert isinstance(p0.evaluator.inner, BatchEvaluator)
        assert p0.evaluator.inner is not p1.evaluator.inner

    def test_unknown_options_rejected(self):
        with pytest.raises(ValueError, match="cache_sise"):
            make_evaluator("caching", cache_sise=16)
        with pytest.raises(ValueError, match="cache_size"):
            make_evaluator("batch", cache_size=16)


class TestMLMCMCWithEvaluators:
    def test_caching_estimate_bit_identical_to_inprocess(self):
        """The headline parity property: caching changes cost, not statistics."""
        num_samples = [400, 150, 60]
        kwargs = dict(dim=2, num_levels=3, subsampling=1, proposal_scale=2.5)
        plain = MLMCMCSampler(
            GaussianHierarchyFactory(**kwargs), num_samples=num_samples, seed=33
        ).run()
        cached = MLMCMCSampler(
            GaussianHierarchyFactory(evaluation_backend="caching", **kwargs),
            num_samples=num_samples,
            seed=33,
        ).run()
        np.testing.assert_array_equal(plain.mean, cached.mean)
        for a, b in zip(plain.estimate.contributions, cached.estimate.contributions):
            np.testing.assert_array_equal(a.mean, b.mean)
        # caching must actually have reduced model evaluations
        assert sum(cached.model_evaluations) < sum(plain.model_evaluations)
        assert sum(stats.cache_hits for stats in cached.evaluation_stats) > 0

    def test_sequential_result_carries_evaluator_stats(self, gaussian_factory):
        result = MLMCMCSampler(gaussian_factory, num_samples=[200, 80, 30], seed=3).run()
        assert len(result.evaluation_stats) == 3
        for count, stats in zip(result.model_evaluations, result.evaluation_stats):
            assert count == stats.log_density_evaluations > 0
            assert stats.wall_time > 0.0
        assert all(cost > 0.0 for cost in result.costs_per_sample)

    def test_parallel_result_carries_evaluator_stats(self):
        from repro.core import CostModel
        from repro.parallel import ParallelMLMCMCSampler

        factory = GaussianHierarchyFactory(dim=2, num_levels=2, subsampling=2)
        cost_model = CostModel([0.01, 0.04])
        result = ParallelMLMCMCSampler(
            factory,
            num_samples=[120, 40],
            num_ranks=8,
            cost_model=cost_model,
            seed=11,
        ).run()
        assert set(result.evaluation_stats) == {0, 1}
        assert all(s.log_density_evaluations > 0 for s in result.evaluation_stats.values())
        assert result.model_evaluations[0] > result.model_evaluations[1]
        # worker-free layouts still aggregate stats (possibly empty)
        assert result.worker_busy_time() >= 0.0
