"""Tests for the model evaluator (:mod:`repro.evaluation`)."""

from __future__ import annotations

import importlib.util
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.core import DensitySamplingProblem, GaussianTargetProblem, MLMCMCSampler
from repro.evaluation import (
    MAX_BATCH_SIZE,
    BatchEvaluator,
    Evaluator,
    EvaluatorStats,
    InProcessEvaluator,
)
from repro.models.gaussian import GaussianHierarchyFactory

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "perf" / "spans.py"


def _load_spans():
    """The benchmark's span module, loaded from its file (it is not a package)."""
    spec = importlib.util.spec_from_file_location("perf_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: the evaluation-layer span targets: each must be defined on its own class
EVALUATION_SPAN_TARGETS = {
    name: target
    for name, target in _load_spans().SPAN_TABLE.items()
    if name.startswith("evaluation.")
}


class TestEvaluatorStats:
    def test_record_and_derived_quantities(self):
        stats = EvaluatorStats()
        stats.record("log_density", wall_time=0.5, cost=2.0)
        stats.record("qoi", wall_time=0.25, cost=1.0)
        assert stats.log_density_evaluations == 1
        assert stats.qoi_evaluations == 1
        assert stats.batch_calls == 0
        assert stats.wall_time == pytest.approx(0.75)
        assert stats.cost_units == pytest.approx(3.0)

    def test_batch_record(self, rng):
        problem = GaussianTargetProblem(np.zeros(2), 1.0, cost=2.0)
        problem.log_density_batch(rng.standard_normal((8, 2)))
        stats = problem.evaluation_stats
        assert stats.log_density_evaluations == 8
        assert stats.batch_calls == 1
        assert stats.cost_units == pytest.approx(16.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EvaluatorStats().record("solve", 0.0, 0.0)

    def test_counters_are_exactly_the_uncached_set(self):
        assert [f.name for f in fields(EvaluatorStats)] == [
            "log_density_evaluations",
            "qoi_evaluations",
            "batch_calls",
            "wall_time",
            "cost_units",
        ]
        assert list(EvaluatorStats().as_dict()) == [f.name for f in fields(EvaluatorStats)]

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

    def test_qoi_is_a_float_array_and_never_batched(self):
        problem = DensitySamplingProblem(
            dim=2, log_density=lambda theta: 0.0, qoi=lambda theta: [1, 2, 3]
        )
        value = problem.qoi(np.zeros(2))
        assert isinstance(value, np.ndarray) and value.dtype == np.float64
        np.testing.assert_array_equal(value, [1.0, 2.0, 3.0])
        assert problem.evaluation_stats.batch_calls == 0

    @pytest.mark.parametrize("kind", ["log_density", "qoi"])
    def test_failed_model_call_is_not_counted(self, kind):
        def broken(theta):
            raise RuntimeError("model diverged")

        problem = DensitySamplingProblem(
            dim=2,
            log_density=broken if kind == "log_density" else (lambda theta: 0.0),
            qoi=broken if kind == "qoi" else None,
        )
        with pytest.raises(RuntimeError, match="model diverged"):
            getattr(problem, kind)(np.zeros(2))
        assert problem.evaluation_stats.as_dict() == EvaluatorStats().as_dict()

    def test_problems_never_share_an_evaluator(self, gaussian_factory):
        first = gaussian_factory.problem_for_level(1)
        second = gaussian_factory.problem_for_level(1)
        assert first.evaluator is not second.evaluator
        first.log_density(np.zeros(first.dim))
        assert first.evaluation_stats.log_density_evaluations == 1
        assert second.evaluation_stats.log_density_evaluations == 0


class TestBatchEvaluator:
    def test_batch_matches_loop_on_gaussian(self, rng):
        problem = GaussianTargetProblem(np.ones(3), 2.5)
        block = rng.standard_normal((17, 3))
        batch = problem.log_density_batch(block)
        loop = np.array([problem.log_density(theta) for theta in block])
        np.testing.assert_allclose(batch, loop, rtol=1e-12)
        stats = problem.evaluation_stats
        assert stats.log_density_evaluations == 2 * 17
        assert stats.batch_calls == 1

    def test_chunking_respects_max_batch_size(self, rng):
        assert MAX_BATCH_SIZE == 1024
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        block = rng.standard_normal((1025, 2))
        problem.log_density_batch(block)
        assert problem.evaluation_stats.batch_calls == 2  # 1024 + 1
        assert problem.evaluation_stats.log_density_evaluations == 1025

    @pytest.mark.parametrize(
        "rows, calls", [(1, 1), (1023, 1), (1024, 1), (2048, 2), (2049, 3)]
    )
    def test_blocks_at_the_size_boundaries(self, rows, calls, rng):
        problem = GaussianTargetProblem(np.array([0.5]), 2.0)
        block = rng.standard_normal((rows, 1))
        batch = problem.log_density_batch(block)
        assert problem.evaluation_stats.batch_calls == calls
        # row order survives the split into blocks
        expected = -0.5 * (block[:, 0] - 0.5) ** 2 / 2.0
        np.testing.assert_allclose(batch - batch[0], expected - expected[0], atol=1e-12)

    def test_single_vector_is_one_row(self):
        problem = GaussianTargetProblem(np.zeros(3), 1.0)
        values = problem.log_density_batch(np.ones(3))
        assert values.shape == (1,)
        assert values[0] == pytest.approx(problem.log_density(np.ones(3)))
        assert problem.evaluation_stats.batch_calls == 1

    def test_empty_block(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        assert problem.log_density_batch(np.empty((0, 2))).shape == (0,)
        assert problem.evaluation_stats.log_density_evaluations == 0

    def test_short_vectorized_result_rejected(self):
        problem = DensitySamplingProblem(
            dim=2,
            log_density=lambda theta: 0.0,
            log_density_batch=lambda thetas: np.zeros(thetas.shape[0] - 1),
        )
        with pytest.raises(ValueError, match="returned 2 values for 3 inputs"):
            problem.log_density_batch(np.zeros((3, 2)))

    def test_batch_matches_loop_on_poisson_posterior(self, small_poisson_factory, rng):
        problem = small_poisson_factory.problem_for_level(0)
        block = 0.3 * rng.standard_normal((5, problem.dim))
        batch = problem.log_density_batch(block)
        loop = np.array([problem.log_density(theta) for theta in block])
        np.testing.assert_allclose(batch, loop, rtol=1e-8)


class TestEvaluatorInterface:
    def test_evaluator_declares_the_three_calls(self):
        assert Evaluator.__abstractmethods__ == {"log_density", "qoi", "log_density_batch"}
        with pytest.raises(TypeError):
            Evaluator()
        assert BatchEvaluator.__mro__[1:3] == (InProcessEvaluator, Evaluator)

    @pytest.mark.parametrize("name", sorted(EVALUATION_SPAN_TARGETS))
    def test_benchmark_span_target_is_defined_on_its_class(self, name):
        owner, attribute, raw = _load_spans().resolve_target(EVALUATION_SPAN_TARGETS[name])
        # defined on the named class itself, not inherited or aliased
        assert vars(owner)[attribute] is raw

    def test_every_benchmark_span_target_resolves(self):
        spans = _load_spans()
        for target in spans.SPAN_TABLE.values():
            spans.resolve_target(target)


class TestDefaultProblemsBatch:
    """Every default-built problem takes the vectorized path of its one evaluator."""

    @pytest.mark.parametrize(
        "factory_fixture", ["gaussian_factory", "small_poisson_factory", "small_tsunami_factory"]
    )
    def test_every_level_batches_and_matches_scalar_loop(self, factory_fixture, request):
        factory = request.getfixturevalue(factory_fixture)
        rng = np.random.default_rng(5)
        for level in range(factory.num_levels()):
            problem = factory.problem_for_level(level)
            assert type(problem.evaluator) is BatchEvaluator
            if factory_fixture == "small_tsunami_factory":
                block = np.array([[0.0, 0.0], [10.0, 5.0], [-119.0, 0.0], [20.0, -10.0]])
            else:
                block = 0.3 * rng.standard_normal((5, problem.dim))
            batch = problem.log_density_batch(block)
            assert problem.evaluation_stats.batch_calls > 0
            loop = np.array([problem.log_density(theta) for theta in block])
            np.testing.assert_allclose(batch, loop, rtol=1e-9)


class TestMLMCMCWithEvaluators:
    def test_sequential_result_carries_evaluator_stats(self, gaussian_factory):
        result = MLMCMCSampler(gaussian_factory, num_samples=[200, 80, 30], seed=3).run()
        assert len(result.evaluation_stats) == 3
        for count, stats in zip(result.model_evaluations, result.evaluation_stats):
            assert count == stats.log_density_evaluations > 0
            assert stats.wall_time > 0.0
        assert all(cost > 0.0 for cost in result.costs_per_sample)

    def test_single_level_cost_is_wall_time_per_evaluation(self, gaussian_factory, monkeypatch):
        import itertools

        import repro.evaluation.inprocess as inprocess
        from repro.core.mlmcmc import run_single_level_mcmc

        # every evaluation reads the clock twice: each one lasts exactly 0.125 s
        ticks = itertools.count()
        monkeypatch.setattr(inprocess, "perf_counter", lambda: 0.125 * next(ticks))
        estimate, chain = run_single_level_mcmc(gaussian_factory, 0, 200, burnin=50, seed=2)
        stats = chain.kernel.problem.evaluation_stats
        # one density per step, burn-in included, plus the starting point,
        # which is evaluated before the cost window opens
        assert stats.log_density_evaluations == chain.steps_taken + 1
        steps = chain.steps_taken
        assert estimate.cost_per_sample == pytest.approx(
            0.125 * (steps + stats.qoi_evaluations) / steps
        )

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
