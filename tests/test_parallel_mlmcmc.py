"""Integration tests for the parallel MLMCMC machine (roles + scheduler + estimator)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import CostModel
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel import (
    ParallelMLMCMCSampler,
    strong_scaling_study,
    weak_scaling_study,
)


@pytest.fixture(scope="module")
def factory():
    return GaussianHierarchyFactory(dim=2, num_levels=3, subsampling=3, proposal_scale=2.5)


@pytest.fixture(scope="module")
def cost_model():
    return CostModel([0.01, 0.04, 0.16])


@pytest.fixture(scope="module")
def small_run(factory, cost_model):
    sampler = ParallelMLMCMCSampler(
        factory,
        num_samples=[400, 150, 60],
        num_ranks=12,
        cost_model=cost_model,
        seed=42,
    )
    return sampler.run()


class TestParallelMLMCMCRun:
    def test_terminates_and_collects_targets(self, small_run):
        assert small_run.virtual_time > 0
        assert {level: len(c) for level, c in small_run.corrections.items()} == {
            0: 400,
            1: 150,
            2: 60,
        }

    def test_estimate_structure(self, small_run, factory):
        assert small_run.mean.shape == (2,)
        assert small_run.estimate.num_levels == 3
        # statistically the estimate should be in the right ballpark of the
        # exact finest mean (loose bound: few samples, coarse tuning)
        assert np.all(np.abs(small_run.mean - factory.exact_mean()) < 1.0)

    def test_trace_and_summary(self, small_run):
        summary = small_run.summary()
        assert summary["num_ranks"] == 12
        assert summary["messages_sent"] > 0
        assert 0.0 < summary["worker_utilization"] <= 1.0
        assert len(small_run.trace) > 0
        busy = small_run.trace.per_level_busy_time()
        assert all(busy.get(level, 0) > 0 for level in range(3))

    def test_level_finish_times_ordered_sensibly(self, small_run):
        assert set(small_run.level_finish_times) == {0, 1, 2}
        assert small_run.level_finish_times[2] == pytest.approx(
            max(small_run.level_finish_times.values())
        )

    def test_samples_per_level_cover_targets(self, small_run):
        # controllers generate at least as many samples as were collected
        for level, target in zip(range(3), (400, 150, 60)):
            assert small_run.samples_per_level.get(level, 0) >= target * 0.5

    def test_reproducibility(self, factory, cost_model):
        kwargs = dict(
            num_samples=[100, 40, 15], num_ranks=10, cost_model=cost_model, seed=7
        )
        a = ParallelMLMCMCSampler(factory, **kwargs).run()
        b = ParallelMLMCMCSampler(factory, **kwargs).run()
        np.testing.assert_allclose(a.mean, b.mean)
        assert a.virtual_time == pytest.approx(b.virtual_time)
        assert a.messages_sent == b.messages_sent

    def test_golden_schedule(self, factory):
        """A fixed simulated run keeps its exact schedule and estimate.

        Unlike :meth:`test_reproducibility`, which compares a run with
        itself, this pins constants, so a change to the phonebook, the load
        balancer or the event loop that reorders even one message fails here.
        """
        result = ParallelMLMCMCSampler(
            factory,
            num_samples=[300, 100, 40],
            num_ranks=14,
            cost_model=CostModel([0.01, 0.05, 0.2]),
            dynamic_load_balancing=True,
            seed=5,
        ).run()
        summary = result.summary()
        assert summary["messages_sent"] == 2709
        assert summary["events_processed"] == 5648
        assert len(result.rebalance_log) == 6
        assert result.virtual_time == float.fromhex("0x1.4c8b43958101fp+2")
        assert hashlib.sha256(result.mean.tobytes()).hexdigest() == (
            "85f1ad707310bfd12e633a56537bb0c65291cc4e375fd9f13ee3c0db58b835cc"
        )

    def test_golden_schedule_heterogeneous_costs(self, factory):
        """The golden run with log-normal per-evaluation durations.

        Pins the log-normal duration draws and the phonebook's smoothing of
        the durations controllers report, which the constant-cost golden run
        never exercises.
        """
        result = ParallelMLMCMCSampler(
            factory,
            num_samples=[300, 100, 40],
            num_ranks=14,
            cost_model=CostModel([0.05, 0.2, 0.8], cv=0.5),
            dynamic_load_balancing=True,
            seed=5,
        ).run()
        summary = result.summary()
        assert summary["messages_sent"] == 3038
        assert summary["events_processed"] == 6529
        assert len(result.rebalance_log) == 6
        assert result.virtual_time == float.fromhex("0x1.a7ae93a3196f7p+4")
        assert hashlib.sha256(result.mean.tobytes()).hexdigest() == (
            "4a2069a6e4634f16004fcebf18af1a2df036b54503502b1373272a62842a1e05"
        )

    def test_one_controller_per_level_estimate_is_pinned(self, factory):
        """An 8-rank run has one controller per level.

        Each level's samples are then served first in, first out from one
        seeded chain, so how far a chain runs ahead of its consumers cannot
        change the estimate.  The hash was recorded before controllers became
        demand-driven, which changed the schedule (the message count) but not
        the estimate.
        """
        result = ParallelMLMCMCSampler(
            factory,
            num_samples=[300, 100, 40],
            num_ranks=8,
            cost_model=CostModel([0.01, 0.05, 0.2]),
            seed=5,
        ).run()
        assert sorted(result.controller_assignments.values()) == [[0], [1], [2]]
        assert hashlib.sha256(result.mean.tobytes()).hexdigest() == (
            "8bd12fa4684abe172eeeeadbb5f2de1c961902b79600760aec552bdd1cb74df3"
        )

    def test_workers_per_group(self, factory):
        sampler = ParallelMLMCMCSampler(
            factory,
            num_samples=[60, 30, 10],
            num_ranks=24,
            cost_model=CostModel([0.01, 0.04, 0.16]),
            workers_per_group=[0, 1, 2],
            seed=1,
        )
        result = sampler.run()
        assert result.layout.worker_ranks  # workers exist
        # workers appear in the trace (lock-step evaluation)
        worker_busy = sum(result.trace.busy_time(r) for r in result.layout.worker_ranks)
        assert worker_busy > 0

    def test_static_vs_dynamic_load_balancing(self, factory):
        cost = CostModel([0.01, 0.05, 0.2])
        common = dict(num_samples=[300, 100, 40], num_ranks=14, cost_model=cost, seed=5)
        dynamic = ParallelMLMCMCSampler(factory, dynamic_load_balancing=True, **common).run()
        static = ParallelMLMCMCSampler(factory, dynamic_load_balancing=False, **common).run()
        assert len(static.rebalance_log) == 0
        # dynamic balancing should not be (much) slower than static
        assert dynamic.virtual_time <= static.virtual_time * 1.5

    def test_validation_errors(self, factory, cost_model):
        with pytest.raises(ValueError):
            ParallelMLMCMCSampler(factory, num_samples=[10, 10], num_ranks=10, cost_model=cost_model)
        with pytest.raises(ValueError):
            ParallelMLMCMCSampler(
                factory, num_samples=[10, 10, 10], num_ranks=4, cost_model=cost_model
            )


class TestParallelSequentialConsistency:
    def test_parallel_matches_sequential_statistics(self, factory):
        """Parallel and sequential MLMCMC must estimate the same quantity.

        Both are Monte Carlo estimates, so agreement is statistical: we compare
        them against each other and the exact value within a few standard
        errors of the (known) per-level variances.
        """
        from repro.core import MLMCMCSampler

        num_samples = [3000, 800, 300]
        sequential = MLMCMCSampler(factory, num_samples=num_samples, seed=21).run()
        parallel = ParallelMLMCMCSampler(
            factory,
            num_samples=num_samples,
            num_ranks=16,
            cost_model=CostModel([0.01, 0.04, 0.16]),
            seed=22,
        ).run()
        exact = factory.exact_mean()
        assert np.all(np.abs(sequential.mean - exact) < 0.35)
        assert np.all(np.abs(parallel.mean - exact) < 0.35)
        assert np.all(np.abs(parallel.mean - sequential.mean) < 0.5)


class TestScalingStudies:
    def test_strong_scaling_improves_then_saturates(self, factory):
        cost = CostModel([0.01, 0.05, 0.2], cv=0.2)
        study = strong_scaling_study(
            factory,
            num_samples=[800, 250, 80],
            rank_counts=[10, 20, 40],
            cost_model=cost,
            seed=3,
        )
        times = study.times()
        assert len(times) == 3
        # more ranks should not be slower than the smallest run (allowing noise)
        assert times[-1] < times[0]
        assert study.speedups()[0] == pytest.approx(1.0)
        assert study.speedups()[-1] > 1.5
        table = study.table()
        assert len(table) == 3 and "efficiency" in table[0]

    def test_weak_scaling_efficiency_definition(self, factory):
        cost = CostModel([0.01, 0.05, 0.2])
        study = weak_scaling_study(
            factory,
            base_num_samples=[400, 120, 40],
            base_num_ranks=16,
            rank_counts=[8, 16, 32],
            cost_model=cost,
            seed=4,
        )
        # sample targets scale with rank count
        assert study.points[0].num_samples[0] == 200
        assert study.points[2].num_samples[0] == 800
        # efficiency is relative to the fastest run and lies in (0, 1]
        assert max(study.efficiencies()) == pytest.approx(1.0)
        assert all(0.0 < e <= 1.0 for e in study.efficiencies())
