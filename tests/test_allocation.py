"""Tests for the live variance/cost-driven allocation layer.

Covers the :mod:`repro.core.allocation` policy machinery in isolation, its
integration with the sequential sampler (fixed policy bitwise against the
legacy path, adaptive continuation trajectories), the variance
snapshots the policies poll, and the experiments plumbing (spec ``budget``
hash stability, manifest schema v5, runner/CLI overrides).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import (
    AllocationRound,
    ContinuationAllocation,
    CostModel,
    FixedAllocation,
    LevelSnapshot,
    MLMCMCSampler,
    SamplingBudget,
    cost_capped_allocation,
    policy_from_budget,
)
from repro.core.sample_collection import CorrectionCollection, SampleCollection
from repro.models.gaussian import GaussianHierarchyFactory


def _snapshots(counts, variances, costs):
    return [
        LevelSnapshot(
            level=level,
            num_samples=counts[level],
            variance=variances[level],
            cost_per_sample=costs[level],
            total_cost=counts[level] * costs[level],
        )
        for level in range(len(counts))
    ]


class TestSamplingBudget:
    def test_exactly_one_objective(self):
        with pytest.raises(ValueError):
            SamplingBudget()
        with pytest.raises(ValueError):
            SamplingBudget(target_mse=1e-3, cost_cap=10.0)
        assert SamplingBudget(target_mse=1e-3).cost_cap is None
        assert SamplingBudget(cost_cap=10.0).target_mse is None

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplingBudget(target_mse=0.0)
        with pytest.raises(ValueError):
            SamplingBudget(cost_cap=-1.0)
        with pytest.raises(ValueError):
            SamplingBudget(target_mse=1e-3, max_rounds=0)
        with pytest.raises(ValueError):
            SamplingBudget(target_mse=1e-3, min_rounds=0)
        with pytest.raises(ValueError):
            SamplingBudget(target_mse=1e-3, growth_factor=0.5)

    def test_dict_round_trip(self):
        for budget in (
            SamplingBudget(target_mse=2e-4, max_rounds=5, growth_factor=2.0),
            SamplingBudget(cost_cap=42.0, min_rounds=3),
        ):
            assert SamplingBudget.from_dict(budget.as_dict()) == budget

    def test_from_dict_ignores_extra_keys(self):
        budget = SamplingBudget.from_dict(
            {"policy": "adaptive", "target_mse": 1e-3, "pilot": [8, 4]}
        )
        assert budget.target_mse == 1e-3


class TestFixedAllocation:
    def test_single_round(self):
        policy = FixedAllocation([100, 20, 5])
        assert policy.name == "fixed"
        assert policy.initial_targets(3) == [100, 20, 5]
        snapshots = _snapshots([100, 20, 5], [1.0, 0.1, 0.01], [1.0, 4.0, 16.0])
        assert policy.update(snapshots) is None

    def test_rejects_negative_counts_and_level_mismatch(self):
        with pytest.raises(ValueError):
            FixedAllocation([10, -1])
        with pytest.raises(ValueError):
            FixedAllocation([10, 5]).initial_targets(3)


class TestAllocationRound:
    def test_as_dict_is_json_safe(self):
        row = AllocationRound(
            round_index=np.int64(1),
            targets=[np.int64(40), 12],
            collected=[np.int32(40), 12],
            variances=[np.float32(0.5), 0.25],
            costs_per_sample=[1.0, np.float64(4.0)],
            spent_cost=np.float64(88.0),
        )
        payload = row.as_dict()
        assert json.loads(json.dumps(payload)) == {
            "round": 1,
            "targets": [40, 12],
            "collected": [40, 12],
            "variances": [0.5, 0.25],
            "costs_per_sample": [1.0, 4.0],
            "spent_cost": 88.0,
        }


class TestContinuationAllocation:
    def test_default_pilot_is_coarse_heavy_geometric(self):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=1e-3), pilot_base=16
        )
        assert policy.initial_targets(3) == [64, 32, 16]

    def test_explicit_pilot_length_checked(self):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=1e-3), pilot=[10, 5]
        )
        assert policy.initial_targets(2) == [10, 5]
        with pytest.raises(ValueError):
            policy.initial_targets(3)

    def test_growth_factor_caps_each_round(self):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=1e-8, growth_factor=3.0), pilot=[10, 10]
        )
        targets = policy.update(
            _snapshots([10, 10], [1.0, 1.0], [1.0, 1.0])
        )
        # the tiny tolerance wants far more than 30; growth caps it at 3x
        assert targets == [30, 30]

    def test_targets_are_monotone(self):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=10.0), pilot=[50, 50]
        )
        # a very loose tolerance needs fewer samples than already collected;
        # the update never shrinks below the collected counts
        targets = policy.update(
            _snapshots([50, 50], [1e-6, 1e-6], [1.0, 1.0])
        )
        if targets is not None:
            assert all(t >= 50 for t in targets)

    def test_confirmation_round_then_stop(self):
        # met on the first round: min_rounds=2 forces one ~25% confirmation
        # round before the target may be declared reached
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=10.0, min_rounds=2), pilot=[8, 8]
        )
        snapshots = _snapshots([8, 8], [1e-6, 1e-6], [1.0, 1.0])
        confirmation = policy.update(snapshots)
        assert confirmation == [10, 10]
        again = _snapshots([10, 10], [1e-6, 1e-6], [1.0, 1.0])
        assert policy.update(again) is None

    def test_max_rounds_stops(self):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=1e-12, max_rounds=2), pilot=[4, 4]
        )
        assert policy.update(_snapshots([4, 4], [1.0, 1.0], [1.0, 1.0])) is not None
        assert policy.update(_snapshots([12, 12], [1.0, 1.0], [1.0, 1.0])) is None

    def test_cost_cap_stops_on_overrun(self):
        policy = ContinuationAllocation(
            SamplingBudget(cost_cap=5.0), pilot=[4, 4]
        )
        # spent 4*1 + 4*1 = 8 >= 5: stop immediately
        assert policy.update(_snapshots([4, 4], [1.0, 1.0], [1.0, 1.0])) is None

    def test_cost_cap_increments_respect_remaining_budget(self):
        cap = 100.0
        policy = ContinuationAllocation(
            SamplingBudget(cost_cap=cap, growth_factor=100.0), pilot=[10, 10]
        )
        counts, costs = [10, 10], [1.0, 4.0]
        spent = sum(n * c for n, c in zip(counts, costs))
        targets = policy.update(_snapshots(counts, [1.0, 1.0], costs))
        assert targets is not None
        increment = sum(
            (t - n) * c for t, n, c in zip(targets, counts, costs)
        )
        assert increment <= cap - spent + 1e-9

    def test_pilot_entries_are_floored_at_two(self):
        # a level needs two samples before its variance can be measured
        explicit = ContinuationAllocation(
            SamplingBudget(target_mse=1e-3), pilot=[0, 1, 5]
        )
        assert explicit.initial_targets(3) == [2, 2, 5]
        ladder = ContinuationAllocation(
            SamplingBudget(target_mse=1e-3), pilot_base=1
        )
        assert ladder.initial_targets(2) == [4, 2]

    def test_tighter_target_mse_allocates_more_samples(self):
        def targets(target_mse):
            policy = ContinuationAllocation(
                SamplingBudget(target_mse=target_mse, growth_factor=1e6),
                pilot=[20, 20, 20],
            )
            return policy.update(
                _snapshots([20, 20, 20], [1.0, 0.1, 0.01], [1.0, 4.0, 16.0])
            )

        loose, tight = targets(1e-2), targets(1e-4)
        assert loose is not None and tight is not None
        assert sum(tight) > sum(loose)
        assert all(t >= n for t, n in zip(tight, loose))

    def test_cheap_high_variance_level_gets_most_samples(self):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=1e-4, growth_factor=1e6), pilot=[4, 4, 4]
        )
        targets = policy.update(
            _snapshots([4, 4, 4], [1.0, 0.1, 0.01], [1.0, 4.0, 16.0])
        )
        assert targets is not None
        assert targets[0] >= targets[1] >= targets[2]
        assert targets[0] > 4

    def test_zero_variance_and_zero_cost_levels_are_floored(self):
        # a constant-QOI pilot and a fully cached level must neither divide
        # by zero nor starve: the update still yields finite integer targets
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=1e-3), pilot=[8, 8]
        )
        targets = policy.update(_snapshots([8, 8], [0.0, 1.0], [1.0, 0.0]))
        assert targets is not None
        assert all(isinstance(t, int) and t >= 8 for t in targets)

    def test_cost_capped_allocation_fits_cap(self):
        variances = np.array([1.0, 0.1, 0.01])
        costs = np.array([1.0, 4.0, 16.0])
        targets = cost_capped_allocation(variances, costs, cost_cap=100.0)
        assert float(np.dot(targets, costs)) <= 100.0
        # more samples where sqrt(V/C) is larger
        assert targets[0] >= targets[1] >= targets[2]


class TestPolicyFromBudget:
    def test_empty_and_fixed_give_none(self):
        assert policy_from_budget({}) is None
        assert policy_from_budget({"policy": "fixed"}) is None

    def test_pilot_derived_from_plan(self):
        policy = policy_from_budget(
            {"policy": "adaptive", "target_mse": 1e-3},
            num_samples=[600, 150, 50],
        )
        assert policy.initial_targets(3) == [75, 18, 6]

    def test_explicit_pilot_wins(self):
        policy = policy_from_budget(
            {"policy": "adaptive", "cost_cap": 10.0, "pilot": [8, 4, 2]},
            num_samples=[600, 150, 50],
        )
        assert policy.initial_targets(3) == [8, 4, 2]

    def test_derived_pilot_never_below_four(self):
        policy = policy_from_budget(
            {"policy": "adaptive", "target_mse": 1e-3},
            num_samples=[40, 16, 8],
        )
        assert policy.initial_targets(3) == [5, 4, 4]


@pytest.fixture(scope="module")
def gaussian_factory():
    return GaussianHierarchyFactory(dim=2, num_levels=3, decay=0.5, subsampling=2)


class TestSequentialAllocation:
    def test_fixed_policy_is_bitwise_identical_to_legacy(self, gaussian_factory):
        plan = [80, 30, 12]
        legacy = MLMCMCSampler(gaussian_factory, num_samples=plan, seed=19).run()
        explicit = MLMCMCSampler(
            gaussian_factory,
            num_samples=plan,
            seed=19,
            allocation=FixedAllocation(plan),
        ).run()
        np.testing.assert_array_equal(legacy.mean, explicit.mean)
        for a, b in zip(legacy.corrections, explicit.corrections):
            np.testing.assert_array_equal(a.differences(), b.differences())
        # both record exactly one allocation round with the plan realized
        for result in (legacy, explicit):
            assert len(result.allocation_rounds) == 1
            assert result.allocation_rounds[0].collected == plan

    def test_adaptive_run_records_trajectory(self, gaussian_factory):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=5e-3, max_rounds=4), pilot=[16, 8, 4]
        )
        result = MLMCMCSampler(
            gaussian_factory, seed=19, allocation=policy
        ).run()
        rounds = result.allocation_rounds
        assert len(rounds) >= 2
        assert rounds[0].collected == [16, 8, 4]
        # targets grow monotonically across rounds, samples match targets
        for earlier, later in zip(rounds, rounds[1:]):
            assert all(
                b >= a for a, b in zip(earlier.targets, later.targets)
            )
        assert [len(c) for c in result.corrections] == rounds[-1].collected

    def test_adaptive_estimate_is_close_to_exact_mean(self, gaussian_factory):
        policy = ContinuationAllocation(
            SamplingBudget(target_mse=5e-3, max_rounds=4), pilot=[16, 8, 4]
        )
        result = MLMCMCSampler(
            gaussian_factory, seed=23, allocation=policy
        ).run()
        error = np.abs(result.mean - gaussian_factory.exact_mean())
        # loose sanity bound: a few standard errors of the requested tolerance
        assert np.all(error < 0.5)
        assert result.estimate.num_levels == 3

    def test_cost_model_makes_trajectory_deterministic(self, gaussian_factory):
        prices = [1.0, 4.0, 16.0]

        def run_once():
            policy = ContinuationAllocation(
                SamplingBudget(cost_cap=600.0, max_rounds=5), pilot=[16, 8, 4]
            )
            return MLMCMCSampler(
                gaussian_factory,
                seed=7,
                allocation=policy,
                cost_model=CostModel(prices),
            ).run()

        first, second = run_once(), run_once()
        assert [r.targets for r in first.allocation_rounds] == [
            r.targets for r in second.allocation_rounds
        ]
        # the ledger is priced by the model, not by wall time
        final = first.allocation_rounds[-1]
        expected = sum(
            n * c for n, c in zip(final.collected, prices)
        )
        assert final.spent_cost == pytest.approx(expected)
        assert expected <= 600.0


class TestStreamingVariance:
    """Pin the variance the allocation polls (and the sample counter) against batch results."""

    def test_sample_collection_batch_statistics_match_numpy(self):
        rng = np.random.default_rng(5)
        collection = SampleCollection()
        for _ in range(200):
            collection.add(rng.normal(size=3))
        assert collection.num_samples == 200
        np.testing.assert_array_equal(
            collection.variance(), np.var(collection.parameters(), axis=0, ddof=1)
        )
        np.testing.assert_allclose(
            collection.mean(), collection.parameters().mean(axis=0), rtol=1e-12
        )

    def test_weighted_duplicates_match_expanded_chain(self):
        # a run of repeated points stored as one weighted row has the
        # statistics of the expanded chain, one row per step
        rng = np.random.default_rng(6)
        weighted, per_step = SampleCollection(), SampleCollection()
        theta = rng.normal(size=2)
        run = 0
        for _ in range(50):
            if run and rng.random() < 0.4:
                weighted.add(theta, weight=run)
                theta, run = rng.normal(size=2), 0
            per_step.add(theta)
            run += 1
        weighted.add(theta, weight=run)
        assert weighted.num_samples == per_step.num_samples == 50
        assert weighted.num_unique < per_step.num_unique == 50
        assert weighted.parameters().tobytes() == per_step.parameters().tobytes()
        np.testing.assert_array_equal(weighted.variance(), per_step.variance())
        np.testing.assert_array_equal(weighted.mean(), per_step.mean())

    def test_empty_and_single_sample_edge_cases(self):
        empty = SampleCollection()
        assert empty.num_samples == 0
        assert empty.variance().size == 0
        single = SampleCollection()
        single.add(np.array([1.0, 2.0]))
        assert single.num_samples == 1
        np.testing.assert_array_equal(single.variance(), np.zeros(2))

    def test_merge_and_subset_keep_counter_consistent(self):
        rng = np.random.default_rng(7)
        left, right = SampleCollection(), SampleCollection()
        for _ in range(30):
            left.add(rng.normal(size=2))
            right.add(rng.normal(2.0, 3.0, size=2))
        left.merge(right)
        assert left.num_samples == 60
        left.validate()
        np.testing.assert_array_equal(
            left.variance(), np.var(left.parameters(), axis=0, ddof=1)
        )
        tail = left.subset(10)
        assert tail.num_samples == 50
        tail.validate()
        np.testing.assert_array_equal(tail.parameters(), left.parameters()[10:])

    def test_state_dict_round_trip_rebuilds_counter(self):
        rng = np.random.default_rng(8)
        collection = SampleCollection()
        for _ in range(25):
            collection.add(rng.normal(size=2), weight=2)
        restored = SampleCollection.from_state_dict(collection.state_dict())
        assert restored.num_samples == collection.num_samples == 50
        restored.validate()
        np.testing.assert_array_equal(restored.variance(), collection.variance())

    def test_correction_collection_with_and_without_coarse(self):
        rng = np.random.default_rng(9)
        with_coarse = CorrectionCollection(level=1)
        level_zero = CorrectionCollection(level=0)
        for _ in range(100):
            with_coarse.add(rng.normal(size=2), rng.normal(size=2))
            level_zero.add(rng.normal(size=2))
        for collection in (with_coarse, level_zero):
            np.testing.assert_array_equal(
                collection.variance(),
                np.var(collection.differences(), axis=0, ddof=1),
            )

    def test_correction_collection_empty(self):
        assert CorrectionCollection(level=0).variance().size == 0


class TestExperimentsBudgetPlumbing:
    def test_empty_budget_is_hash_stable(self):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(name="t", driver="sequential")
        assert "budget" not in spec.as_dict()
        with_budget = ExperimentSpec(
            name="t", driver="sequential", budget={"policy": "adaptive",
                                                   "target_mse": 1e-3}
        )
        assert "budget" in with_budget.as_dict()
        assert spec.hash() != with_budget.hash()

    def test_resolved_budget_objectives(self):
        from repro.experiments import ExperimentSpec

        spec = ExperimentSpec(name="t", driver="sequential")
        mse = spec.resolved(target_mse=1e-3)
        assert mse.budget == {"policy": "adaptive", "target_mse": 1e-3}
        cap = spec.resolved(cost_budget=25.0)
        assert cap.budget == {"policy": "adaptive", "cost_cap": 25.0}
        with pytest.raises(ValueError):
            spec.resolved(target_mse=1e-3, cost_budget=25.0)

    def test_resolved_objective_replaces_previous(self):
        from repro.experiments import get_scenario

        spec = get_scenario("poisson-adaptive").resolved(cost_budget=30.0)
        assert spec.budget["cost_cap"] == 30.0
        assert "target_mse" not in spec.budget
        # non-objective knobs (pilot, max_rounds) survive the override
        assert spec.budget["pilot"] == [75, 18, 6]

    def test_runner_rejects_budget_on_non_budgeted_driver(self):
        from repro.experiments import BackendNotApplicableError, run_scenario

        with pytest.raises(BackendNotApplicableError):
            run_scenario("example-quickstart", quick=True, target_mse=1e-3)
        with pytest.raises(BackendNotApplicableError):
            run_scenario("poisson-adaptive", quick=True,
                         target_mse=1e-3, cost_budget=10.0)

    def test_cli_parses_budget_flags(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["run", "poisson-adaptive", "--target-mse", "2e-4"]
        )
        assert args.target_mse == 2e-4 and args.budget is None
        args = build_parser().parse_args(
            ["run", "poisson-adaptive", "--budget", "30.0"]
        )
        assert args.budget == 30.0 and args.target_mse is None

    def test_manifest_allocation_validation(self):
        from repro.experiments import (
            ExperimentSpec,
            ManifestError,
            build_manifest,
            validate_manifest,
        )

        spec = ExperimentSpec(name="t", driver="sequential")
        manifest = build_manifest(spec, results={"value": 1.0}, wall_time_s=0.1)
        assert manifest["schema_version"] == 5
        assert manifest["allocation"] == {"policy": "fixed"}
        validate_manifest(manifest)

        for bad in (
            {},                                  # no policy
            {"policy": 3},                       # wrong type
            {"policy": "adaptive", "rounds": "x"},      # rounds not a list
            {"policy": "adaptive", "rounds": [[1, 2]]}, # entries not objects
            {"policy": "adaptive", "rounds": [{"round": 0}]},  # missing keys
        ):
            broken = dict(manifest, allocation=bad)
            with pytest.raises(ManifestError):
                validate_manifest(broken)

    def test_adaptive_scenario_quick_records_trajectory(self, tmp_path):
        from repro.experiments import run_scenario, validate_manifest

        run = run_scenario("poisson-adaptive", quick=True, out_dir=tmp_path)
        validate_manifest(run.manifest)
        allocation = run.manifest["allocation"]
        assert allocation["policy"] == "adaptive"
        assert len(allocation["rounds"]) >= 2
        assert run.payload["num_allocation_rounds"] == len(allocation["rounds"])
        # the realized counts grow monotonically along the trajectory
        collected = [r["collected"] for r in allocation["rounds"]]
        for earlier, later in zip(collected, collected[1:]):
            assert all(b >= a for a, b in zip(earlier, later))
