"""Tests for MH and multilevel kernels, chains, sample collections."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.core.chain import SingleChainMCMC, SubsampledChainSource
from repro.core.kernels import MHKernel, MultilevelKernel
from repro.core.problem import DensitySamplingProblem, GaussianTargetProblem
from repro.core.proposals import (
    BufferedChainSource,
    GaussianRandomWalkProposal,
    IndependenceProposal,
    SubsamplingProposal,
)
from repro.bayes.distributions import GaussianDensity
from repro.core.sample_collection import CorrectionCollection, SampleCollection
from repro.core.state import SamplingState


class TestMHKernel:
    def test_samples_standard_normal(self):
        problem = GaussianTargetProblem(np.zeros(1), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(2.0, dim=1))
        rng = np.random.default_rng(0)
        state = kernel.initialize(np.zeros(1))
        samples = []
        for _ in range(20_000):
            result = kernel.step(state, rng)
            state = result.state
            samples.append(state.parameters[0])
        samples = np.array(samples[2000:])
        assert samples.mean() == pytest.approx(0.0, abs=0.08)
        assert samples.std() == pytest.approx(1.0, rel=0.08)
        # Kolmogorov-Smirnov sanity check on thinned samples
        ks = stats.kstest(samples[::20], "norm")
        assert ks.pvalue > 0.001
        assert 0.2 < kernel.acceptance_rate < 0.9

    def test_rejects_minus_infinity_proposals(self):
        def log_density(theta):
            return 0.0 if np.all(theta >= 0) else -np.inf

        problem = DensitySamplingProblem(1, log_density)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(4.0, dim=1))
        rng = np.random.default_rng(1)
        state = kernel.initialize(np.array([0.5]))
        for _ in range(200):
            state = kernel.step(state, rng).state
            assert state.parameters[0] >= 0

    def test_initialize_evaluates_density(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=2))
        state = kernel.initialize(np.ones(2))
        assert state.log_density is not None

    def test_independence_sampler_on_same_density_always_accepts(self):
        target = GaussianDensity(np.zeros(2), 1.0)
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        kernel = MHKernel(problem, IndependenceProposal(target))
        rng = np.random.default_rng(3)
        state = kernel.initialize(np.zeros(2))
        for _ in range(200):
            state = kernel.step(state, rng).state
        assert kernel.acceptance_rate == pytest.approx(1.0)


class TestMultilevelKernel:
    def _make_kernel(self, coarse_mean, fine_mean, buffered):
        coarse = GaussianTargetProblem(np.array(coarse_mean), 1.0)
        fine = GaussianTargetProblem(np.array(fine_mean), 1.0)
        return MultilevelKernel(
            fine_problem=fine,
            coarse_problem=coarse,
            coarse_proposal=SubsamplingProposal(buffered),
        )

    def test_identical_levels_accept_everything(self):
        # When nu_l == nu_{l-1}, the acceptance probability is exactly 1.
        rng = np.random.default_rng(0)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.0], buffered)
        state = kernel.initialize(np.zeros(1))
        for _ in range(100):
            coarse = SamplingState(parameters=rng.standard_normal(1))
            kernel.coarse_problem.log_density(coarse)
            buffered.push(coarse)
            result = kernel.step(state, rng)
            state = result.state
            assert result.accepted
            assert result.log_alpha == pytest.approx(0.0, abs=1e-12)

    def test_targets_fine_posterior_with_exact_coarse_proposals(self):
        # Coarse proposals drawn exactly from nu_{l-1}: the fine chain is an
        # independence sampler and must reproduce the fine posterior moments.
        rng = np.random.default_rng(7)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.6], buffered)
        coarse_density = GaussianDensity(np.zeros(1), 1.0)
        state = kernel.initialize(np.zeros(1))
        samples = []
        for _ in range(20_000):
            coarse = SamplingState(parameters=coarse_density.sample(rng))
            kernel.coarse_problem.log_density(coarse)
            buffered.push(coarse)
            state = kernel.step(state, rng).state
            samples.append(state.parameters[0])
        samples = np.array(samples[2000:])
        assert samples.mean() == pytest.approx(0.6, abs=0.06)
        assert samples.var() == pytest.approx(1.0, rel=0.1)

    def test_metadata_carries_coarse_pairing(self):
        rng = np.random.default_rng(2)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0, 0.0], [0.5, 0.5], buffered)
        state = kernel.initialize(np.zeros(2))
        coarse = SamplingState(parameters=np.array([1.0, 2.0]))
        kernel.coarse_problem.log_density(coarse)
        buffered.push(coarse)
        result = kernel.step(state, rng)
        np.testing.assert_allclose(result.metadata["coarse_qoi"], [1.0, 2.0])
        assert result.metadata["coarse_state"] is coarse
        assert np.isfinite(result.metadata["coarse_log_density"])

    def test_step_caches_coarse_qoi_on_the_coupled_state(self):
        rng = np.random.default_rng(4)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.3], buffered)
        state = kernel.initialize(np.zeros(1))
        coarse = SamplingState(parameters=np.array([0.7]))
        kernel.coarse_problem.log_density(coarse)
        buffered.push(coarse)
        result = kernel.step(state, rng)
        stats = kernel.coarse_problem.evaluation_stats
        assert coarse.qoi is not None
        assert stats.qoi_evaluations == 1
        # collectors reading the correction's coarse QOI hit the state cache
        np.testing.assert_array_equal(
            kernel.coarse_problem.qoi(coarse), result.metadata["coarse_qoi"]
        )
        assert stats.qoi_evaluations == 1

    def test_proposal_is_a_fresh_float64_copy_of_the_coarse_sample(self):
        rng = np.random.default_rng(5)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0, 0.0], [0.0, 0.0], buffered)
        state = kernel.initialize(np.zeros(2))
        coarse = SamplingState(parameters=np.array([0.25, -0.5]), metadata={"tag": 1})
        kernel.coarse_problem.log_density(coarse)
        buffered.push(coarse)
        result = kernel.step(state, rng)
        assert result.accepted  # identical levels accept every proposal
        proposed = result.state
        assert proposed.parameters is not coarse.parameters
        assert proposed.parameters.dtype == np.float64
        np.testing.assert_array_equal(proposed.parameters, coarse.parameters)
        assert proposed.metadata == {}
        assert proposed.coarse_log_density == coarse.log_density


class TestSampleCollection:
    def test_weighted_statistics(self):
        collection = SampleCollection()
        collection.add(SamplingState(parameters=np.array([1.0, 0.0])))
        collection.add(SamplingState(parameters=np.array([3.0, 2.0]), weight=3), weight=3)
        assert collection.num_samples == 4
        assert collection.num_unique == 2
        np.testing.assert_allclose(collection.mean(), [2.5, 1.5])

    def test_qoi_matrix_requires_evaluation(self):
        collection = SampleCollection()
        collection.add(SamplingState(parameters=np.zeros(1)))
        with pytest.raises(ValueError):
            collection.qois()

    def test_merge_and_subset(self):
        a = SampleCollection()
        b = SampleCollection()
        a.add(SamplingState(parameters=np.array([1.0])))
        b.add(SamplingState(parameters=np.array([2.0])))
        a.merge(b)
        assert a.num_samples == 2
        assert a.subset(1).num_samples == 1

    def _weighted(self, weights) -> SampleCollection:
        collection = SampleCollection()
        for i, weight in enumerate(weights):
            state = SamplingState(parameters=np.array([float(i)]), weight=weight)
            collection.add(state, weight=weight)
        return collection

    def test_num_samples_counts_duplicate_adds(self):
        collection = SampleCollection()
        state = SamplingState(parameters=np.array([1.0]))
        collection.add(state)
        collection.add(state, weight=2)
        assert collection.num_unique == 1
        assert collection.num_samples == 3
        collection.validate()

    def test_num_samples_through_merge_subset_and_state_dict(self):
        a, b = self._weighted([2, 1]), self._weighted([4, 3, 1])
        a.merge(b)
        assert a.num_samples == 11
        assert a.subset(1, 3).num_samples == 5
        assert a.subset(2).num_samples == 8
        restored = SampleCollection.from_state_dict(a.state_dict())
        assert restored.num_samples == 11
        restored.add(SamplingState(parameters=np.zeros(1), weight=2), weight=2)
        assert restored.num_samples == 13
        for collection in (a, restored, a.subset(1, 3)):
            collection.validate()

    def test_validate_catches_weight_changed_behind_its_back(self):
        collection = self._weighted([2, 3])
        collection.validate()
        collection[1].weight = 4
        with pytest.raises(ValueError, match="does not match num_samples"):
            collection.validate()

    def test_num_samples_of_empty_collections(self):
        empty = SampleCollection()
        assert empty.num_samples == 0
        empty.validate()
        filled = self._weighted([3])
        filled.merge(SampleCollection())
        assert filled.num_samples == 3
        assert filled.subset(1).num_samples == 0
        filled.validate()

    def test_validate_catches_half_applied_merge(self):
        a, b = self._weighted([1, 2]), self._weighted([5])
        # states appended without the bookkeeping a real merge does
        a._states.extend(b._states)
        with pytest.raises(ValueError, match="does not match num_samples"):
            a.validate()

    def test_ess_of_repeated_samples_is_low(self, rng):
        collection = SampleCollection()
        value = SamplingState(parameters=np.array([1.0]))
        for _ in range(50):
            collection.add(value.copy())
        iid = SampleCollection()
        for _ in range(50):
            iid.add(SamplingState(parameters=rng.standard_normal(1)))
        assert collection.ess() <= iid.ess() + 1e-9


class TestCorrectionCollection:
    def test_level0_plain_mean(self):
        collection = CorrectionCollection(level=0)
        collection.add(np.array([1.0]))
        collection.add(np.array([3.0]))
        np.testing.assert_allclose(collection.mean(), [2.0])
        assert not collection.has_coarse

    def test_correction_differences(self):
        collection = CorrectionCollection(level=1)
        collection.add(np.array([2.0]), np.array([1.5]))
        collection.add(np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(collection.differences(), [[0.5], [1.0]])
        np.testing.assert_allclose(collection.mean(), [0.75])
        assert collection.variance()[0] == pytest.approx(np.var([0.5, 1.0], ddof=1))
        fine, coarse = collection.pair(0)
        np.testing.assert_allclose(fine, [2.0])
        np.testing.assert_allclose(coarse, [1.5])

    def test_missing_coarse_rejected_above_level0(self):
        collection = CorrectionCollection(level=1)
        with pytest.raises(ValueError):
            collection.add(np.array([1.0]))

    def test_merge_level_mismatch(self):
        with pytest.raises(ValueError):
            CorrectionCollection(0).merge(CorrectionCollection(1))


class TestSingleChain:
    def test_burnin_excluded_from_samples(self):
        problem = GaussianTargetProblem(np.zeros(1), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=1))
        chain = SingleChainMCMC(kernel, np.zeros(1), np.random.default_rng(0), burnin=50)
        chain.run(100)
        assert chain.samples.num_samples == 100
        assert chain.steps_taken == 150
        assert not chain.in_burnin

    def test_run_steps(self):
        problem = GaussianTargetProblem(np.zeros(1), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=1))
        chain = SingleChainMCMC(kernel, np.zeros(1), np.random.default_rng(0), burnin=10)
        chain.run_steps(30)
        assert chain.steps_taken == 30
        assert chain.samples.num_samples == 20

    def test_level0_corrections_are_plain_qois(self):
        problem = GaussianTargetProblem(np.ones(2), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=2))
        chain = SingleChainMCMC(kernel, np.zeros(2), np.random.default_rng(0), burnin=5, level=0)
        chain.run(50)
        assert len(chain.corrections) == 50
        assert not chain.corrections.has_coarse

    def test_subsampled_chain_source_advances_underlying_chain(self):
        problem = GaussianTargetProblem(np.zeros(1), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=1))
        chain = SingleChainMCMC(kernel, np.zeros(1), np.random.default_rng(0), burnin=0)
        source = SubsampledChainSource(chain, subsampling_rate=7)
        sample = source.next_sample()
        assert chain.steps_taken == 7
        assert sample.qoi is not None
        source.next_sample()
        assert chain.steps_taken == 14

    def test_subsampled_source_warms_qoi_of_handed_out_states_only(self):
        # an embedded coarse-source chain records no QOIs itself; the source
        # still hands out QOI-carrying states, and skips subsampled-away ones
        problem = GaussianTargetProblem(np.zeros(1), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=1))
        chain = SingleChainMCMC(
            kernel, np.zeros(1), np.random.default_rng(3), record=False
        )
        source = SubsampledChainSource(chain, subsampling_rate=5)
        for _ in range(6):
            sample = source.next_sample()
            np.testing.assert_array_equal(sample.qoi, sample.parameters)
        assert chain.steps_taken == 30
        assert len(chain.corrections) == 0
        assert 1 <= problem.evaluation_stats.qoi_evaluations <= 6

    def test_correction_chain_never_re_evaluates_coarse_model(self):
        coarse_problem = GaussianTargetProblem(np.zeros(1), 1.0)
        fine_problem = GaussianTargetProblem(np.array([0.4]), 1.0)
        coarse_chain = SingleChainMCMC(
            MHKernel(coarse_problem, GaussianRandomWalkProposal(1.0, dim=1)),
            np.zeros(1),
            np.random.default_rng(8),
            record=False,
        )
        source = SubsampledChainSource(coarse_chain, subsampling_rate=3)
        kernel = MultilevelKernel(
            fine_problem=fine_problem,
            coarse_problem=coarse_problem,
            coarse_proposal=SubsamplingProposal(source),
        )
        chain = SingleChainMCMC(
            kernel, np.zeros(1), np.random.default_rng(9), burnin=5, level=1
        )
        chain.run(40)
        assert len(chain.corrections) == 40
        assert chain.corrections.has_coarse
        # at most one coarse QOI per coarse sample the fine chain drew
        handed_out = coarse_chain.steps_taken // 3
        assert handed_out == chain.steps_taken
        assert coarse_problem.evaluation_stats.qoi_evaluations <= handed_out

    def test_acceptance_rate_reported(self):
        problem = GaussianTargetProblem(np.zeros(1), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(0.5, dim=1))
        chain = SingleChainMCMC(kernel, np.zeros(1), np.random.default_rng(0), burnin=0)
        chain.run(200)
        assert 0.0 < chain.acceptance_rate <= 1.0
