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
        theta = np.zeros(1)
        log_density, _ = kernel.initialize(theta)
        samples = []
        for _ in range(20_000):
            theta, log_density, _, _, _ = kernel.step(theta, log_density, None, rng)
            samples.append(theta[0])
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
        theta = np.array([0.5])
        log_density, _ = kernel.initialize(theta)
        for _ in range(200):
            theta, log_density, _, _, _ = kernel.step(theta, log_density, None, rng)
            assert theta[0] >= 0

    def test_initialize_evaluates_density(self):
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        kernel = MHKernel(problem, GaussianRandomWalkProposal(1.0, dim=2))
        log_density, coarse_log_density = kernel.initialize(np.ones(2))
        assert log_density == problem.target.log_density(np.ones(2))
        assert coarse_log_density is None

    def test_independence_sampler_on_same_density_always_accepts(self):
        target = GaussianDensity(np.zeros(2), 1.0)
        problem = GaussianTargetProblem(np.zeros(2), 1.0)
        kernel = MHKernel(problem, IndependenceProposal(target))
        rng = np.random.default_rng(3)
        theta = np.zeros(2)
        log_density, _ = kernel.initialize(theta)
        for _ in range(200):
            theta, log_density, _, _, _ = kernel.step(theta, log_density, None, rng)
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

    @staticmethod
    def _push(kernel, buffered, theta):
        """Queue a coarse sample carrying its coarse log density."""
        buffered.push(
            SamplingState(parameters=theta, log_density=kernel.coarse_problem.log_density(theta))
        )

    def test_identical_levels_accept_everything(self):
        # When nu_l == nu_{l-1}, the acceptance probability is exactly 1.
        rng = np.random.default_rng(0)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.0], buffered)
        theta = np.zeros(1)
        log_density, coarse_log_density = kernel.initialize(theta)
        for _ in range(100):
            self._push(kernel, buffered, rng.standard_normal(1))
            theta, log_density, coarse_log_density, _, accepted = kernel.step(
                theta, log_density, coarse_log_density, rng
            )
            assert accepted
        assert kernel.acceptance_rate == 1.0

    def test_targets_fine_posterior_with_exact_coarse_proposals(self):
        # Coarse proposals drawn exactly from nu_{l-1}: the fine chain is an
        # independence sampler and must reproduce the fine posterior moments.
        rng = np.random.default_rng(7)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.6], buffered)
        coarse_density = GaussianDensity(np.zeros(1), 1.0)
        theta = np.zeros(1)
        log_density, coarse_log_density = kernel.initialize(theta)
        samples = []
        for _ in range(20_000):
            self._push(kernel, buffered, coarse_density.sample(rng))
            theta, log_density, coarse_log_density, _, _ = kernel.step(
                theta, log_density, coarse_log_density, rng
            )
            samples.append(theta[0])
        samples = np.array(samples[2000:])
        assert samples.mean() == pytest.approx(0.6, abs=0.06)
        assert samples.var() == pytest.approx(1.0, rel=0.1)

    def test_step_returns_the_coupled_coarse_qoi(self):
        rng = np.random.default_rng(2)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0, 0.0], [0.5, 0.5], buffered)
        theta = np.zeros(2)
        log_density, coarse_log_density = kernel.initialize(theta)
        self._push(kernel, buffered, np.array([1.0, 2.0]))
        _, _, new_coarse_log_density, coarse_qoi, _ = kernel.step(
            theta, log_density, coarse_log_density, rng
        )
        np.testing.assert_allclose(coarse_qoi, [1.0, 2.0])
        assert np.isfinite(new_coarse_log_density)

    def test_step_evaluates_a_missing_coarse_qoi_once(self):
        rng = np.random.default_rng(4)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.3], buffered)
        theta = np.zeros(1)
        log_density, coarse_log_density = kernel.initialize(theta)
        self._push(kernel, buffered, np.array([0.7]))
        *_, coarse_qoi, _ = kernel.step(theta, log_density, coarse_log_density, rng)
        stats = kernel.coarse_problem.evaluation_stats
        assert stats.qoi_evaluations == 1
        np.testing.assert_array_equal(coarse_qoi, [0.7])
        # a coarse sample that carries its QOI costs no coarse QOI evaluation
        buffered.push(
            SamplingState(parameters=np.array([0.1]), log_density=-1.0, qoi=np.array([0.1]))
        )
        kernel.step(theta, log_density, coarse_log_density, rng)
        assert stats.qoi_evaluations == 1

    def test_proposal_is_the_coarse_sample_vector_itself(self):
        rng = np.random.default_rng(5)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0, 0.0], [0.0, 0.0], buffered)
        theta = np.zeros(2)
        log_density, coarse_log_density = kernel.initialize(theta)
        coarse = np.array([0.25, -0.5])
        self._push(kernel, buffered, coarse)
        proposed, _, proposed_coarse, _, accepted = kernel.step(
            theta, log_density, coarse_log_density, rng
        )
        assert accepted  # identical levels accept every proposal
        # no copy: nobody writes into a chain point's vector
        assert proposed is coarse
        assert proposed_coarse == kernel.coarse_problem.log_density(coarse)

    def test_rejection_hands_back_the_current_point(self):
        rng = np.random.default_rng(6)
        buffered = BufferedChainSource()
        kernel = self._make_kernel([0.0], [0.0], buffered)
        theta = np.zeros(1)
        log_density, _ = kernel.initialize(theta)
        self._push(kernel, buffered, np.array([0.5]))
        # a current coarse density far below the proposal's forces a rejection
        point = kernel.step(theta, log_density, -1e6, rng)
        assert point[0] is theta and point[1:3] == (log_density, -1e6)
        assert point[4] is False


class TestSampleCollection:
    def test_weighted_statistics(self):
        collection = SampleCollection()
        collection.add(np.array([1.0, 0.0]))
        collection.add(np.array([3.0, 2.0]), weight=3)
        assert collection.num_samples == 4
        assert collection.num_unique == 2
        np.testing.assert_allclose(collection.mean(), [2.5, 1.5])

    def test_qoi_matrix_requires_evaluation(self):
        collection = SampleCollection()
        collection.add(np.zeros(1))
        with pytest.raises(ValueError):
            collection.qois()

    def test_merge_and_subset(self):
        a = SampleCollection()
        b = SampleCollection()
        a.add(np.array([1.0]))
        b.add(np.array([2.0]))
        a.merge(b)
        assert a.num_samples == 2
        assert a.subset(1).num_samples == 1

    def _weighted(self, weights) -> SampleCollection:
        collection = SampleCollection()
        for i, weight in enumerate(weights):
            collection.add(np.array([float(i)]), weight=weight)
        return collection

    def test_rows_are_copies_of_the_added_vectors(self):
        collection = SampleCollection()
        theta, qoi = np.array([1.0, 2.0]), np.array([3.0])
        collection.add(theta, -0.5, qoi)
        theta[0] = qoi[0] = 9.0
        np.testing.assert_array_equal(collection.parameters(), [[1.0, 2.0]])
        np.testing.assert_array_equal(collection.qois(), [[3.0]])
        np.testing.assert_array_equal(collection.log_densities(), [-0.5])
        with pytest.raises(ValueError):
            collection.parameters()[0, 0] = 1.0  # read-only view of the block

    def test_num_samples_through_merge_subset_and_state_dict(self):
        a, b = self._weighted([2, 1]), self._weighted([4, 3, 1])
        a.merge(b)
        assert a.num_samples == 11
        assert a.subset(1, 3).num_samples == 5
        assert a.subset(2).num_samples == 8
        restored = SampleCollection.from_state_dict(a.state_dict())
        assert restored.num_samples == 11
        restored.add(np.zeros(1), weight=2)
        assert restored.num_samples == 13
        for collection in (a, restored, a.subset(1, 3)):
            collection.validate()

    def test_validate_catches_weight_changed_behind_its_back(self):
        collection = self._weighted([2, 3])
        collection.validate()
        snapshot = collection.state_dict()
        snapshot["weights"][1] = 4
        with pytest.raises(ValueError, match="does not match num_samples"):
            SampleCollection.from_state_dict(snapshot).validate()

    def test_num_samples_of_empty_collections(self):
        empty = SampleCollection()
        assert empty.num_samples == 0
        empty.validate()
        filled = self._weighted([3])
        filled.merge(SampleCollection())
        assert filled.num_samples == 3
        assert filled.subset(1).num_samples == 0
        filled.validate()

    def test_validate_catches_torn_snapshot(self):
        snapshot = self._weighted([1, 2]).state_dict()
        # parameters of a third row without its weight and log density
        snapshot["parameters"] = np.vstack([snapshot["parameters"], [[5.0]]])
        with pytest.raises(ValueError, match="rows"):
            SampleCollection.from_state_dict(snapshot).validate()

    def test_ess_of_repeated_samples_is_low(self, rng):
        collection = SampleCollection()
        for _ in range(50):
            collection.add(np.array([1.0]))
        iid = SampleCollection()
        for _ in range(50):
            iid.add(rng.standard_normal(1))
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
        fine, coarse = collection.block(0, 1)
        np.testing.assert_allclose(fine, [[2.0]])
        np.testing.assert_allclose(coarse, [[1.5]])

    def test_missing_coarse_rejected_above_level0(self):
        collection = CorrectionCollection(level=1)
        with pytest.raises(ValueError):
            collection.add(np.array([1.0]))

    def test_coarse_qoi_refused_on_level0(self):
        with pytest.raises(ValueError):
            CorrectionCollection(level=0).add(np.array([1.0]), np.array([0.5]))

    def test_extend_appends_a_block(self):
        rows = CorrectionCollection(level=1)
        for fine, coarse in ([2.0, 1.0], [1.5, 0.0]), ([1.0, 2.0], [0.0, 0.5]):
            rows.add(np.array(fine), np.array(coarse))
        block = CorrectionCollection(level=1)
        block.extend(np.array([[2.0, 1.0], [1.0, 2.0]]), np.array([[1.5, 0.0], [0.0, 0.5]]))
        assert len(block) == 2
        assert block.differences().tobytes() == rows.differences().tobytes()
        with pytest.raises(ValueError):
            block.extend(np.ones((2, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            block.extend(np.ones((1, 2)))

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
        theta, log_density, qoi = source.next_sample()
        assert chain.steps_taken == 7
        assert qoi is not None
        assert log_density == problem.log_density(theta)
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
            theta, _, qoi = source.next_sample()
            np.testing.assert_array_equal(qoi, theta)
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
