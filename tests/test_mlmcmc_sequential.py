"""Integration tests for the sequential MLMCMC driver on the analytic Gaussian hierarchy."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.core import (
    GaussianTargetProblem,
    MLComponentFactory,
    MLMCMCSampler,
    run_single_level_mcmc,
)
from repro.core.proposals import GaussianRandomWalkProposal, IndependenceProposal
from repro.bayes.distributions import GaussianDensity
from repro.models.gaussian import GaussianHierarchyFactory


class IndependenceGaussianFactory(MLComponentFactory):
    """Gaussian hierarchy whose level-0 proposal is an exact independence sampler.

    With exact coarse-level proposals the coarse chain mixes perfectly, which
    removes the proposal-autocorrelation bias and makes tight statistical
    assertions possible.
    """

    def __init__(self, dim=1, num_levels=3, decay=0.5):
        self.inner = GaussianHierarchyFactory(
            dim=dim, num_levels=num_levels, decay=decay, subsampling=1
        )
        self.dim = dim

    def num_levels(self):
        return self.inner.num_levels()

    def problem_for_level(self, level):
        return self.inner.problem_for_level(level)

    def proposal_for_level(self, level, problem):
        return IndependenceProposal(
            GaussianDensity(self.inner.level_mean(0), self.inner.level_covariance(0))
        )

    def starting_point_for_level(self, level):
        return self.inner.starting_point_for_level(level)

    def subsampling_rate_for_level(self, level):
        return 1


class TestSequentialMLMCMC:
    def test_estimates_finest_posterior_mean(self):
        factory = IndependenceGaussianFactory(dim=1, num_levels=3)
        sampler = MLMCMCSampler(factory, num_samples=[6000, 2500, 1200], seed=11)
        result = sampler.run()
        exact = factory.inner.exact_mean()
        assert result.mean == pytest.approx(exact, abs=0.12)
        # per-level corrections match their closed forms
        for level, contribution in enumerate(result.estimate.contributions):
            expected = factory.inner.exact_correction(level)
            np.testing.assert_allclose(contribution.mean, expected, atol=0.15)

    def test_correction_variance_decays_with_level(self):
        factory = IndependenceGaussianFactory(dim=1, num_levels=3, decay=0.3)
        sampler = MLMCMCSampler(factory, num_samples=[4000, 1500, 800], seed=5)
        result = sampler.run()
        variances = [float(c.variance[0]) for c in result.estimate.contributions]
        # V[Q_0] is the posterior variance (~1); corrections are much smaller
        assert variances[1] < variances[0]
        assert variances[2] < variances[0]

    def test_bookkeeping_fields(self, gaussian_factory):
        sampler = MLMCMCSampler(gaussian_factory, num_samples=[300, 100, 50], seed=0)
        result = sampler.run()
        assert len(result.chains) == 3
        assert len(result.acceptance_rates) == 3
        assert all(0.0 <= rate <= 1.0 for rate in result.acceptance_rates)
        assert all(evals > 0 for evals in result.model_evaluations)
        assert result.wall_time > 0.0
        assert [len(c) for c in result.corrections] == [300, 100, 50]

    def test_golden_sequential_run(self):
        """A fixed sequential run keeps its exact estimate and chain counts.

        Pins the ``gaussian_seq`` benchmark hierarchy at small sample counts:
        any change to how the per-level chain stacks are built, seeded or
        stepped (including the embedded coarse-source chains, whose work shows
        in the per-level model-evaluation counts) fails here.
        """
        factory = GaussianHierarchyFactory(dim=4, num_levels=3, decay=0.5, subsampling=5)
        result = MLMCMCSampler(factory, num_samples=[400, 100, 40], seed=1).run()
        assert hashlib.sha256(result.mean.tobytes()).hexdigest() == (
            "ae4eab4a61ed3caee461a7aed41c96186dde11b4652611ce9d6701dce86e46a5"
        )
        assert [chain.steps_taken for chain in result.chains] == [440, 110, 44]
        assert [chain.kernel.num_accepted for chain in result.chains] == [114, 90, 40]
        assert result.model_evaluations == [2095, 333, 45]

        estimate, chain = run_single_level_mcmc(factory, level=2, num_samples=300, seed=2)
        assert hashlib.sha256(estimate.mean.tobytes()).hexdigest() == (
            "2309b1be45688dc1253948ce55fc82b85612cac73591f2a534eb80e9f1379520"
        )
        assert (chain.steps_taken, chain.kernel.num_accepted) == (330, 63)

    def test_num_samples_validation(self, gaussian_factory):
        with pytest.raises(ValueError):
            MLMCMCSampler(gaussian_factory, num_samples=[100, 100])
        with pytest.raises(ValueError):
            MLMCMCSampler(gaussian_factory, num_samples=[100, 100, 100], burnin=[1])

    def test_seed_reproducibility(self, gaussian_factory):
        a = MLMCMCSampler(gaussian_factory, num_samples=[200, 80, 30], seed=123).run()
        b = MLMCMCSampler(gaussian_factory, num_samples=[200, 80, 30], seed=123).run()
        np.testing.assert_allclose(a.mean, b.mean)
        c = MLMCMCSampler(gaussian_factory, num_samples=[200, 80, 30], seed=124).run()
        assert not np.allclose(a.mean, c.mean)

    def test_subsampling_override(self, gaussian_factory):
        sampler = MLMCMCSampler(
            gaussian_factory, num_samples=[200, 60, 20], subsampling_rates=[0, 2, 2], seed=1
        )
        result = sampler.run()
        assert result.mean.shape == (2,)

    def test_single_level_baseline(self):
        factory = IndependenceGaussianFactory(dim=1, num_levels=2)
        estimate, chain = run_single_level_mcmc(factory, level=1, num_samples=4000, seed=3)
        exact = factory.inner.level_mean(1)
        assert estimate.mean == pytest.approx(exact, abs=0.1)
        assert estimate.num_samples == 4000
        assert chain.level == 1

    def test_two_level_hierarchy(self):
        factory = IndependenceGaussianFactory(dim=2, num_levels=2)
        result = MLMCMCSampler(factory, num_samples=[2000, 800], seed=9).run()
        exact = factory.inner.exact_mean()
        np.testing.assert_allclose(result.mean, exact, atol=0.15)


class TestMLMCMCvsSingleLevelEfficiency:
    def test_multilevel_is_cheaper_for_same_accuracy(self):
        """The headline complexity claim, in miniature.

        For a fixed (modest) accuracy target, MLMCMC spends most samples on the
        cheap level while single-level MCMC pays the fine-level cost for every
        sample; the multilevel nominal cost must be substantially smaller.
        """
        factory = IndependenceGaussianFactory(dim=1, num_levels=3)
        costs = [problem.evaluation_cost() for problem in (
            factory.problem_for_level(0), factory.problem_for_level(1), factory.problem_for_level(2)
        )]
        ml_samples = [4000, 800, 200]
        ml_nominal_cost = sum(n * c for n, c in zip(ml_samples, costs))
        # single-level on the finest model with the same number of fine samples
        # as the coarse level would need for comparable MC error
        sl_nominal_cost = 4000 * costs[2]
        assert ml_nominal_cost < 0.5 * sl_nominal_cost
