"""Tests for MCMC proposals (random walk, AM, pCN, independence, subsampling)."""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes.distributions import GaussianDensity
from repro.core.proposals import (
    AdaptiveMetropolisProposal,
    BufferedChainSource,
    GaussianRandomWalkProposal,
    IndependenceProposal,
    PreconditionedCrankNicolsonProposal,
    SubsamplingProposal,
)
from repro.core.state import SamplingState


class TestSamplingState:
    def test_parameters_are_flattened_floats(self):
        state = SamplingState(parameters=[[1, 2], [3, 4]])
        assert state.parameters.shape == (4,)
        assert state.dim == 4

    def test_survives_pickling(self):
        state = SamplingState(
            parameters=np.array([1.0]), log_density=-2.0, coarse_log_density=-3.0,
            qoi=np.array([5.0]),
        )
        clone = pickle.loads(pickle.dumps(state))
        assert (clone.log_density, clone.coarse_log_density) == (-2.0, -3.0)
        np.testing.assert_array_equal(clone.parameters, state.parameters)
        np.testing.assert_array_equal(clone.qoi, state.qoi)

    def test_evaluations_default_to_none(self):
        state = SamplingState(parameters=np.zeros(2))
        assert state.log_density is None and state.coarse_log_density is None
        assert state.qoi is None


class TestRandomWalk:
    def test_symmetric_zero_correction(self, rng):
        proposal = GaussianRandomWalkProposal(0.5, dim=3)
        theta = np.zeros(3)
        proposed = proposal.propose(theta, rng)
        assert proposal.log_correction(theta, proposed) == 0.0
        assert proposal.is_symmetric
        assert proposed.shape == (3,)
        assert not theta.any()  # the current vector is never written

    def test_step_statistics(self, rng):
        proposal = GaussianRandomWalkProposal(np.array([0.25, 4.0]))
        current = np.zeros(2)
        steps = np.stack([proposal.propose(current, rng) for _ in range(4000)])
        np.testing.assert_allclose(steps.mean(axis=0), 0.0, atol=0.1)
        np.testing.assert_allclose(steps.var(axis=0), [0.25, 4.0], rtol=0.15)

    def test_full_covariance(self, rng):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        proposal = GaussianRandomWalkProposal(cov)
        current = np.zeros(2)
        steps = np.stack([proposal.propose(current, rng) for _ in range(4000)])
        np.testing.assert_allclose(np.cov(steps.T), cov, atol=0.12)

    def test_dimension_checks(self, rng):
        with pytest.raises(ValueError):
            GaussianRandomWalkProposal(1.0)
        with pytest.raises(ValueError):
            GaussianRandomWalkProposal(-1.0, dim=2)
        proposal = GaussianRandomWalkProposal(1.0, dim=2)
        with pytest.raises(ValueError):
            proposal.propose(np.zeros(3), rng)


class TestAdaptiveMetropolis:
    def test_adapts_after_warmup(self, rng):
        proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=10, adapt_interval=10)
        target_cov = np.array([[2.0, 0.9], [0.9, 1.0]])
        chol = np.linalg.cholesky(target_cov)
        for i in range(1, 300):
            proposal.adapt(i, chol @ rng.standard_normal(2), accepted=True)
        assert proposal.num_adaptations > 0
        adapted = proposal.current_covariance()
        scale = 2.4**2 / 2
        np.testing.assert_allclose(adapted, scale * target_cov, rtol=0.35, atol=0.3)
        # proposals still work after adaptation
        assert proposal.propose(np.zeros(2), rng).shape == (2,)

    def test_no_adaptation_before_start(self, rng):
        proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=1000)
        for i in range(1, 200):
            proposal.adapt(i, rng.standard_normal(2), True)
        assert proposal.num_adaptations == 0
        np.testing.assert_allclose(proposal.current_covariance(), np.eye(2))

    def test_degenerate_history_keeps_previous_covariance(self):
        proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=1, adapt_interval=1, epsilon=0.0)
        theta = np.zeros(2)
        for i in range(1, 50):
            proposal.adapt(i, theta, True)  # constant history -> singular covariance
        np.testing.assert_allclose(proposal.current_covariance(), np.eye(2))


class TestPCN:
    def test_invariance_with_respect_to_prior(self, rng):
        # A chain driven only by pCN proposals (always accepted) must preserve the prior.
        prior = GaussianDensity(np.array([1.0, -1.0]), np.array([2.0, 0.5]))
        proposal = PreconditionedCrankNicolsonProposal(prior, beta=0.5)
        theta = prior.sample(rng)
        samples = []
        for _ in range(8000):
            theta = proposal.propose(theta, rng)
            samples.append(theta)
        samples = np.stack(samples[500:])
        np.testing.assert_allclose(samples.mean(axis=0), prior.mean, atol=0.15)
        np.testing.assert_allclose(samples.var(axis=0), [2.0, 0.5], rtol=0.2)

    @pytest.mark.parametrize(
        "covariance",
        [2.0, np.array([0.5, 3.0]), np.array([[2.0, 0.6], [0.6, 0.9]])],
        ids=["isotropic", "diagonal", "full"],
    )
    def test_correction_term_consistency(self, covariance, rng):
        # For the pCN kernel, posterior ratio + correction must equal the likelihood
        # ratio, i.e. prior ratio + correction == 0.
        prior = GaussianDensity(np.array([0.5, -1.0]), covariance)
        proposal = PreconditionedCrankNicolsonProposal(prior, beta=0.3)
        current = prior.sample(rng)
        for _ in range(5):
            proposed = proposal.propose(current, rng)
            prior_ratio = prior.log_density(proposed) - prior.log_density(current)
            correction = proposal.log_correction(current, proposed)
            assert prior_ratio + correction == pytest.approx(0.0, abs=1e-9)
            current = proposed

    def test_beta_validation(self):
        prior = GaussianDensity(np.zeros(2), 1.0)
        with pytest.raises(ValueError):
            PreconditionedCrankNicolsonProposal(prior, beta=0.0)
        with pytest.raises(ValueError):
            PreconditionedCrankNicolsonProposal(prior, beta=1.5)

    @given(beta=st.floats(0.05, 1.0))
    @settings(max_examples=20, deadline=None)
    def test_property_correction_antisymmetry(self, beta):
        rng = np.random.default_rng(42)
        prior = GaussianDensity(np.zeros(2), 1.0)
        proposal = PreconditionedCrankNicolsonProposal(prior, beta=beta)
        x = prior.sample(rng)
        y = proposal.propose(x, rng)
        forward = proposal._log_transition(y, x)
        backward = proposal._log_transition(x, y)
        assert np.isfinite(forward) and np.isfinite(backward)
        # the correction of this very draw is log q(x | y) - log q(y | x)
        assert proposal.log_correction(x, y) == backward - forward


class TestIndependence:
    def test_correction_matches_density_ratio(self, rng):
        density = GaussianDensity(np.zeros(2), 1.0)
        proposal = IndependenceProposal(density)
        current = np.array([0.5, -0.5])
        proposed = proposal.propose(current, rng)
        expected = density.log_density(current) - density.log_density(proposed)
        assert proposal.log_correction(current, proposed) == pytest.approx(expected)
        assert not proposal.is_symmetric


class TestSubsampling:
    def test_buffered_source_fifo(self):
        source = BufferedChainSource(subsampling_rate=3)
        assert source.subsampling_rate == 3
        a = SamplingState(parameters=np.array([1.0]), log_density=-1.0)
        b = SamplingState(parameters=np.array([2.0]), qoi=np.array([4.0]))
        source.push(a)
        source.push(b)
        assert source.next_sample() == (a.parameters, -1.0, None)
        theta, log_density, qoi = source.next_sample()
        assert theta is b.parameters and log_density is None and qoi is b.qoi
        with pytest.raises(RuntimeError):
            source.next_sample()

    def test_subsampling_proposal_passes_coarse_state(self, rng):
        source = BufferedChainSource()
        coarse = SamplingState(parameters=np.array([3.0, 4.0]), log_density=-1.5)
        source.push(coarse)
        proposal = SubsamplingProposal(source)
        theta, log_density, qoi = proposal.propose(np.zeros(2), rng)
        assert theta is coarse.parameters
        assert (log_density, qoi) == (-1.5, None)
        assert proposal.num_draws == 1
