"""Tests for MCMC proposals (random walk, AM, pCN, independence, subsampling)."""

from __future__ import annotations

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

    def test_copy_preserves_and_overrides(self):
        state = SamplingState(parameters=np.array([1.0]), log_density=-2.0, qoi=np.array([5.0]))
        clone = state.copy()
        assert clone.log_density == -2.0
        assert clone.qoi is not state.qoi
        overridden = state.copy(log_density=None)
        assert overridden.log_density is None

    def test_invalidate_caches(self):
        state = SamplingState(parameters=np.zeros(2), log_density=1.0, qoi=np.zeros(1))
        state.invalidate_caches()
        assert state.log_density is None and state.qoi is None


class TestRandomWalk:
    def test_symmetric_zero_correction(self, rng):
        proposal = GaussianRandomWalkProposal(0.5, dim=3)
        result = proposal.propose(SamplingState(parameters=np.zeros(3)), rng)
        assert result.log_correction == 0.0
        assert proposal.is_symmetric
        assert result.state.dim == 3

    def test_step_statistics(self, rng):
        proposal = GaussianRandomWalkProposal(np.array([0.25, 4.0]))
        current = SamplingState(parameters=np.zeros(2))
        steps = np.stack(
            [proposal.propose(current, rng).state.parameters for _ in range(4000)]
        )
        np.testing.assert_allclose(steps.mean(axis=0), 0.0, atol=0.1)
        np.testing.assert_allclose(steps.var(axis=0), [0.25, 4.0], rtol=0.15)

    def test_full_covariance(self, rng):
        cov = np.array([[1.0, 0.7], [0.7, 1.0]])
        proposal = GaussianRandomWalkProposal(cov)
        current = SamplingState(parameters=np.zeros(2))
        steps = np.stack(
            [proposal.propose(current, rng).state.parameters for _ in range(4000)]
        )
        np.testing.assert_allclose(np.cov(steps.T), cov, atol=0.12)

    def test_dimension_checks(self, rng):
        with pytest.raises(ValueError):
            GaussianRandomWalkProposal(1.0)
        with pytest.raises(ValueError):
            GaussianRandomWalkProposal(-1.0, dim=2)
        proposal = GaussianRandomWalkProposal(1.0, dim=2)
        with pytest.raises(ValueError):
            proposal.propose(SamplingState(parameters=np.zeros(3)), rng)


class TestAdaptiveMetropolis:
    def test_adapts_after_warmup(self, rng):
        proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=10, adapt_interval=10)
        state = SamplingState(parameters=np.zeros(2))
        target_cov = np.array([[2.0, 0.9], [0.9, 1.0]])
        chol = np.linalg.cholesky(target_cov)
        for i in range(1, 300):
            sample = SamplingState(parameters=chol @ rng.standard_normal(2))
            proposal.adapt(i, sample, accepted=True)
        assert proposal.num_adaptations > 0
        adapted = proposal.current_covariance()
        scale = 2.4**2 / 2
        np.testing.assert_allclose(adapted, scale * target_cov, rtol=0.35, atol=0.3)
        # proposals still work after adaptation
        result = proposal.propose(state, rng)
        assert result.state.dim == 2

    def test_no_adaptation_before_start(self, rng):
        proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=1000)
        for i in range(1, 200):
            proposal.adapt(i, SamplingState(parameters=rng.standard_normal(2)), True)
        assert proposal.num_adaptations == 0
        np.testing.assert_allclose(proposal.current_covariance(), np.eye(2))

    def test_degenerate_history_keeps_previous_covariance(self):
        proposal = AdaptiveMetropolisProposal(1.0, dim=2, adapt_start=1, adapt_interval=1, epsilon=0.0)
        state = SamplingState(parameters=np.zeros(2))
        for i in range(1, 50):
            proposal.adapt(i, state, True)  # constant history -> singular covariance
        np.testing.assert_allclose(proposal.current_covariance(), np.eye(2))


class TestPCN:
    def test_invariance_with_respect_to_prior(self, rng):
        # A chain driven only by pCN proposals (always accepted) must preserve the prior.
        prior = GaussianDensity(np.array([1.0, -1.0]), np.array([2.0, 0.5]))
        proposal = PreconditionedCrankNicolsonProposal(prior, beta=0.5)
        state = SamplingState(parameters=prior.sample(rng))
        samples = []
        for _ in range(8000):
            state = proposal.propose(state, rng).state
            samples.append(state.parameters)
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
        current = SamplingState(parameters=prior.sample(rng))
        for _ in range(5):
            result = proposal.propose(current, rng)
            prior_ratio = prior.log_density(result.state.parameters) - prior.log_density(
                current.parameters
            )
            assert prior_ratio + result.log_correction == pytest.approx(0.0, abs=1e-9)
            current = result.state

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
        x = SamplingState(parameters=prior.sample(rng))
        result = proposal.propose(x, rng)
        y = result.state
        forward = proposal._log_transition(y.parameters, x.parameters)
        backward = proposal._log_transition(x.parameters, y.parameters)
        assert np.isfinite(forward) and np.isfinite(backward)
        # the correction of this very draw is log q(x | y) - log q(y | x)
        assert result.log_correction == backward - forward


class TestIndependence:
    def test_correction_matches_density_ratio(self, rng):
        density = GaussianDensity(np.zeros(2), 1.0)
        proposal = IndependenceProposal(density)
        current = SamplingState(parameters=np.array([0.5, -0.5]))
        result = proposal.propose(current, rng)
        expected = density.log_density(current.parameters) - density.log_density(
            result.state.parameters
        )
        assert result.log_correction == pytest.approx(expected)


class TestSubsampling:
    def test_buffered_source_fifo(self):
        source = BufferedChainSource(subsampling_rate=3)
        assert source.subsampling_rate == 3
        a = SamplingState(parameters=np.array([1.0]))
        b = SamplingState(parameters=np.array([2.0]))
        source.push(a)
        source.push(b)
        assert source.next_sample() is a
        assert source.next_sample() is b
        with pytest.raises(RuntimeError):
            source.next_sample()

    def test_subsampling_proposal_passes_coarse_state(self, rng):
        source = BufferedChainSource()
        coarse = SamplingState(parameters=np.array([3.0, 4.0]), log_density=-1.5)
        source.push(coarse)
        proposal = SubsamplingProposal(source)
        result = proposal.propose(SamplingState(parameters=np.zeros(2)), rng)
        np.testing.assert_allclose(result.state.parameters, [3.0, 4.0])
        assert result.metadata["coarse_state"] is coarse
        assert result.log_correction == 0.0
        assert proposal.num_draws == 1
