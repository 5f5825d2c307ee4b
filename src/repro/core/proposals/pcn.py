"""Preconditioned Crank-Nicolson proposal.

For a Gaussian prior ``N(m, C)`` the pCN proposal

``theta' = m + sqrt(1 - beta^2) (theta - m) + beta xi``, ``xi ~ N(0, C)``

is reversible with respect to the prior, which makes the Metropolis-Hastings
acceptance ratio depend on the likelihood only and — crucially for
function-space inverse problems like the KL-parameterised Poisson problem —
independent of the parameter dimension.  The proposal is implemented with the
generic MH correction term so it composes with any kernel in this package.
"""

from __future__ import annotations

import math

import numpy as np

from repro.bayes.distributions import GaussianDensity
from repro.core.proposals.base import MCMCProposal, ProposalResult
from repro.core.state import SamplingState

__all__ = ["PreconditionedCrankNicolsonProposal"]


class PreconditionedCrankNicolsonProposal(MCMCProposal):
    """pCN proposal for a Gaussian prior.

    Parameters
    ----------
    prior:
        The Gaussian prior the proposal is reversible with respect to.
    beta:
        Step-size parameter in ``(0, 1]``; small values yield high acceptance.
    """

    def __init__(self, prior: GaussianDensity, beta: float = 0.25) -> None:
        if not 0.0 < beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        self._prior = prior
        self._mean = prior.mean
        self._beta = float(beta)
        self._contraction = math.sqrt(1.0 - self._beta**2)

    @property
    def beta(self) -> float:
        """The pCN step-size parameter."""
        return self._beta

    @property
    def prior(self) -> GaussianDensity:
        """The reference Gaussian prior."""
        return self._prior

    def propose(self, current: SamplingState, rng: np.random.Generator) -> ProposalResult:
        prior, mean = self._prior, self._mean
        noise = prior.apply_cholesky(rng.standard_normal(prior.dim))
        proposed_params = mean + self._contraction * (current.parameters - mean) + self._beta * noise
        proposed = SamplingState(parameters=proposed_params)
        # MH correction: log q(current | proposed) - log q(proposed | current).
        log_correction = self._log_transition(
            current.parameters, proposed_params
        ) - self._log_transition(proposed_params, current.parameters)
        return ProposalResult(state=proposed, log_correction=log_correction)

    def _log_transition(self, target: np.ndarray, source: np.ndarray) -> float:
        """``log q(target | source)`` under the pCN kernel."""
        mean = self._mean
        resid = target - (mean + self._contraction * (source - mean))
        alpha = self._prior.solve_cholesky(resid) / self._beta
        return -0.5 * float(alpha @ alpha)
