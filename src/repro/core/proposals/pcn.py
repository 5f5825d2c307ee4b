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
from repro.core.proposals.base import MCMCProposal

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

    def propose(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        prior, mean = self._prior, self._mean
        noise = prior.apply_cholesky(rng.standard_normal(prior.dim))
        return mean + self._contraction * (theta - mean) + self._beta * noise

    def log_correction(self, theta: np.ndarray, proposed: np.ndarray) -> float:
        return self._log_transition(theta, proposed) - self._log_transition(proposed, theta)

    def _log_transition(self, target: np.ndarray, source: np.ndarray) -> float:
        """``log q(target | source)`` under the pCN kernel."""
        mean = self._mean
        resid = target - (mean + self._contraction * (source - mean))
        alpha = self._prior.solve_cholesky(resid) / self._beta
        return -0.5 * float(alpha @ alpha)
