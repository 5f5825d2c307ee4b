"""Two-level multilevel MCMC transition kernel (Algorithm 2 of the paper).

For level ``l >= 1`` the proposal is a sample of a level ``l-1`` chain,
drawn through a :class:`repro.core.proposals.SubsamplingProposal` (parameter
dimensions are identical across levels, so the coarse sample *is* the
proposed fine state).  The acceptance probability contains, in addition to
the usual fine-level posterior ratio, the *inverse* coarse-posterior ratio
``nu_{l-1}(theta_C) / nu_{l-1}(theta'_C)`` which removes the bias that using
coarse-chain samples as proposals would otherwise introduce.

Every step also hands back the QOI of the coarse sample it was coupled with,
which is exactly what the telescoping-sum correction ``E[Q_l - Q_{l-1}]``
needs — mirroring the paper's controllers that own a level-``l`` and a
level-``l-1`` chain.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels.base import TransitionKernel
from repro.core.problem import AbstractSamplingProblem
from repro.core.proposals.subsampling import SubsamplingProposal

__all__ = ["MultilevelKernel"]


class MultilevelKernel(TransitionKernel):
    """Two-level Metropolis-Hastings kernel with coarse-chain proposals.

    Parameters
    ----------
    fine_problem:
        Level-``l`` sampling problem (the chain's own target).
    coarse_problem:
        Level-``l-1`` sampling problem, used to evaluate the coarse posterior
        correction for the *current* point (proposals carry their coarse
        density from the coarse chain already).
    coarse_proposal:
        Subsampling proposal bound to a coarse-chain sample source.
    """

    def __init__(
        self,
        fine_problem: AbstractSamplingProblem,
        coarse_problem: AbstractSamplingProblem,
        coarse_proposal: SubsamplingProposal,
    ) -> None:
        super().__init__()
        self.fine_problem = fine_problem
        self.coarse_problem = coarse_problem
        self.coarse_proposal = coarse_proposal
        self._fine_log_density = fine_problem.log_density
        self._coarse_log_density = coarse_problem.log_density

    # ------------------------------------------------------------------
    def initialize(self, theta: np.ndarray) -> tuple[float, float]:
        """Evaluate a starting point under both the fine and the coarse posterior."""
        return self._fine_log_density(theta), self._coarse_log_density(theta)

    # ------------------------------------------------------------------
    def step(
        self,
        theta: np.ndarray,
        log_density: float,
        coarse_log_density: float | None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float, float | None, np.ndarray, bool]:
        # Coarse component: a subsampled point of the level l-1 chain.  Its
        # parameter vector *is* the proposal; nothing writes into it.
        proposed, proposed_coarse, coarse_qoi = self.coarse_proposal.propose(theta, rng)
        if proposed_coarse is None:
            proposed_coarse = self._coarse_log_density(proposed)
        proposed_coarse = float(proposed_coarse)
        proposed_log_density = self._fine_log_density(proposed)
        if coarse_log_density is None:
            coarse_log_density = self._coarse_log_density(theta)

        # Two-level acceptance ratio.
        log_alpha = min(
            0.0,
            proposed_log_density - log_density + coarse_log_density - proposed_coarse,
        )
        accepted = (
            math.log(rng.random() + 1e-300) < log_alpha if math.isfinite(log_alpha) else False
        )
        self._num_steps += 1
        if accepted:
            self._num_accepted += 1

        # The QOI of the coarse sample this fine step is coupled with (for the
        # telescoping correction); sources hand it over already evaluated.
        if coarse_qoi is None:
            coarse_qoi = self.coarse_problem.qoi(proposed)
        if accepted:
            return proposed, proposed_log_density, proposed_coarse, coarse_qoi, True
        return theta, log_density, coarse_log_density, coarse_qoi, False
