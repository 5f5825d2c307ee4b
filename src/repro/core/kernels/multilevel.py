"""Two-level multilevel MCMC transition kernel (Algorithm 2 of the paper).

For level ``l >= 1`` the proposal is a sample of a level ``l-1`` chain,
drawn through a :class:`repro.core.proposals.SubsamplingProposal` (parameter
dimensions are identical across levels, so the coarse sample *is* the
proposed fine state).  The acceptance probability contains, in addition to
the usual fine-level posterior ratio, the *inverse* coarse-posterior ratio
``nu_{l-1}(theta_C) / nu_{l-1}(theta'_C)`` which removes the bias that using
coarse-chain samples as proposals would otherwise introduce.

Every step also exposes the coarse sample it was coupled with (including its
cached coarse QOI), which is exactly what the telescoping-sum correction
``E[Q_l - Q_{l-1}]`` needs — mirroring the paper's controllers that own a
level-``l`` and a level-``l-1`` chain.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels.base import KernelResult, TransitionKernel
from repro.core.problem import AbstractSamplingProblem
from repro.core.proposals.subsampling import SubsamplingProposal
from repro.core.state import SamplingState

__all__ = ["MultilevelKernel"]


class MultilevelKernel(TransitionKernel):
    """Two-level Metropolis-Hastings kernel with coarse-chain proposals.

    Parameters
    ----------
    fine_problem:
        Level-``l`` sampling problem (the chain's own target).
    coarse_problem:
        Level-``l-1`` sampling problem, used to evaluate the coarse posterior
        correction for the *current* state (proposals carry their coarse
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

    # ------------------------------------------------------------------
    def initialize(self, parameters: np.ndarray) -> SamplingState:
        """Evaluate a starting state under both the fine and the coarse posterior."""
        state = SamplingState(parameters=np.asarray(parameters, dtype=float))
        self.fine_problem.log_density(state)
        state.coarse_log_density = self.coarse_problem.log_density(state.parameters)
        return state

    # ------------------------------------------------------------------
    def step(self, current: SamplingState, rng: np.random.Generator) -> KernelResult:
        # Coarse component: a subsampled state of the level l-1 chain.
        coarse_result = self.coarse_proposal.propose(current, rng)
        coarse_state: SamplingState = coarse_result.metadata["coarse_state"]
        coarse_log_density_proposed = coarse_state.log_density
        if coarse_log_density_proposed is None:
            coarse_log_density_proposed = self.coarse_problem.log_density(coarse_state)

        proposed = SamplingState(parameters=np.array(coarse_state.parameters, dtype=float))
        proposed.coarse_log_density = float(coarse_log_density_proposed)

        # Densities entering the two-level acceptance ratio.
        current_fine_log_density = self.fine_problem.log_density(current)
        proposed_fine_log_density = self.fine_problem.log_density(proposed)

        if current.coarse_log_density is None:
            current.coarse_log_density = self.coarse_problem.log_density(current.parameters)

        log_alpha = (
            proposed_fine_log_density
            - current_fine_log_density
            + current.coarse_log_density
            - float(coarse_log_density_proposed)
        )
        log_alpha = min(0.0, log_alpha)
        accepted = (
            math.log(rng.random() + 1e-300) < log_alpha if math.isfinite(log_alpha) else False
        )

        new_state = proposed if accepted else current
        self._record(accepted)

        # The coarse sample this fine step is coupled with (for the telescoping
        # correction).  Its QOI is cached right here so collectors never re-run
        # the coarse model.
        metadata = {
            "coarse_state": coarse_state,
            "coarse_qoi": self.coarse_problem.qoi(coarse_state),
            "coarse_log_density": float(coarse_log_density_proposed),
        }
        return KernelResult(
            state=new_state,
            accepted=accepted,
            log_alpha=float(log_alpha),
            metadata=metadata,
        )
