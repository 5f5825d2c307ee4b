"""Two-level multilevel MCMC transition kernel (Algorithm 2 of the paper).

For level ``l >= 1`` the proposal is composed of

* a *coarse component* drawn from a level ``l-1`` chain (through a
  :class:`repro.core.proposals.SubsamplingProposal`), and
* an optional *fine component* drawn from a level-specific proposal density
  ``q_l`` when the parameter dimension grows across levels,

combined by an :class:`repro.core.interpolation.MIInterpolation`.  The
acceptance probability contains, in addition to the usual fine-level posterior
ratio and fine-proposal correction, the *inverse* coarse-posterior ratio
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

from repro.core.interpolation import IdentityInterpolation, MIInterpolation
from repro.core.kernels.base import KernelResult, TransitionKernel
from repro.core.problem import AbstractSamplingProblem
from repro.core.proposals.base import MCMCProposal
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
    fine_proposal:
        Proposal density ``q_l`` for the fine-only parameter block; ``None``
        when parameter dimensions are identical across levels.
    interpolation:
        Combines coarse and fine blocks; defaults to the identity.
    """

    def __init__(
        self,
        fine_problem: AbstractSamplingProblem,
        coarse_problem: AbstractSamplingProblem,
        coarse_proposal: SubsamplingProposal,
        fine_proposal: MCMCProposal | None = None,
        interpolation: MIInterpolation | None = None,
    ) -> None:
        super().__init__()
        self.fine_problem = fine_problem
        self.coarse_problem = coarse_problem
        self.coarse_proposal = coarse_proposal
        self.fine_proposal = fine_proposal
        self.interpolation = interpolation or IdentityInterpolation()

    # ------------------------------------------------------------------
    def initialize(self, parameters: np.ndarray) -> SamplingState:
        """Evaluate a starting state under both the fine and the coarse posterior."""
        state = SamplingState(parameters=np.asarray(parameters, dtype=float))
        self.fine_problem.log_density(state)
        coarse_params = self.interpolation.coarse_part(state.parameters)
        state.coarse_log_density = self.coarse_problem.log_density(coarse_params)
        return state

    # ------------------------------------------------------------------
    def step(self, current: SamplingState, rng: np.random.Generator) -> KernelResult:
        # Coarse component: a subsampled state of the level l-1 chain.
        coarse_result = self.coarse_proposal.propose(current, rng)
        coarse_state: SamplingState = coarse_result.metadata["coarse_state"]
        coarse_log_density_proposed = coarse_state.log_density
        if coarse_log_density_proposed is None:
            coarse_log_density_proposed = self.coarse_problem.log_density(coarse_state)

        # Fine component (only when dimensions differ across levels).
        fine_log_correction = 0.0
        fine_block: np.ndarray | None = None
        if self.fine_proposal is not None:
            current_fine_block = SamplingState(
                parameters=self.interpolation.fine_part(current.parameters)
            )
            fine_result = self.fine_proposal.propose(current_fine_block, rng)
            fine_block = fine_result.state.parameters
            fine_log_correction = fine_result.log_correction

        proposed_params = self.interpolation.interpolate(coarse_state.parameters, fine_block)
        proposed = SamplingState(parameters=proposed_params)
        proposed.coarse_log_density = float(coarse_log_density_proposed)

        # Densities entering the two-level acceptance ratio.
        current_fine_log_density = self.fine_problem.log_density(current)
        proposed_fine_log_density = self.fine_problem.log_density(proposed)

        if current.coarse_log_density is None:
            current_coarse_params = self.interpolation.coarse_part(current.parameters)
            current.coarse_log_density = self.coarse_problem.log_density(current_coarse_params)

        log_alpha = (
            proposed_fine_log_density
            - current_fine_log_density
            + fine_log_correction
            + current.coarse_log_density
            - float(coarse_log_density_proposed)
        )
        log_alpha = min(0.0, log_alpha)
        accepted = (
            math.log(rng.random() + 1e-300) < log_alpha if math.isfinite(log_alpha) else False
        )

        new_state = proposed if accepted else current
        self._record(accepted)
        if self.fine_proposal is not None:
            self.fine_proposal.adapt(self._num_steps, new_state, accepted)

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
