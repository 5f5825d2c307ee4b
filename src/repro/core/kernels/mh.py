"""Metropolis-Hastings transition kernel (Algorithm 1 of the paper)."""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels.base import KernelResult, TransitionKernel
from repro.core.problem import AbstractSamplingProblem
from repro.core.proposals.base import MCMCProposal
from repro.core.state import SamplingState

__all__ = ["MHKernel"]


class MHKernel(TransitionKernel):
    """Standard Metropolis-Hastings kernel.

    Parameters
    ----------
    problem:
        The sampling problem providing the (unnormalised) log target density.
    proposal:
        The proposal distribution; its ``log_correction`` handles asymmetric
        proposals (independence, pCN, ...).
    """

    def __init__(self, problem: AbstractSamplingProblem, proposal: MCMCProposal) -> None:
        super().__init__()
        self.problem = problem
        self.proposal = proposal

    def state_dict(self) -> dict:
        """Kernel counters plus the proposal's adaptation state."""
        return {**super().state_dict(), "proposal": self.proposal.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.proposal.load_state_dict(state["proposal"])

    def initialize(self, parameters: np.ndarray) -> SamplingState:
        state = SamplingState(parameters=np.asarray(parameters, dtype=float))
        self.problem.log_density(state)
        return state

    def step(self, current: SamplingState, rng: np.random.Generator) -> KernelResult:
        current_log_density = self.problem.log_density(current)
        proposal_result = self.proposal.propose(current, rng)
        proposed = proposal_result.state
        proposed_log_density = self.problem.log_density(proposed)

        log_alpha = min(
            0.0,
            proposed_log_density - current_log_density + proposal_result.log_correction,
        )
        accepted = math.log(rng.random() + 1e-300) < log_alpha if math.isfinite(log_alpha) else False

        new_state = proposed if accepted else current
        self._record(accepted)
        self.proposal.adapt(self._num_steps, new_state, accepted)
        return KernelResult(
            state=new_state,
            accepted=accepted,
            log_alpha=float(log_alpha),
            # the proposal result is discarded, so its metadata is handed on
            metadata=proposal_result.metadata,
        )
