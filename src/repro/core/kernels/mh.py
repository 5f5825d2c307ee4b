"""Metropolis-Hastings transition kernel (Algorithm 1 of the paper)."""

from __future__ import annotations

import math

import numpy as np

from repro.core.kernels.base import TransitionKernel
from repro.core.problem import AbstractSamplingProblem
from repro.core.proposals.base import MCMCProposal

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
        self._log_density = problem.log_density
        self._symmetric = proposal.is_symmetric

    def state_dict(self) -> dict:
        """Kernel counters plus the proposal's adaptation state."""
        return {**super().state_dict(), "proposal": self.proposal.state_dict()}

    def load_state_dict(self, state: dict) -> None:
        super().load_state_dict(state)
        self.proposal.load_state_dict(state["proposal"])

    def initialize(self, theta: np.ndarray) -> tuple[float, None]:
        return self._log_density(theta), None

    def step(
        self,
        theta: np.ndarray,
        log_density: float,
        coarse_log_density: float | None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float, float | None, None, bool]:
        proposal = self.proposal
        proposed = proposal.propose(theta, rng)
        proposed_log_density = self._log_density(proposed)
        correction = 0.0 if self._symmetric else proposal.log_correction(theta, proposed)

        log_alpha = min(0.0, proposed_log_density - log_density + correction)
        accepted = math.log(rng.random() + 1e-300) < log_alpha if math.isfinite(log_alpha) else False

        self._num_steps += 1
        if accepted:
            self._num_accepted += 1
            theta, log_density = proposed, proposed_log_density
        proposal.adapt(self._num_steps, theta, accepted)
        return theta, log_density, coarse_log_density, None, accepted
