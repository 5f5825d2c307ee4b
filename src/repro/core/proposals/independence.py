"""Independence (independent Metropolis-Hastings) proposal."""

from __future__ import annotations

import numpy as np

from repro.bayes.distributions import Density
from repro.core.proposals.base import MCMCProposal

__all__ = ["IndependenceProposal"]


class IndependenceProposal(MCMCProposal):
    """Proposals drawn i.i.d. from a fixed density, ignoring the current state.

    The MH correction is ``log q(current) - log q(proposed)``.  Useful both as
    a baseline and as the fine-component proposal ``q_l`` when parameter
    dimensions grow across levels.
    """

    def __init__(self, density: Density) -> None:
        self._density = density

    @property
    def density(self) -> Density:
        """The proposal density."""
        return self._density

    def propose(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        return self._density.sample(rng)

    def log_correction(self, theta: np.ndarray, proposed: np.ndarray) -> float:
        density = self._density
        return float(density.log_density(theta) - density.log_density(proposed))
