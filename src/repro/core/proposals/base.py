"""Proposal interface.

A proposal maps the current chain state to a proposed state together with the
log proposal-density correction ``log q(theta | theta') - log q(theta' | theta)``
entering the Metropolis-Hastings acceptance ratio (zero for symmetric
proposals).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.state import SamplingState

__all__ = ["ProposalResult", "MCMCProposal"]


@dataclass
class ProposalResult:
    """A proposed state plus the MH log correction term.

    Attributes
    ----------
    state:
        The proposed :class:`SamplingState` (caches may be pre-populated, e.g.
        a subsampling proposal already knows the coarse log density of the
        sample it hands out).
    log_correction:
        ``log q(current | proposed) - log q(proposed | current)``.
    metadata:
        Proposal-specific annotations (e.g. which coarse-chain sample was
        used).
    """

    state: SamplingState
    log_correction: float = 0.0
    metadata: dict[str, Any] = field(default_factory=dict)


class MCMCProposal(ABC):
    """Abstract Markov-chain proposal distribution."""

    @abstractmethod
    def propose(self, current: SamplingState, rng: np.random.Generator) -> ProposalResult:
        """Draw a proposal given the current state."""

    def adapt(self, iteration: int, state: SamplingState, accepted: bool) -> None:
        """Adaptation hook called by the chain after every step (default: no-op)."""

    def state_dict(self) -> dict:
        """Serializable adaptation state (default: none, the proposal is fixed)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (default: nothing to restore)."""

    @property
    def is_symmetric(self) -> bool:
        """Whether ``q(a | b) == q(b | a)`` for all pairs (enables shortcuts)."""
        return False
