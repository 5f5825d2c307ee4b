"""Proposal interface.

A proposal maps the current parameter vector ``theta`` to a proposed one.
Asymmetric proposals also report the log proposal-density correction
``log q(theta | theta') - log q(theta' | theta)`` entering the
Metropolis-Hastings acceptance ratio (zero for symmetric proposals, which the
kernel then never asks for).

Proposals never write into the vectors they are given, and the vector they
return is a fresh array: chains share parameter vectors between points
instead of copying them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["MCMCProposal"]


class MCMCProposal(ABC):
    """Abstract Markov-chain proposal distribution."""

    @abstractmethod
    def propose(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Draw a proposed parameter vector given the current one."""

    def log_correction(self, theta: np.ndarray, proposed: np.ndarray) -> float:
        """``log q(theta | proposed) - log q(proposed | theta)`` (0 when symmetric)."""
        return 0.0

    def adapt(self, iteration: int, theta: np.ndarray, accepted: bool) -> None:
        """Adaptation hook called by the kernel after every step (default: no-op)."""

    def state_dict(self) -> dict:
        """Serializable adaptation state (default: none, the proposal is fixed)."""
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict` (default: nothing to restore)."""

    @property
    def is_symmetric(self) -> bool:
        """Whether ``q(a | b) == q(b | a)`` for all pairs (enables shortcuts)."""
        return False
