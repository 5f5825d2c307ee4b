"""Transition kernel interface.

A kernel works on the bare values of a chain point — the parameter vector
``theta``, its log density and, for multilevel kernels, its coarse log density
— and allocates no wrapper object per step.  :meth:`TransitionKernel.step`
returns the next point as the tuple ``(theta, log_density,
coarse_log_density, coarse_qoi, accepted)``: the input values themselves when
the proposal was rejected, and ``coarse_qoi`` is the QOI of the coarse sample
a multilevel step was coupled with (``None`` for single-level kernels).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = ["TransitionKernel"]


class TransitionKernel(ABC):
    """Markov transition kernel leaving a target distribution invariant."""

    def __init__(self) -> None:
        self._num_steps = 0
        self._num_accepted = 0

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Number of kernel steps performed."""
        return self._num_steps

    @property
    def num_accepted(self) -> int:
        """Number of accepted proposals."""
        return self._num_accepted

    @property
    def acceptance_rate(self) -> float:
        """Empirical acceptance rate."""
        return self._num_accepted / self._num_steps if self._num_steps else 0.0

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable kernel state (counters; subclasses may extend)."""
        return {"num_steps": self._num_steps, "num_accepted": self._num_accepted}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        self._num_steps = int(state["num_steps"])
        self._num_accepted = int(state["num_accepted"])

    # ------------------------------------------------------------------
    @abstractmethod
    def initialize(self, theta: np.ndarray) -> tuple[float, float | None]:
        """Evaluate a starting point: ``(log_density, coarse_log_density)``."""

    @abstractmethod
    def step(
        self,
        theta: np.ndarray,
        log_density: float,
        coarse_log_density: float | None,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, float, float | None, np.ndarray | None, bool]:
        """Advance one step from the given point (see the module docstring)."""
