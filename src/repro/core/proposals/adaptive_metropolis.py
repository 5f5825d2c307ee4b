"""Adaptive Metropolis proposal (Haario, Saksman & Tamminen).

The paper uses MUQ's Adaptive Metropolis for the tsunami application's
coarsest chain: "we choose Adaptive Metropolis ... As initial prior we set
N(0, 10 I) and update every 100 steps."  The proposal starts as a Gaussian
random walk with a user-supplied initial covariance and, after a warm-up
period, periodically replaces the step covariance by the scaled empirical
covariance of the chain history,

``C_n = s_d * cov(theta_0, ..., theta_n) + s_d * eps * I``,   ``s_d = 2.4^2 / d``.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.core.proposals.base import MCMCProposal
from repro.utils.stats import RunningMoments

__all__ = ["AdaptiveMetropolisProposal"]


class AdaptiveMetropolisProposal(MCMCProposal):
    """Haario-style adaptive Gaussian random walk.

    Parameters
    ----------
    initial_covariance:
        Initial step covariance (scalar, diagonal vector or full matrix).
    dim:
        Parameter dimension (required for scalar covariance).
    adapt_start:
        Number of steps before adaptation begins.
    adapt_interval:
        Steps between covariance updates (100 in the paper).
    epsilon:
        Regularisation added to the empirical covariance diagonal.
    scale:
        Overall scale ``s_d``; defaults to the optimal ``2.4^2 / d``.
    """

    def __init__(
        self,
        initial_covariance: np.ndarray | float,
        dim: int | None = None,
        adapt_start: int = 100,
        adapt_interval: int = 100,
        epsilon: float = 1e-8,
        scale: float | None = None,
    ) -> None:
        cov = np.asarray(initial_covariance, dtype=float)
        if cov.ndim == 0:
            if dim is None:
                raise ValueError("dim is required for a scalar covariance")
            cov_matrix = np.eye(int(dim)) * float(cov)
        elif cov.ndim == 1:
            cov_matrix = np.diag(cov)
        else:
            cov_matrix = 0.5 * (cov + cov.T)
        self._dim = cov_matrix.shape[0]
        self._chol = np.linalg.cholesky(cov_matrix)
        self._adapt_start = int(adapt_start)
        self._adapt_interval = int(adapt_interval)
        self._epsilon = float(epsilon)
        self._scale = float(scale) if scale is not None else 2.4**2 / self._dim
        self._moments = RunningMoments(dim=self._dim, track_covariance=True)
        self._num_adaptations = 0

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self._dim

    @property
    def is_symmetric(self) -> bool:
        return True

    @property
    def num_adaptations(self) -> int:
        """How many times the covariance has been re-estimated."""
        return self._num_adaptations

    def current_covariance(self) -> np.ndarray:
        """The covariance currently used for proposals."""
        return self._chol @ self._chol.T

    def state_dict(self) -> dict:
        """The chain history moments, current Cholesky factor and adaptation count."""
        return {
            "moments": copy.deepcopy(self._moments),
            "chol": self._chol.copy(),
            "num_adaptations": self._num_adaptations,
        }

    def load_state_dict(self, state: dict) -> None:
        self._moments = copy.deepcopy(state["moments"])
        self._chol = np.array(state["chol"], dtype=float)
        self._num_adaptations = int(state["num_adaptations"])

    # ------------------------------------------------------------------
    def propose(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if theta.shape[0] != self._dim:
            raise ValueError(
                f"proposal dimension {self._dim} does not match state dimension {theta.shape[0]}"
            )
        return theta + self._chol @ rng.standard_normal(self._dim)

    def adapt(self, iteration: int, theta: np.ndarray, accepted: bool) -> None:
        """Accumulate the chain history and periodically refresh the covariance."""
        self._moments.push(theta)
        if (
            iteration >= self._adapt_start
            and self._moments.count >= max(2 * self._dim, 10)
            and iteration % self._adapt_interval == 0
        ):
            empirical = self._moments.covariance()
            adapted = self._scale * empirical + self._scale * self._epsilon * np.eye(self._dim)
            try:
                self._chol = np.linalg.cholesky(adapted)
                self._num_adaptations += 1
            except np.linalg.LinAlgError:
                # Keep the previous covariance if the empirical one is degenerate.
                pass
