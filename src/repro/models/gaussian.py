"""Analytic Gaussian model hierarchy.

A family of Gaussian targets ``nu_l = N(m_l, C_l)`` whose means and covariances
converge geometrically towards the finest level, mimicking the behaviour of a
discretised PDE posterior under mesh refinement.  Posterior moments are known
in closed form, which makes this hierarchy the workhorse of the test-suite
(sequential-vs-parallel consistency, unbiasedness of the telescoping sum) and
a cheap stand-in posterior for scheduler-focused scaling studies — the paper
itself notes that "the particular inverse problem does not affect the
algorithm's communication patterns and therefore parallel scalability".
"""

from __future__ import annotations

import numpy as np

from repro.core.factory import MLComponentFactory
from repro.core.problem import AbstractSamplingProblem, GaussianTargetProblem
from repro.core.proposals.base import MCMCProposal
from repro.core.proposals.random_walk import GaussianRandomWalkProposal
from repro.models.base import ForwardModelBase

__all__ = ["GaussianHierarchyFactory", "GaussianIdentityForwardModel"]


class GaussianIdentityForwardModel(ForwardModelBase):
    """The identity observation operator ``F(theta) = theta``.

    The analytic hierarchy's targets are Gaussian in the parameters
    themselves, so the forward map that conforms to the shared
    :class:`repro.models.base.ForwardModel` contract is the identity —
    batched evaluation is a single array copy.  Used by the conformance tests
    and anywhere a trivially cheap stand-in forward model is useful.
    """

    def __init__(self, dim: int) -> None:
        self._dim = int(dim)

    @property
    def output_dim(self) -> int:
        return self._dim

    def forward(self, theta: np.ndarray) -> np.ndarray:
        theta = np.array(theta, dtype=np.float64, ndmin=1).ravel()
        if theta.shape[0] != self._dim:
            raise ValueError(f"expected a parameter of dimension {self._dim}")
        return theta

    def forward_batch(self, thetas: np.ndarray) -> np.ndarray:
        block = np.array(thetas, dtype=np.float64, ndmin=2)
        if block.shape[1] != self._dim:
            raise ValueError(f"expected parameters of dimension {self._dim}")
        return block


class GaussianHierarchyFactory(MLComponentFactory):
    """Hierarchy of Gaussian targets converging to a limit distribution.

    Level ``l`` targets ``N(m_l, C_l)`` with

    ``m_l = m_inf * (1 - decay^(l+1))`` and ``C_l = C_inf * (1 + decay^(l+1))``,

    so both the mean and the covariance converge geometrically, and the
    telescoping corrections ``E[Q_l - Q_{l-1}]`` decay like ``decay^l`` — the
    variance-decay structure MLMCMC exploits.

    Parameters
    ----------
    dim:
        Parameter dimension.
    num_levels:
        Number of levels.
    limit_mean:
        The limiting mean ``m_inf`` (scalar broadcast or vector).
    limit_std:
        The limiting marginal standard deviation.
    decay:
        Geometric convergence factor in (0, 1).
    proposal_scale:
        Variance of the Gaussian random-walk proposal on every level.
    subsampling:
        Subsampling rate ``rho_l`` for coarse proposals (same on every level).
    costs:
        Nominal evaluation cost per level (defaults to ``4^l``, the scaling of
        a 2-D PDE solve under uniform refinement).
    """

    def __init__(
        self,
        dim: int = 2,
        num_levels: int = 3,
        limit_mean: float | np.ndarray = 1.0,
        limit_std: float = 1.0,
        decay: float = 0.5,
        proposal_scale: float = 2.5,
        subsampling: int = 5,
        costs: list[float] | None = None,
    ) -> None:
        if num_levels < 1:
            raise ValueError("num_levels must be at least 1")
        if not 0.0 < decay < 1.0:
            raise ValueError("decay must lie in (0, 1)")
        self.dim = int(dim)
        self._num_levels = int(num_levels)
        self.limit_mean = np.broadcast_to(
            np.atleast_1d(np.asarray(limit_mean, dtype=float)), (self.dim,)
        ).copy()
        self.limit_std = float(limit_std)
        self.decay = float(decay)
        self.proposal_scale = float(proposal_scale)
        self.subsampling = int(subsampling)
        self.costs = (
            [float(c) for c in costs]
            if costs is not None
            else [4.0**level for level in range(num_levels)]
        )
        self._forward_model = GaussianIdentityForwardModel(self.dim)

    # ------------------------------------------------------------------
    def level_mean(self, level: int) -> np.ndarray:
        """Closed-form mean of the level-``level`` target."""
        return self.limit_mean * (1.0 - self.decay ** (level + 1))

    def level_covariance(self, level: int) -> np.ndarray:
        """Closed-form covariance of the level-``level`` target."""
        return np.eye(self.dim) * self.limit_std**2 * (1.0 + self.decay ** (level + 1))

    def exact_mean(self) -> np.ndarray:
        """Exact posterior mean of the finest level (the MLMCMC target)."""
        return self.level_mean(self._num_levels - 1)

    def exact_correction(self, level: int) -> np.ndarray:
        """Exact value of the telescoping term ``E[Q_l] - E[Q_{l-1}]`` (or ``E[Q_0]``)."""
        if level == 0:
            return self.level_mean(0)
        return self.level_mean(level) - self.level_mean(level - 1)

    # ------------------------------------------------------------------
    def forward_model(self, level: int) -> GaussianIdentityForwardModel:
        """The level's forward map under the shared ``ForwardModel`` contract.

        The analytic targets observe the parameters directly, so every level
        shares one identity operator (identity-stable across calls, like the
        Poisson and tsunami factories).
        """
        return self._forward_model

    def num_levels(self) -> int:
        return self._num_levels

    def problem_for_level(self, level: int) -> AbstractSamplingProblem:
        return GaussianTargetProblem(
            self.level_mean(level),
            self.level_covariance(level),
            cost=self.costs[level],
        )

    def proposal_for_level(self, level: int, problem: AbstractSamplingProblem) -> MCMCProposal:
        return GaussianRandomWalkProposal(self.proposal_scale, dim=self.dim)

    def starting_point_for_level(self, level: int) -> np.ndarray:
        return np.zeros(self.dim)

    def subsampling_rate_for_level(self, level: int) -> int:
        return self.subsampling
