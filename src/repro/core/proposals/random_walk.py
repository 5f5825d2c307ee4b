"""Gaussian random walk proposal."""

from __future__ import annotations

import numpy as np

from repro.bayes.distributions import GaussianDensity
from repro.core.proposals.base import MCMCProposal

__all__ = ["GaussianRandomWalkProposal"]


class GaussianRandomWalkProposal(MCMCProposal):
    """Symmetric Gaussian random walk ``theta' = theta + N(0, C)``.

    Parameters
    ----------
    covariance:
        Scalar (isotropic), vector (diagonal) or full SPD step covariance.
        The paper's Poisson experiment uses an isotropic Gaussian proposal on
        the coarsest level.
    dim:
        Parameter dimension (required when ``covariance`` is scalar).
    """

    def __init__(self, covariance: np.ndarray | float, dim: int | None = None) -> None:
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim == 0 and dim is None:
            raise ValueError("dim is required for a scalar covariance")
        #: ``N(0, C)``: its factor operations apply a diagonal factor elementwise
        self._step = GaussianDensity(0.0, cov, dim=dim if cov.ndim == 0 else cov.shape[0])
        self._dim = self._step.dim

    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self._dim

    @property
    def is_symmetric(self) -> bool:
        return True

    def propose(self, theta: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        if theta.shape[0] != self._dim:
            raise ValueError(
                f"proposal dimension {self._dim} does not match state dimension {theta.shape[0]}"
            )
        return theta + self._step.apply_cholesky(rng.standard_normal(self._dim))
