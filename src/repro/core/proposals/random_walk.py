"""Gaussian random walk proposal."""

from __future__ import annotations

import numpy as np

from repro.core.proposals.base import MCMCProposal, ProposalResult
from repro.core.state import SamplingState

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
        if cov.ndim == 0:
            if dim is None:
                raise ValueError("dim is required for a scalar covariance")
            if cov <= 0:
                raise ValueError("covariance must be positive")
            self._dim = int(dim)
            self._chol = np.eye(self._dim) * float(np.sqrt(cov))
        elif cov.ndim == 1:
            if np.any(cov <= 0):
                raise ValueError("diagonal covariance entries must be positive")
            self._dim = cov.shape[0]
            self._chol = np.diag(np.sqrt(cov))
        else:
            self._dim = cov.shape[0]
            self._chol = np.linalg.cholesky(0.5 * (cov + cov.T))
        # A diagonal factor scales elementwise: ``d * z`` equals
        # ``diag(d) @ z`` bitwise (each row adds exact zeros to one product).
        diag = np.diag(self._chol)
        self._diag = diag.copy() if np.array_equal(self._chol, np.diag(diag)) else None

    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self._dim

    @property
    def is_symmetric(self) -> bool:
        return True

    def propose(self, current: SamplingState, rng: np.random.Generator) -> ProposalResult:
        if current.dim != self._dim:
            raise ValueError(
                f"proposal dimension {self._dim} does not match state dimension {current.dim}"
            )
        z = rng.standard_normal(self._dim)
        step = self._chol @ z if self._diag is None else self._diag * z
        proposed = SamplingState(parameters=current.parameters + step)
        return ProposalResult(state=proposed, log_correction=0.0)
