"""Likelihood functions for Bayesian inverse problems.

A likelihood compares forward-model predictions to observed data.  The paper
uses Gaussian likelihoods throughout: ``N(F(theta), sigma_F^2 I)`` for the
Poisson problem and a level-dependent diagonal Gaussian over (max wave height,
arrival time) at two buoys for the tsunami problem (Table 1).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.utils.array_api import float_vector

__all__ = ["Likelihood", "GaussianLikelihood", "UnphysicalModelOutput"]

_LOG_2PI = math.log(2.0 * math.pi)


class UnphysicalModelOutput(Exception):
    """Raised by forward models when a parameter produces an unstable/unphysical run.

    The paper assigns "an almost zero likelihood" to such parameters (e.g. a
    tsunami source initialised on dry land); catching this exception lets the
    likelihood do exactly that without aborting the chain.
    """


class Likelihood(ABC):
    """Abstract likelihood ``L(y | theta)`` for fixed data ``y``."""

    @abstractmethod
    def log_likelihood(self, prediction: np.ndarray) -> float:
        """Log likelihood of the data given a model prediction."""

    def __call__(self, prediction: np.ndarray) -> float:
        return self.log_likelihood(prediction)


class GaussianLikelihood(Likelihood):
    """Gaussian observation model ``y ~ N(F(theta), Sigma)``.

    Parameters
    ----------
    data:
        Observed data vector ``y``.
    covariance:
        Scalar (isotropic), vector (diagonal) or full SPD observation
        covariance ``Sigma``.
    unphysical_log_likelihood:
        Log likelihood assigned when the prediction is non-finite or the
        forward model raised :class:`UnphysicalModelOutput`; defaults to a very
        negative (but finite) value mirroring the paper's "almost zero
        likelihood" treatment.
    """

    def __init__(
        self,
        data: np.ndarray,
        covariance: np.ndarray | float,
        unphysical_log_likelihood: float = -1.0e8,
    ) -> None:
        self._data = np.atleast_1d(np.asarray(data, dtype=float)).ravel()
        dim = self._data.shape[0]
        cov = np.asarray(covariance, dtype=float)
        if cov.ndim == 0:
            if cov <= 0:
                raise ValueError("covariance must be positive")
            self._diag = np.full(dim, float(cov))
            self._full_cov: np.ndarray | None = None
        elif cov.ndim == 1:
            diag = np.broadcast_to(cov, (dim,)).astype(float)
            if np.any(diag <= 0):
                raise ValueError("diagonal covariance entries must be positive")
            self._diag = diag.copy()
            self._full_cov = None
        else:
            if cov.shape != (dim, dim):
                raise ValueError(
                    f"covariance shape {cov.shape} incompatible with data dim {dim}"
                )
            self._full_cov = 0.5 * (cov + cov.T)
            self._diag = np.diag(self._full_cov).copy()
            self._chol = np.linalg.cholesky(self._full_cov)
            self._log_det = 2.0 * float(np.sum(np.log(np.diag(self._chol))))
        if self._full_cov is None:
            self._log_det = float(np.sum(np.log(self._diag)))
        self._unphysical = float(unphysical_log_likelihood)

    @property
    def data(self) -> np.ndarray:
        """The observation vector."""
        return self._data.copy()

    @property
    def dim(self) -> int:
        """Number of observations."""
        return self._data.shape[0]

    @property
    def covariance_diagonal(self) -> np.ndarray:
        """Diagonal of the observation covariance."""
        return self._diag.copy()

    @property
    def unphysical_log_likelihood(self) -> float:
        """Log-likelihood value assigned to unphysical predictions."""
        return self._unphysical

    def log_likelihood(self, prediction: np.ndarray) -> float:
        pred = float_vector(prediction)
        if pred.shape[0] != self.dim:
            raise ValueError(
                f"prediction dimension {pred.shape[0]} does not match data dimension {self.dim}"
            )
        if not np.isfinite(pred).all():
            return self._unphysical
        resid = pred - self._data
        if self._full_cov is None:
            quad = float(np.sum(resid * resid / self._diag))
        else:
            alpha = np.linalg.solve(self._chol, resid)
            quad = float(alpha @ alpha)
        return -0.5 * (quad + self._log_det + self.dim * _LOG_2PI)

    def log_likelihood_batch(self, predictions: np.ndarray) -> np.ndarray:
        """Log likelihoods of an ``(n, dim)`` block of predictions.

        Rows with non-finite entries receive the unphysical floor value,
        matching the scalar path.
        """
        preds = np.atleast_2d(np.asarray(predictions, dtype=float))
        if preds.shape[1] != self.dim:
            raise ValueError(
                f"prediction dimension {preds.shape[1]} does not match data dimension {self.dim}"
            )
        finite = np.all(np.isfinite(preds), axis=1)
        resid = np.where(finite[:, None], preds - self._data, 0.0)
        if self._full_cov is None:
            quad = np.sum(resid * resid / self._diag, axis=1)
        else:
            alpha = np.linalg.solve(self._chol, resid.T)
            quad = np.sum(alpha * alpha, axis=0)
        values = -0.5 * (quad + self._log_det + self.dim * _LOG_2PI)
        return np.where(finite, values, self._unphysical)

    def misfit(self, prediction: np.ndarray) -> float:
        """Covariance-weighted squared misfit (the quadratic form only)."""
        resid = float_vector(prediction) - self._data
        if self._full_cov is None:
            return float(np.sum(resid * resid / self._diag))
        alpha = np.linalg.solve(self._chol, resid)
        return float(alpha @ alpha)

    def with_data(self, data: np.ndarray) -> "GaussianLikelihood":
        """Return a copy of this likelihood with new observations."""
        cov: np.ndarray | float
        cov = self._full_cov if self._full_cov is not None else self._diag
        return GaussianLikelihood(data, cov, self._unphysical)


def likelihood_from_forward_model(
    likelihood: Likelihood,
    forward: Callable[[np.ndarray], np.ndarray],
) -> Callable[[np.ndarray], float]:
    """Compose a likelihood with a forward model into ``theta -> log L(y | theta)``.

    Any :class:`UnphysicalModelOutput` raised by ``forward`` is converted into
    the likelihood's unphysical floor value when available, or ``-inf``.
    """

    def log_likelihood(theta: np.ndarray) -> float:
        try:
            prediction = forward(theta)
        except UnphysicalModelOutput:
            if isinstance(likelihood, GaussianLikelihood):
                return likelihood.unphysical_log_likelihood
            return -math.inf
        return likelihood.log_likelihood(prediction)

    return log_likelihood
