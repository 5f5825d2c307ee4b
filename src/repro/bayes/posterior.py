"""Posterior density composition.

``log posterior = log likelihood + log prior`` (up to the evidence constant,
which MCMC never needs).  :class:`Posterior` also memoises the most recent
forward-model evaluation so that the quantity of interest can be computed
without re-solving the PDE — mirroring the paper's observation that QOI
evaluations should be skipped for rejected samples.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.bayes.distributions import Density
from repro.bayes.likelihood import Likelihood, UnphysicalModelOutput, GaussianLikelihood
from repro.utils.array_api import float_vector

__all__ = ["Posterior"]


class Posterior:
    r"""Bayesian posterior ``nu(theta) \propto L(y | F(theta)) pi(theta)``.

    Parameters
    ----------
    prior:
        Prior density ``pi``.
    likelihood:
        Observation model ``L``.
    forward:
        Forward model ``F`` mapping a parameter vector to a prediction vector.
    qoi:
        Optional quantity-of-interest map.  It receives the parameter vector
        and, when available, the cached forward prediction, so QOIs derived
        from the model solution are free.
    """

    def __init__(
        self,
        prior: Density,
        likelihood: Likelihood,
        forward: Callable[[np.ndarray], np.ndarray],
        qoi: Callable[[np.ndarray, np.ndarray | None], np.ndarray] | None = None,
    ) -> None:
        self._prior = prior
        self._likelihood = likelihood
        self._forward = forward
        self._qoi = qoi
        self._evaluations = 0
        self._last_theta: np.ndarray | None = None
        self._last_prediction: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def prior(self) -> Density:
        """The prior density."""
        return self._prior

    @property
    def likelihood(self) -> Likelihood:
        """The likelihood."""
        return self._likelihood

    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self._prior.dim

    @property
    def num_forward_evaluations(self) -> int:
        """Number of forward-model evaluations performed so far."""
        return self._evaluations

    # ------------------------------------------------------------------
    def forward(self, theta: np.ndarray) -> np.ndarray:
        """Evaluate (and cache) the forward model at ``theta``."""
        theta = float_vector(theta)
        if self._is_last_theta(theta) and self._last_prediction is not None:
            return self._last_prediction
        prediction = float_vector(self._forward(theta))
        self._evaluations += 1
        self._last_theta = theta.copy()
        self._last_prediction = prediction
        return prediction

    def _is_last_theta(self, theta: np.ndarray) -> bool:
        """Whether ``theta`` (a float vector) equals the cached parameter."""
        last = self._last_theta
        return last is not None and last.shape == theta.shape and bool((last == theta).all())

    def log_prior(self, theta: np.ndarray) -> float:
        """Log prior density."""
        return self._prior.log_density(theta)

    def log_likelihood(self, theta: np.ndarray) -> float:
        """Log likelihood (handles unphysical forward-model outputs)."""
        try:
            prediction = self.forward(theta)
        except UnphysicalModelOutput:
            if isinstance(self._likelihood, GaussianLikelihood):
                return self._likelihood.unphysical_log_likelihood
            return -math.inf
        return self._likelihood.log_likelihood(prediction)

    def log_density(self, theta: np.ndarray) -> float:
        """Unnormalised log posterior density."""
        lp = self.log_prior(theta)
        if not math.isfinite(lp):
            return -math.inf
        return lp + self.log_likelihood(theta)

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Unnormalised log posterior of an ``(n, dim)`` parameter block.

        Uses the vectorized fast paths of the prior (``log_density_batch``),
        the forward model (``forward_batch``) and the likelihood
        (``log_likelihood_batch``) where they exist, falling back to the
        scalar path per row otherwise.  Forward models exposing a
        ``physical_mask`` (e.g. the tsunami model, whose sources can land on
        dry ground) have their unphysical rows assigned the likelihood's
        unphysical value directly, so one bad row never forces the whole
        block off the batch path.
        """
        block = np.atleast_2d(np.asarray(thetas, dtype=float))
        forward_batch = getattr(self._forward, "forward_batch", None)
        if forward_batch is None:
            return np.array([self.log_density(theta) for theta in block], dtype=float)

        prior_batch = getattr(self._prior, "log_density_batch", None)
        if prior_batch is not None:
            log_priors = np.asarray(prior_batch(block), dtype=float)
        else:
            log_priors = np.array(
                [self._prior.log_density(theta) for theta in block], dtype=float
            )

        values = np.full(block.shape[0], -math.inf)
        supported = np.isfinite(log_priors)

        physical_mask = getattr(self._forward, "physical_mask", None)
        if physical_mask is not None:
            physical = np.asarray(physical_mask(block), dtype=bool).ravel()
            if physical.shape[0] != block.shape[0]:
                raise ValueError(
                    f"physical_mask returned {physical.shape[0]} entries for "
                    f"{block.shape[0]} parameter vectors"
                )
            unphysical = supported & ~physical
            if np.any(unphysical):
                # Mirrors the scalar path: "almost zero" Gaussian likelihood
                # for unphysical outputs, -inf for other likelihood types.
                if isinstance(self._likelihood, GaussianLikelihood):
                    values[unphysical] = (
                        log_priors[unphysical]
                        + self._likelihood.unphysical_log_likelihood
                    )
            supported = supported & physical

        if not np.any(supported):
            return values
        num_supported = int(np.count_nonzero(supported))
        try:
            predictions = np.asarray(forward_batch(block[supported]), dtype=float)
        except UnphysicalModelOutput:
            # A whole-batch failure cannot be attributed to rows; fall back to
            # the scalar path, which handles unphysical outputs per parameter.
            return np.array([self.log_density(theta) for theta in block], dtype=float)
        if predictions.ndim == 1:
            # Either one scalar observation per row, or a single prediction row.
            predictions = (
                predictions.reshape(1, -1)
                if num_supported == 1
                else predictions.reshape(-1, 1)
            )
        if predictions.shape[0] != num_supported:
            raise ValueError(
                f"forward_batch returned {predictions.shape[0]} prediction rows "
                f"for {num_supported} parameter vectors"
            )
        self._evaluations += num_supported
        likelihood_batch = getattr(self._likelihood, "log_likelihood_batch", None)
        if likelihood_batch is not None:
            log_likelihoods = np.asarray(likelihood_batch(predictions), dtype=float)
        else:
            log_likelihoods = np.array(
                [self._likelihood.log_likelihood(pred) for pred in predictions],
                dtype=float,
            )
        values[supported] = log_priors[supported] + log_likelihoods
        return values

    def qoi(self, theta: np.ndarray) -> np.ndarray:
        """Quantity of interest at ``theta``.

        Defaults to the parameter itself (the tsunami application's choice)
        when no QOI map was supplied.
        """
        theta = float_vector(theta)
        if self._qoi is None:
            return theta.copy()
        prediction = self._last_prediction if self._is_last_theta(theta) else None
        return float_vector(self._qoi(theta, prediction))

    def __call__(self, theta: np.ndarray) -> float:
        return self.log_density(theta)
