"""Probability densities used as priors and proposal building blocks.

All densities expose ``log_density(x)`` and ``sample(rng)``; Gaussian densities
additionally expose their Cholesky factor so proposals can reuse it.  Log
densities are unnormalised only where noted (MCMC only needs ratios, but
normalisation constants are kept where cheap so densities can double as exact
references in tests).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.utils.array_api import float_vector

__all__ = [
    "Density",
    "GaussianDensity",
    "UniformBoxDensity",
    "LogNormalDensity",
    "TruncatedGaussianDensity",
    "IndependentProductDensity",
]

_LOG_2PI = math.log(2.0 * math.pi)
_FLOAT64 = np.dtype(float)


class Density(ABC):
    """Abstract probability density on R^dim."""

    def __init__(self, dim: int) -> None:
        if dim <= 0:
            raise ValueError("dimension must be positive")
        self._dim = int(dim)

    @property
    def dim(self) -> int:
        """Dimension of the support."""
        return self._dim

    @abstractmethod
    def log_density(self, x: np.ndarray) -> float:
        """Log density at ``x`` (``-inf`` outside the support)."""

    @abstractmethod
    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """Draw one sample."""

    def sample_n(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` samples as an ``(n, dim)`` array."""
        return np.stack([self.sample(rng) for _ in range(n)])

    def __call__(self, x: np.ndarray) -> float:
        return self.log_density(x)

    def _check(self, x: np.ndarray) -> np.ndarray:
        # a float64 vector is used as it is (checked inline: once per density call)
        if not (type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64):
            x = float_vector(x)
        if x.shape[0] != self._dim:
            raise ValueError(f"expected dimension {self._dim}, got {x.shape[0]}")
        return x


class GaussianDensity(Density):
    """Multivariate normal ``N(mean, cov)``.

    Parameters
    ----------
    mean:
        Mean vector (or scalar broadcast over ``dim``).
    covariance:
        Either a scalar (isotropic), a 1-D array (diagonal), or a full SPD
        matrix.
    dim:
        Required when both ``mean`` and ``covariance`` are scalars.
    """

    def __init__(
        self,
        mean: np.ndarray | float,
        covariance: np.ndarray | float,
        dim: int | None = None,
    ) -> None:
        mean_arr = np.atleast_1d(np.asarray(mean, dtype=float))
        cov_arr = np.asarray(covariance, dtype=float)
        if dim is None:
            if mean_arr.size > 1:
                dim = mean_arr.size
            elif cov_arr.ndim >= 1 and cov_arr.shape[0] > 1:
                dim = cov_arr.shape[0]
            else:
                dim = mean_arr.size
        super().__init__(dim)
        self._mean = np.broadcast_to(mean_arr, (self.dim,)).astype(float).copy()

        if cov_arr.ndim == 0:
            if cov_arr <= 0:
                raise ValueError("covariance scalar must be positive")
            self._cov = np.eye(self.dim) * float(cov_arr)
        elif cov_arr.ndim == 1:
            if np.any(cov_arr <= 0):
                raise ValueError("diagonal covariance entries must be positive")
            self._cov = np.diag(np.broadcast_to(cov_arr, (self.dim,)).astype(float))
        else:
            if cov_arr.shape != (self.dim, self.dim):
                raise ValueError(
                    f"covariance shape {cov_arr.shape} incompatible with dim {self.dim}"
                )
            self._cov = 0.5 * (cov_arr + cov_arr.T)
        try:
            self._chol = np.linalg.cholesky(self._cov)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance matrix must be positive definite") from exc
        diag = np.diag(self._chol)
        self._log_det = 2.0 * float(np.sum(np.log(diag)))
        # A diagonal factor (isotropic or diagonal covariance) is applied
        # elementwise: ``d * z`` and ``r / d`` equal ``diag(d) @ z`` and
        # ``solve(diag(d), r)`` bitwise, as every row involves one nonzero entry.
        self._diag = diag.copy() if np.array_equal(self._chol, np.diag(diag)) else None

    @property
    def mean(self) -> np.ndarray:
        """Mean vector."""
        return self._mean.copy()

    @property
    def covariance(self) -> np.ndarray:
        """Covariance matrix."""
        return self._cov.copy()

    @property
    def cholesky(self) -> np.ndarray:
        """Lower-triangular Cholesky factor of the covariance."""
        return self._chol.copy()

    def apply_cholesky(self, z: np.ndarray) -> np.ndarray:
        """``L @ z`` for the Cholesky factor ``L`` of the covariance."""
        return self._chol @ z if self._diag is None else self._diag * z

    def solve_cholesky(self, r: np.ndarray) -> np.ndarray:
        """``L^{-1} r`` for the Cholesky factor ``L`` of the covariance."""
        return np.linalg.solve(self._chol, r) if self._diag is None else r / self._diag

    def log_density(self, x: np.ndarray) -> float:
        alpha = self.solve_cholesky(self._check(x) - self._mean)
        quad = float(alpha @ alpha)
        return -0.5 * (quad + self._log_det + self.dim * _LOG_2PI)

    def log_density_batch(self, x: np.ndarray) -> np.ndarray:
        """Log densities of an ``(n, dim)`` block of points in one solve."""
        points = np.atleast_2d(np.asarray(x, dtype=float))
        if points.shape[1] != self.dim:
            raise ValueError(f"expected dimension {self.dim}, got {points.shape[1]}")
        alpha = np.linalg.solve(self._chol, (points - self._mean).T)
        quad = np.sum(alpha * alpha, axis=0)
        return -0.5 * (quad + self._log_det + self.dim * _LOG_2PI)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._mean + self.apply_cholesky(rng.standard_normal(self.dim))


class UniformBoxDensity(Density):
    """Uniform density on an axis-aligned box ``[lower, upper]``.

    Used by the tsunami prior to cut off source locations too close to the
    domain boundary (paper, Fig. 3).
    """

    def __init__(self, lower: Sequence[float], upper: Sequence[float]) -> None:
        lower_arr = np.atleast_1d(np.asarray(lower, dtype=float))
        upper_arr = np.atleast_1d(np.asarray(upper, dtype=float))
        if lower_arr.shape != upper_arr.shape:
            raise ValueError("lower and upper bounds must have the same shape")
        if np.any(upper_arr <= lower_arr):
            raise ValueError("upper bounds must exceed lower bounds")
        super().__init__(lower_arr.size)
        self._lower = lower_arr
        self._upper = upper_arr
        self._log_volume = float(np.sum(np.log(upper_arr - lower_arr)))

    @property
    def lower(self) -> np.ndarray:
        """Lower corner of the box."""
        return self._lower.copy()

    @property
    def upper(self) -> np.ndarray:
        """Upper corner of the box."""
        return self._upper.copy()

    def contains(self, x: np.ndarray) -> bool:
        """Whether ``x`` lies in the box."""
        x = self._check(x)
        return bool(np.all(x >= self._lower) and np.all(x <= self._upper))

    def log_density(self, x: np.ndarray) -> float:
        return -self._log_volume if self.contains(x) else -math.inf

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return self._lower + rng.random(self.dim) * (self._upper - self._lower)


class LogNormalDensity(Density):
    """Independent log-normal density (componentwise ``exp`` of a Gaussian)."""

    def __init__(self, mu: np.ndarray | float, sigma: np.ndarray | float, dim: int | None = None) -> None:
        mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
        sigma_arr = np.atleast_1d(np.asarray(sigma, dtype=float))
        if dim is None:
            dim = max(mu_arr.size, sigma_arr.size)
        super().__init__(dim)
        self._mu = np.broadcast_to(mu_arr, (self.dim,)).astype(float).copy()
        self._sigma = np.broadcast_to(sigma_arr, (self.dim,)).astype(float).copy()
        if np.any(self._sigma <= 0):
            raise ValueError("sigma must be positive")

    def log_density(self, x: np.ndarray) -> float:
        x = self._check(x)
        if np.any(x <= 0):
            return -math.inf
        log_x = np.log(x)
        z = (log_x - self._mu) / self._sigma
        return float(
            -0.5 * np.sum(z * z)
            - np.sum(np.log(self._sigma))
            - np.sum(log_x)
            - 0.5 * self.dim * _LOG_2PI
        )

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.exp(self._mu + self._sigma * rng.standard_normal(self.dim))


class TruncatedGaussianDensity(Density):
    """Gaussian restricted to a box, sampled by rejection.

    The normalisation constant is not computed: the log density is the
    unnormalised Gaussian log density inside the box and ``-inf`` outside,
    which is sufficient for MCMC.
    """

    def __init__(
        self,
        gaussian: GaussianDensity,
        lower: Sequence[float],
        upper: Sequence[float],
        max_rejections: int = 10_000,
    ) -> None:
        super().__init__(gaussian.dim)
        self._gaussian = gaussian
        self._box = UniformBoxDensity(lower, upper)
        if self._box.dim != gaussian.dim:
            raise ValueError("bounds dimension must match the Gaussian dimension")
        self._max_rejections = int(max_rejections)

    @property
    def box(self) -> UniformBoxDensity:
        """The truncation box."""
        return self._box

    def log_density(self, x: np.ndarray) -> float:
        if not self._box.contains(np.asarray(x, dtype=float)):
            return -math.inf
        return self._gaussian.log_density(x)

    def log_density_batch(self, x: np.ndarray) -> np.ndarray:
        """Log densities of an ``(n, dim)`` block (``-inf`` outside the box)."""
        points = np.atleast_2d(np.asarray(x, dtype=float))
        values = self._gaussian.log_density_batch(points)
        inside = np.all(points >= self._box.lower, axis=1) & np.all(
            points <= self._box.upper, axis=1
        )
        return np.where(inside, values, -np.inf)

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        for _ in range(self._max_rejections):
            candidate = self._gaussian.sample(rng)
            if self._box.contains(candidate):
                return candidate
        raise RuntimeError(
            "rejection sampling from the truncated Gaussian failed; the box "
            "probability mass is too small"
        )


class IndependentProductDensity(Density):
    """Product of independent component densities over disjoint coordinate blocks."""

    def __init__(self, components: Sequence[Density]) -> None:
        if not components:
            raise ValueError("at least one component density is required")
        super().__init__(sum(c.dim for c in components))
        self._components = list(components)
        self._slices: list[slice] = []
        offset = 0
        for comp in self._components:
            self._slices.append(slice(offset, offset + comp.dim))
            offset += comp.dim

    @property
    def components(self) -> list[Density]:
        """The component densities."""
        return list(self._components)

    def log_density(self, x: np.ndarray) -> float:
        x = self._check(x)
        total = 0.0
        for comp, sl in zip(self._components, self._slices):
            value = comp.log_density(x[sl])
            if not np.isfinite(value):
                return -math.inf
            total += value
        return total

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        return np.concatenate([comp.sample(rng) for comp in self._components])
