"""Stationary covariance kernels for Gaussian random fields.

Kernels are functions of the separation vector ``r = x - y`` (stationarity).
They evaluate point pairs, assemble dense covariance matrices on point clouds
(for KL eigen-decompositions) and evaluate on lag grids (for circulant
embedding).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "CovarianceKernel",
    "ExponentialCovariance",
    "GaussianCovariance",
    "MaternCovariance",
    "SeparableExponentialCovariance",
]


class CovarianceKernel(ABC):
    """Abstract stationary covariance kernel ``C(r)`` with ``r = x - y``."""

    def __init__(self, variance: float, correlation_length: float) -> None:
        if variance <= 0:
            raise ValueError("variance must be positive")
        if correlation_length <= 0:
            raise ValueError("correlation length must be positive")
        self.variance = float(variance)
        self.correlation_length = float(correlation_length)

    @abstractmethod
    def evaluate_lag(self, lag: np.ndarray) -> np.ndarray:
        """Covariance for an array of separation vectors ``lag`` of shape (..., d)."""

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Covariance between point sets ``x`` (n, d) and ``y`` (m, d) -> (n, m)."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        y = np.atleast_2d(np.asarray(y, dtype=float))
        lag = x[:, None, :] - y[None, :, :]
        return self.evaluate_lag(lag)

    def matrix(self, points: np.ndarray) -> np.ndarray:
        """Dense covariance matrix on a point cloud (n, d)."""
        return self(points, points)

    def _distance(self, lag: np.ndarray) -> np.ndarray:
        lag = np.asarray(lag, dtype=float)
        if lag.ndim == 1:
            lag = lag[None, :]
        return np.sqrt(np.sum(lag * lag, axis=-1))


class ExponentialCovariance(CovarianceKernel):
    """Isotropic exponential covariance ``sigma^2 exp(-|r| / lambda)``.

    This is the Matern family with smoothness 1/2 and the standard choice for
    log-permeability fields in subsurface-flow benchmarks.
    """

    def evaluate_lag(self, lag: np.ndarray) -> np.ndarray:
        dist = self._distance(lag)
        return self.variance * np.exp(-dist / self.correlation_length)


class GaussianCovariance(CovarianceKernel):
    """Squared-exponential covariance ``sigma^2 exp(-|r|^2 / (2 lambda^2))``."""

    def evaluate_lag(self, lag: np.ndarray) -> np.ndarray:
        dist2 = np.sum(np.asarray(lag, dtype=float) ** 2, axis=-1)
        return self.variance * np.exp(-0.5 * dist2 / self.correlation_length**2)


class MaternCovariance(CovarianceKernel):
    """Matern covariance with smoothness parameter ``nu``.

    ``C(r) = sigma^2 * 2^(1-nu)/Gamma(nu) * (sqrt(2 nu) |r|/lambda)^nu
             * K_nu(sqrt(2 nu) |r|/lambda)``
    """

    def __init__(self, variance: float, correlation_length: float, nu: float = 1.5) -> None:
        super().__init__(variance, correlation_length)
        if nu <= 0:
            raise ValueError("smoothness nu must be positive")
        self.nu = float(nu)

    def evaluate_lag(self, lag: np.ndarray) -> np.ndarray:
        # imported here: no scenario uses this kernel, and scipy.special would
        # add about 50 ms to every Poisson run's import
        from scipy.special import gamma, kv

        dist = self._distance(lag)
        scaled = math.sqrt(2.0 * self.nu) * dist / self.correlation_length
        result = np.full_like(scaled, self.variance, dtype=float)
        positive = scaled > 0
        s = scaled[positive]
        coef = self.variance * (2.0 ** (1.0 - self.nu)) / gamma(self.nu)
        result[positive] = coef * (s**self.nu) * kv(self.nu, s)
        return result


class SeparableExponentialCovariance(CovarianceKernel):
    """Separable exponential covariance ``sigma^2 prod_i exp(-|r_i| / lambda)``.

    The tensor-product structure admits an analytic 1-D KL decomposition, which
    makes the truncated KL expansion of 2-D fields cheap: 2-D modes are tensor
    products of 1-D modes.  ``dune-randomfield``'s circulant-embedding
    generator targets exactly this family of stationary kernels.
    """

    def evaluate_lag(self, lag: np.ndarray) -> np.ndarray:
        lag = np.asarray(lag, dtype=float)
        if lag.ndim == 1:
            lag = lag[None, :]
        return self.variance * np.exp(
            -np.sum(np.abs(lag), axis=-1) / self.correlation_length
        )

    # -- analytic 1-D KL ----------------------------------------------------
    def kl_eigen_1d(self, num_modes: int, domain_length: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """1-D KL eigenvalues and frequencies on ``[0, L]`` for the exponential kernel.

        The eigenpairs of ``exp(-|x-y|/lambda)`` on an interval solve the
        transcendental equations

        ``(1/lambda - w tan(w L/2)) = 0``   (even modes) and
        ``(w + (1/lambda) tan(w L/2)) = 0`` (odd modes),

        with eigenvalues ``2 lambda / (1 + lambda^2 w^2)`` (scaled by the
        variance).  Returns ``(eigenvalues, frequencies)`` sorted by decreasing
        eigenvalue.
        """
        lam = self.correlation_length
        a = domain_length / 2.0
        c = 1.0 / lam

        def even_eq(w: float) -> float:
            return c - w * math.tan(w * a)

        def odd_eq(w: float) -> float:
            return w + c * math.tan(w * a)

        freqs: list[float] = []
        kinds: list[str] = []
        n_intervals = 2 * num_modes + 4
        for n in range(n_intervals):
            # Even roots live in ((n - 1/2) pi / a, (n + 1/2) pi / a) around n*pi/a.
            lo = (n * math.pi - math.pi / 2) / a + 1e-9
            hi = (n * math.pi + math.pi / 2) / a - 1e-9
            lo = max(lo, 1e-9)
            root = _bisect_root(even_eq, lo, hi)
            if root is not None:
                freqs.append(root)
                kinds.append("even")
            root = _bisect_root(odd_eq, lo, hi)
            if root is not None and root > 1e-8:
                freqs.append(root)
                kinds.append("odd")

        freqs_arr = np.array(freqs)
        eigvals = self.variance * 2.0 * c / (freqs_arr**2 + c**2)
        order = np.argsort(eigvals)[::-1][:num_modes]
        return eigvals[order], freqs_arr[order]


def _bisect_root(func, lo: float, hi: float, tol: float = 1e-12, max_iter: int = 200):
    """Robust bisection on ``[lo, hi]``; returns ``None`` when no sign change exists."""
    flo, fhi = func(lo), func(hi)
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        return None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = func(mid)
        if abs(fmid) < tol or (hi - lo) < tol:
            return mid
        if flo * fmid <= 0:
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)
