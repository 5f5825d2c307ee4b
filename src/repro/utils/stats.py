"""Streaming statistics and MCMC diagnostics.

Provides the numerical kernels behind sample collections and the multilevel
estimator:

* :class:`RunningMoments` — Welford/Chan online mean & covariance updates,
  mergeable across parallel collectors.
* :class:`WeightedRunningMoments` — the weighted variant used when samples
  carry multiplicities (e.g. rejected MCMC proposals repeat the previous
  state).
* :func:`autocorrelation`, :func:`integrated_autocorrelation_time`,
  :func:`effective_sample_size` — standard chain diagnostics (Sokal-style
  adaptive windowing).
* :func:`batch_means_variance` — estimator variance via non-overlapping batch
  means, robust for correlated samples.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np
# numpy 2 would otherwise import this on the first autocorrelation, inside a timed run
import numpy.fft  # noqa: F401

__all__ = [
    "RunningMoments",
    "WeightedRunningMoments",
    "autocorrelation",
    "integrated_autocorrelation_time",
    "effective_sample_size",
    "batch_means_variance",
]


class RunningMoments:
    """Online mean/variance/covariance accumulator (Welford's algorithm).

    Supports vector-valued samples, merging of independently accumulated
    instances (parallel collectors), and exact results identical to the
    two-pass formulas up to floating point round-off.

    Parameters
    ----------
    dim:
        Dimension of the samples.  If ``None`` it is inferred from the first
        :meth:`push`.
    track_covariance:
        If True, the full sample covariance matrix is accumulated (O(dim^2)
        memory); otherwise only per-component variances.
    """

    def __init__(self, dim: int | None = None, track_covariance: bool = False) -> None:
        self._dim = dim
        self._track_cov = track_covariance
        self._count = 0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None
        self._cov_m2: np.ndarray | None = None
        if dim is not None:
            self._allocate(dim)

    def _allocate(self, dim: int) -> None:
        self._dim = dim
        self._mean = np.zeros(dim)
        self._m2 = np.zeros(dim)
        if self._track_cov:
            self._cov_m2 = np.zeros((dim, dim))

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of samples accumulated so far."""
        return self._count

    @property
    def dim(self) -> int | None:
        """Sample dimension (``None`` until the first push)."""
        return self._dim

    def push(self, sample: np.ndarray | float) -> None:
        """Accumulate one sample."""
        x = np.atleast_1d(np.asarray(sample, dtype=float)).ravel()
        if self._mean is None:
            self._allocate(x.shape[0])
        if x.shape[0] != self._dim:
            raise ValueError(f"expected dimension {self._dim}, got {x.shape[0]}")
        self._count += 1
        delta = x - self._mean
        self._mean += delta / self._count
        delta2 = x - self._mean
        self._m2 += delta * delta2
        if self._track_cov:
            self._cov_m2 += np.outer(delta, delta2)

    def extend(self, samples: Iterable[np.ndarray]) -> None:
        """Accumulate an iterable of samples."""
        for sample in samples:
            self.push(sample)

    def merge(self, other: "RunningMoments") -> "RunningMoments":
        """Merge another accumulator into this one (Chan et al. formula)."""
        if other._count == 0:
            return self
        if self._count == 0:
            self._dim = other._dim
            self._track_cov = self._track_cov or other._track_cov
            self._count = other._count
            self._mean = None if other._mean is None else other._mean.copy()
            self._m2 = None if other._m2 is None else other._m2.copy()
            self._cov_m2 = None if other._cov_m2 is None else other._cov_m2.copy()
            return self
        if self._dim != other._dim:
            raise ValueError("cannot merge accumulators of different dimension")
        n_a, n_b = self._count, other._count
        n = n_a + n_b
        delta = other._mean - self._mean
        mean = self._mean + delta * (n_b / n)
        m2 = self._m2 + other._m2 + delta**2 * (n_a * n_b / n)
        if self._track_cov and other._cov_m2 is not None and self._cov_m2 is not None:
            self._cov_m2 = (
                self._cov_m2 + other._cov_m2 + np.outer(delta, delta) * (n_a * n_b / n)
            )
        self._count, self._mean, self._m2 = n, mean, m2
        return self

    # ------------------------------------------------------------------
    def mean(self) -> np.ndarray:
        """Sample mean (zeros if empty)."""
        if self._mean is None:
            return np.zeros(0)
        return self._mean.copy()

    def variance(self, ddof: int = 1) -> np.ndarray:
        """Per-component sample variance."""
        if self._m2 is None or self._count <= ddof:
            return np.zeros(self._dim or 0)
        return self._m2 / (self._count - ddof)

    def std(self, ddof: int = 1) -> np.ndarray:
        """Per-component sample standard deviation."""
        return np.sqrt(self.variance(ddof=ddof))

    def covariance(self, ddof: int = 1) -> np.ndarray:
        """Full sample covariance (requires ``track_covariance=True``)."""
        if not self._track_cov:
            raise RuntimeError("covariance tracking was not enabled")
        if self._cov_m2 is None or self._count <= ddof:
            return np.zeros((self._dim or 0, self._dim or 0))
        return self._cov_m2 / (self._count - ddof)

    def standard_error(self) -> np.ndarray:
        """Naive (uncorrelated-sample) standard error of the mean."""
        if self._count == 0:
            return np.zeros(self._dim or 0)
        return self.std() / math.sqrt(self._count)


class WeightedRunningMoments:
    """Weighted online mean/variance accumulator.

    Used when samples carry integer multiplicities (repeated MCMC states) or
    real weights (importance corrections).  Reports both the weighted mean and
    the reliability-weighted variance.
    """

    def __init__(self, dim: int | None = None) -> None:
        self._dim = dim
        self._wsum = 0.0
        self._wsum2 = 0.0
        self._mean: np.ndarray | None = None
        self._m2: np.ndarray | None = None
        if dim is not None:
            self._mean = np.zeros(dim)
            self._m2 = np.zeros(dim)

    @property
    def weight_sum(self) -> float:
        """Total accumulated weight."""
        return self._wsum

    def push(self, sample: np.ndarray | float, weight: float = 1.0) -> None:
        """Accumulate one sample with the given non-negative weight."""
        if weight < 0:
            raise ValueError("weights must be non-negative")
        if weight == 0:
            return
        x = np.atleast_1d(np.asarray(sample, dtype=float)).ravel()
        if self._mean is None:
            self._dim = x.shape[0]
            self._mean = np.zeros(self._dim)
            self._m2 = np.zeros(self._dim)
        self._wsum += weight
        self._wsum2 += weight * weight
        delta = x - self._mean
        r = weight / self._wsum
        self._mean += delta * r
        self._m2 += weight * delta * (x - self._mean)

    def merge(self, other: "WeightedRunningMoments") -> "WeightedRunningMoments":
        """Merge another accumulator into this one (weighted Chan formula)."""
        if other._wsum == 0:
            return self
        if self._wsum == 0:
            self._dim = other._dim
            self._wsum = other._wsum
            self._wsum2 = other._wsum2
            self._mean = None if other._mean is None else other._mean.copy()
            self._m2 = None if other._m2 is None else other._m2.copy()
            return self
        if self._dim != other._dim:
            raise ValueError("cannot merge accumulators of different dimension")
        w_a, w_b = self._wsum, other._wsum
        w = w_a + w_b
        delta = other._mean - self._mean
        self._mean = self._mean + delta * (w_b / w)
        self._m2 = self._m2 + other._m2 + delta**2 * (w_a * w_b / w)
        self._wsum = w
        self._wsum2 += other._wsum2
        return self

    def mean(self) -> np.ndarray:
        """Weighted mean."""
        if self._mean is None:
            return np.zeros(0)
        return self._mean.copy()

    def variance(self) -> np.ndarray:
        """Reliability-weighted sample variance."""
        if self._m2 is None or self._wsum == 0:
            return np.zeros(self._dim or 0)
        denom = self._wsum - self._wsum2 / self._wsum
        if denom <= 0:
            return np.zeros(self._dim or 0)
        return self._m2 / denom


def autocorrelation(series: np.ndarray, max_lag: int | None = None) -> np.ndarray:
    """Normalised autocorrelation function of a 1-D series via FFT.

    Parameters
    ----------
    series:
        One-dimensional array of chain values.
    max_lag:
        Largest lag to return (defaults to ``len(series) - 1``).

    Returns
    -------
    numpy.ndarray
        ``rho[k]`` for ``k = 0 .. max_lag`` with ``rho[0] == 1``.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.shape[0]
    if n < 2:
        return np.ones(1)
    if max_lag is None:
        max_lag = n - 1
    max_lag = min(max_lag, n - 1)
    x = x - x.mean()
    # Zero-pad to the next power of two for FFT efficiency.
    nfft = 1 << (2 * n - 1).bit_length()
    fx = np.fft.rfft(x, nfft)
    acov = np.fft.irfft(fx * np.conj(fx), nfft)[: max_lag + 1].real
    acov /= n
    if acov[0] <= 0:
        return np.concatenate([[1.0], np.zeros(max_lag)])
    return acov / acov[0]


def integrated_autocorrelation_time(
    series: np.ndarray, window_factor: float = 5.0, max_lag: int | None = None
) -> float:
    """Integrated autocorrelation time with Sokal's adaptive window.

    ``tau = 1 + 2 * sum_k rho(k)`` where the sum is truncated at the smallest
    ``M`` such that ``M >= window_factor * tau(M)``.  For i.i.d. samples this
    returns approximately 1.
    """
    x = np.asarray(series, dtype=float).ravel()
    n = x.shape[0]
    if n < 4 or np.allclose(x, x[0]):
        return 1.0
    rho = autocorrelation(x, max_lag=max_lag)
    tau = 1.0
    for m in range(1, len(rho)):
        tau += 2.0 * rho[m]
        if m >= window_factor * tau:
            break
    return float(max(tau, 1.0))


def effective_sample_size(series: np.ndarray) -> float:
    """Effective sample size ``N / tau`` of a (possibly multivariate) chain.

    For multivariate input the minimum component-wise ESS is returned, which
    is the conservative choice used when sizing multilevel sample counts.
    """
    x = np.asarray(series, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n == 0:
        return 0.0
    ess = []
    for j in range(x.shape[1]):
        tau = integrated_autocorrelation_time(x[:, j])
        ess.append(n / tau)
    return float(min(ess))


def batch_means_variance(series: np.ndarray, num_batches: int = 20) -> float | np.ndarray:
    """Variance of the sample mean estimated by non-overlapping batch means.

    Robust to autocorrelation; used for reporting Monte Carlo errors of
    per-level correction terms.  An ``(n, q)`` block gives its ``q`` column
    values in one pass, each bitwise equal to the single-series call: the
    columns become contiguous rows, so every reduction runs as it would alone.
    """
    x = np.asarray(series, dtype=float)
    columns = x.ndim == 2
    rows = np.ascontiguousarray(x.T) if columns else x.reshape(1, -1)
    n = rows.shape[1]
    if n < 2:
        return np.zeros(rows.shape[0]) if columns else 0.0
    num_batches = max(2, min(num_batches, n // 2)) if n >= 4 else 2
    batch_size = n // num_batches
    trimmed = rows[:, : batch_size * num_batches].reshape(-1, num_batches, batch_size)
    variance = np.var(trimmed.mean(axis=2), axis=1, ddof=1) / num_batches
    return variance if columns else float(variance[0])
