"""Estimators assembled from chain output.

* :class:`MultilevelEstimate` — the telescoping-sum estimator (eq. 2 of the
  paper) built from per-level :class:`CorrectionCollection` objects, with
  per-level variances, costs and the resulting error decomposition.
* :class:`MonteCarloEstimate` — single-level (MH)MCMC estimate used as the
  baseline in cost-accuracy comparisons.
* :func:`optimal_sample_allocation` — the classical MLMC sample-allocation
  formula ``N_l ∝ sqrt(V_l / C_l)`` used by adaptive drivers and the
  complexity benchmark.
* :func:`cost_capped_allocation` — the dual formulation: the
  variance-minimising sample counts whose total cost stays within a budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.sample_collection import CorrectionCollection, SampleCollection
from repro.utils.stats import batch_means_variance

__all__ = [
    "LevelContribution",
    "MultilevelEstimate",
    "MonteCarloEstimate",
    "cost_capped_allocation",
    "optimal_sample_allocation",
]


@dataclass
class LevelContribution:
    """One term of the telescoping sum with its statistics.

    Attributes
    ----------
    level:
        Level index ``l``.
    mean:
        Monte Carlo estimate of ``E[Q_0]`` (level 0) or ``E[Q_l - Q_{l-1}]``.
    variance:
        Per-component sample variance of the correction contributions
        (``V[Q_0]`` or ``V[Q_l - Q_{l-1}]`` — the quantities in Tables 3/4).
    num_samples:
        Number of contributing samples ``N_l``.
    cost_per_sample:
        Cost (seconds or model work units) of one level-``l`` sample.
    estimator_variance:
        Batch-means estimate of the variance of the *mean* (accounts for
        autocorrelation); per component.
    """

    level: int
    mean: np.ndarray
    variance: np.ndarray
    num_samples: int
    cost_per_sample: float = 0.0
    estimator_variance: np.ndarray = field(default_factory=lambda: np.zeros(0))

    @property
    def total_cost(self) -> float:
        """Total cost spent on this level."""
        return self.cost_per_sample * self.num_samples


@dataclass
class MultilevelEstimate:
    """The assembled multilevel estimator."""

    contributions: list[LevelContribution]

    @property
    def num_levels(self) -> int:
        """Number of levels."""
        return len(self.contributions)

    def _require_no_empty_levels(self) -> None:
        """Reject summing a mix of empty and non-empty level contributions.

        An empty level's mean is a zero-length array, and NumPy broadcasting
        makes ``np.zeros(0) + np.zeros(d)`` collapse to shape ``(0,)`` — one
        level without samples would silently discard every other level's
        contribution.  (All levels empty keeps the legacy empty-estimate
        behaviour, since there is nothing to corrupt.)
        """
        empty = [c.level for c in self.contributions if c.mean.size == 0]
        if empty and len(empty) < len(self.contributions):
            raise ValueError(
                f"level(s) {empty} contributed no samples (empty mean); summing "
                "the telescoping estimator would silently collapse to an empty "
                "array and discard the non-empty levels. Collect samples for "
                "every level or drop the empty contributions explicitly."
            )

    @property
    def mean(self) -> np.ndarray:
        """The telescoping-sum estimate ``E[Q_L]`` (eq. 2)."""
        if not self.contributions:
            return np.zeros(0)
        self._require_no_empty_levels()
        total = np.zeros_like(self.contributions[0].mean)
        for contribution in self.contributions:
            total = total + contribution.mean
        return total

    def cumulative_means(self) -> list[np.ndarray]:
        """Partial sums ``E[Q_0] + sum_{k<=l} E[Q_k - Q_{k-1}]`` per level (Table 4)."""
        if not self.contributions:
            return []
        self._require_no_empty_levels()
        partial = np.zeros_like(self.contributions[0].mean)
        result = []
        for contribution in self.contributions:
            partial = partial + contribution.mean
            result.append(partial.copy())
        return result

    @property
    def total_cost(self) -> float:
        """Total cost across levels."""
        return sum(c.total_cost for c in self.contributions)

    def estimator_variance(self) -> np.ndarray:
        """Variance of the multilevel estimator (sum of per-level estimator variances)."""
        total = None
        for contribution in self.contributions:
            var = contribution.estimator_variance
            if var.size == 0:
                var = contribution.variance / max(contribution.num_samples, 1)
            total = var if total is None else total + var
        return total if total is not None else np.zeros(0)

    def mean_squared_error(self, reference: np.ndarray) -> float:
        """Mean squared error of the estimate against a reference value."""
        diff = self.mean - np.asarray(reference, dtype=float).ravel()
        return float(np.mean(diff**2))

    def summary(self) -> list[dict[str, float | int]]:
        """Per-level summary rows (the layout of Tables 3 and 4)."""
        rows = []
        for contribution in self.contributions:
            rows.append(
                {
                    "level": contribution.level,
                    "num_samples": contribution.num_samples,
                    "cost_per_sample": contribution.cost_per_sample,
                    "mean_norm": float(np.linalg.norm(contribution.mean)),
                    "variance_mean": float(np.mean(contribution.variance))
                    if contribution.variance.size
                    else 0.0,
                }
            )
        return rows

    # ------------------------------------------------------------------
    @staticmethod
    def from_corrections(
        corrections: list[CorrectionCollection],
        costs_per_sample: list[float] | None = None,
    ) -> "MultilevelEstimate":
        """Assemble the estimator from per-level correction collections."""
        costs = costs_per_sample or [0.0] * len(corrections)
        contributions = []
        for level, collection in enumerate(corrections):
            diffs = collection.differences()
            est_var = (
                batch_means_variance(diffs)
                if diffs.ndim == 2 and diffs.shape[0] > 1
                else np.zeros(0)
            )
            contributions.append(
                LevelContribution(
                    level=level,
                    mean=collection.mean(),
                    variance=collection.variance(),
                    num_samples=len(collection),
                    cost_per_sample=float(costs[level]) if level < len(costs) else 0.0,
                    estimator_variance=est_var,
                )
            )
        return MultilevelEstimate(contributions=contributions)


@dataclass
class MonteCarloEstimate:
    """Single-level MCMC estimate (the baseline the paper compares against)."""

    mean: np.ndarray
    variance: np.ndarray
    num_samples: int
    cost_per_sample: float = 0.0
    ess: float = 0.0

    @property
    def total_cost(self) -> float:
        """Total cost of the run."""
        return self.cost_per_sample * self.num_samples

    def mean_squared_error(self, reference: np.ndarray) -> float:
        """Mean squared error against a reference value."""
        diff = self.mean - np.asarray(reference, dtype=float).ravel()
        return float(np.mean(diff**2))

    @staticmethod
    def from_samples(
        samples: SampleCollection, cost_per_sample: float = 0.0, use_qoi: bool = True
    ) -> "MonteCarloEstimate":
        """Build the estimate from a sample collection."""
        data = samples.qois() if use_qoi else samples.parameters()
        mean = data.mean(axis=0) if data.size else np.zeros(0)
        variance = data.var(axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(mean.shape)
        return MonteCarloEstimate(
            mean=mean,
            variance=variance,
            num_samples=data.shape[0],
            cost_per_sample=cost_per_sample,
            ess=samples.ess(use_qoi=use_qoi) if data.shape[0] >= 4 else float(data.shape[0]),
        )


def optimal_sample_allocation(
    variances: np.ndarray,
    costs: np.ndarray,
    target_variance: float,
) -> np.ndarray:
    """Optimal MLMC sample counts ``N_l`` for a target estimator variance.

    ``N_l = ceil( (1/eps^2) sqrt(V_l / C_l) * sum_k sqrt(V_k C_k) )`` — the
    standard Lagrange-multiplier solution minimising total cost subject to the
    sum of per-level estimator variances not exceeding ``target_variance``.
    """
    variances = np.asarray(variances, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if variances.shape != costs.shape:
        raise ValueError("variances and costs must have the same shape")
    if target_variance <= 0:
        raise ValueError("target variance must be positive")
    if np.any(costs <= 0):
        raise ValueError("costs must be positive")
    total = float(np.sum(np.sqrt(variances * costs)))
    counts = np.sqrt(variances / costs) * total / target_variance
    return np.maximum(1, np.ceil(counts)).astype(int)


def cost_capped_allocation(
    variances: np.ndarray,
    costs: np.ndarray,
    cost_cap: float,
) -> np.ndarray:
    """Variance-minimising MLMC sample counts for a total-cost budget.

    The Lagrange dual of :func:`optimal_sample_allocation`: instead of the
    cheapest plan achieving a variance target, the lowest-variance plan whose
    total cost ``sum_l N_l C_l`` stays within ``cost_cap`` —
    ``N_l = cost_cap * sqrt(V_l / C_l) / sum_k sqrt(V_k C_k)``.  Counts are
    floored (never rounded up) so the planned cost does not exceed the cap,
    with a minimum of one sample per level.
    """
    variances = np.asarray(variances, dtype=float)
    costs = np.asarray(costs, dtype=float)
    if variances.shape != costs.shape:
        raise ValueError("variances and costs must have the same shape")
    if cost_cap <= 0:
        raise ValueError("cost cap must be positive")
    if np.any(costs <= 0):
        raise ValueError("costs must be positive")
    total = float(np.sum(np.sqrt(variances * costs)))
    if total <= 0:
        # no variance signal at all: nothing to optimise, keep one per level
        return np.ones(variances.shape, dtype=int)
    counts = cost_cap * np.sqrt(variances / costs) / total
    return np.maximum(1, np.floor(counts)).astype(int)
