"""The duration of one forward-model evaluation per level.

The paper reports mean evaluation times per level (Table 3 for the Poisson
application, Section 5.2 for the tsunami) and stresses that the tsunami run
times vary widely because the model's time step depends on the uncertain
parameters.  :class:`CostModel` covers both: fixed per-level means, and
log-normal draws around them with a coefficient of variation ``cv``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = ["CostModel", "POISSON_PAPER_COSTS", "TSUNAMI_PAPER_COSTS"]

#: Mean per-evaluation run times reported in the paper (seconds).
POISSON_PAPER_COSTS = (3.35e-3, 45.64e-3, 931.81e-3)  # Table 3 (t_l given in ms)
TSUNAMI_PAPER_COSTS = (7.38, 97.3, 438.1)  # Section 5.2


@dataclass(frozen=True)
class CostModel:
    """Per-level evaluation times: ``means`` (coarse to fine) and their ``cv``.

    Levels past the last entry cost as much as the last entry.  With
    ``cv == 0`` every evaluation takes exactly its level's mean; otherwise
    durations are log-normal with that mean and coefficient of variation.
    """

    means: Sequence[float]
    cv: float = 0.0
    _sigma: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        means = tuple(float(m) for m in self.means)
        if not means or any(m <= 0 for m in means):
            raise ValueError("means must be positive")
        if self.cv < 0:
            raise ValueError("cv must be non-negative")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "cv", float(self.cv))
        object.__setattr__(self, "_sigma", float(np.sqrt(np.log(1.0 + self.cv**2))))

    def mean(self, level: int) -> float:
        """Mean evaluation time on ``level``."""
        return self.means[min(level, len(self.means) - 1)]

    def sample(self, level: int, rng: np.random.Generator) -> float:
        """One evaluation time on ``level``; draws from ``rng`` only if ``cv > 0``."""
        mean = self.mean(level)
        if self.cv == 0:
            return mean
        mu = np.log(mean) - 0.5 * self._sigma**2
        return float(rng.lognormal(mean=mu, sigma=self._sigma))
