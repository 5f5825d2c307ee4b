"""Evaluator interface and shared evaluation statistics.

The MCMC stack never calls a forward model directly: every log-density or QOI
evaluation of an :class:`repro.core.problem.AbstractSamplingProblem` is routed
through its evaluator.  This mirrors the paper's decoupling of the sampler
from the forward model behind the narrow ``SamplingProblem`` interface
(Fig. 6).  Every evaluation is recorded into the evaluator's
:class:`EvaluatorStats`, which is where the sequential and parallel drivers
obtain their evaluation counts and cost accounting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

__all__ = ["EvaluatorStats", "Evaluator"]


@dataclass
class EvaluatorStats:
    """Aggregate statistics of one evaluator.

    ``log_density_evaluations`` / ``qoi_evaluations`` count model
    evaluations (one per parameter vector); ``batch_calls`` counts calls to
    the problem's vectorized log-density hook.
    """

    log_density_evaluations: int = 0
    qoi_evaluations: int = 0
    batch_calls: int = 0
    wall_time: float = 0.0
    cost_units: float = 0.0

    # ------------------------------------------------------------------
    def record(self, kind: str, wall_time: float, cost: float) -> None:
        """Fold one scalar evaluation into the counters, in place.

        Parameters
        ----------
        kind:
            ``"log_density"`` or ``"qoi"``.
        wall_time:
            Wall-clock seconds spent in model code (virtual seconds in the
            simulated-MPI world).
        cost:
            Nominal cost units of the evaluation.
        """
        if kind == "log_density":
            self.log_density_evaluations += 1
        elif kind == "qoi":
            self.qoi_evaluations += 1
        else:
            raise ValueError(f"unknown evaluation kind: {kind!r}")
        self.wall_time += float(wall_time)
        self.cost_units += float(cost)

    # ------------------------------------------------------------------
    def snapshot(self) -> "EvaluatorStats":
        """An independent copy of the current counters."""
        return EvaluatorStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, earlier: "EvaluatorStats") -> "EvaluatorStats":
        """Counters accumulated since an earlier :meth:`snapshot`."""
        return EvaluatorStats(
            **{
                f.name: getattr(self, f.name) - getattr(earlier, f.name)
                for f in fields(self)
            }
        )

    def merge(self, other: "EvaluatorStats") -> "EvaluatorStats":
        """Add another stats object into this one (returns ``self``)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def as_dict(self) -> dict[str, float | int]:
        """Plain-dictionary view (for tables and result objects)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class Evaluator(ABC):
    """The evaluation interface a sampling problem dispatches its model calls to.

    :class:`repro.evaluation.BatchEvaluator` is the one implementation; its
    :attr:`stats` hold the accounting of every call.
    """

    stats: EvaluatorStats

    @abstractmethod
    def log_density(self, parameters: np.ndarray) -> float:
        """Log density at one parameter vector."""

    @abstractmethod
    def qoi(self, parameters: np.ndarray) -> np.ndarray:
        """Quantity of interest at one parameter vector."""

    @abstractmethod
    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        """Log densities of an ``(n, dim)`` array of parameter vectors."""
