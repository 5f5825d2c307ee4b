"""Scalar evaluation: one model run per request, in the calling process."""

from __future__ import annotations

from time import perf_counter
from typing import Callable

import numpy as np

from repro.evaluation.base import Evaluator, EvaluatorStats

__all__ = ["InProcessEvaluator"]


class InProcessEvaluator(Evaluator):
    """Evaluate single parameter vectors directly in the calling process.

    Every request runs the problem's implementation callable synchronously,
    with per-call wall time and cost units recorded.  Each request is one
    frame that runs the model and updates the
    :class:`~repro.evaluation.base.EvaluatorStats` counters in place.

    Parameters
    ----------
    log_density_fn, qoi_fn:
        Scalar (one parameter vector in, one value out) implementations.
    cost_fn:
        Returns the nominal cost units of one evaluation (the problem's
        ``evaluation_cost``).
    """

    def __init__(
        self,
        log_density_fn: Callable[[np.ndarray], float],
        qoi_fn: Callable[[np.ndarray], np.ndarray],
        cost_fn: Callable[[], float],
    ) -> None:
        self.stats = EvaluatorStats()
        self._log_density_fn = log_density_fn
        self._qoi_fn = qoi_fn
        self._cost_fn = cost_fn

    def log_density(self, parameters: np.ndarray) -> float:
        start = perf_counter()
        value = float(self._log_density_fn(parameters))
        elapsed = perf_counter() - start
        stats = self.stats
        stats.log_density_evaluations += 1
        stats.wall_time += elapsed
        stats.cost_units += float(self._cost_fn())
        return value

    def qoi(self, parameters: np.ndarray) -> np.ndarray:
        start = perf_counter()
        value = np.asarray(self._qoi_fn(parameters), dtype=float)
        elapsed = perf_counter() - start
        stats = self.stats
        stats.qoi_evaluations += 1
        stats.wall_time += elapsed
        stats.cost_units += float(self._cost_fn())
        return value
