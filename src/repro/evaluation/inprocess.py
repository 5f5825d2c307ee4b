"""In-process evaluation backend (the reference behaviour)."""

from __future__ import annotations

from time import perf_counter

import numpy as np

from repro.evaluation.base import Evaluator

__all__ = ["InProcessEvaluator"]


class InProcessEvaluator(Evaluator):
    """Evaluate the model directly in the calling process.

    This is the default backend and reproduces the pre-subsystem behaviour of
    the sampling problems: every request runs the implementation callable
    synchronously, with per-call wall time and cost units recorded.  Each
    request is one frame that runs the model and updates the
    :class:`~repro.evaluation.base.EvaluatorStats` counters in place.
    """

    def log_density(self, parameters: np.ndarray) -> float:
        fn = self._log_density_fn
        if fn is None:
            self._require_bound()
        start = perf_counter()
        value = float(fn(parameters))
        elapsed = perf_counter() - start
        stats = self.stats
        stats.log_density_evaluations += 1
        stats.wall_time += elapsed
        stats.cost_units += float(self._cost_fn())
        return value

    def qoi(self, parameters: np.ndarray) -> np.ndarray:
        fn = self._qoi_fn
        if fn is None:
            self._require_bound()
        start = perf_counter()
        value = np.asarray(fn(parameters), dtype=float)
        elapsed = perf_counter() - start
        stats = self.stats
        stats.qoi_evaluations += 1
        stats.wall_time += elapsed
        stats.cost_units += float(self._cost_fn())
        return value
