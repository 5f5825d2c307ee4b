"""Vectorized evaluation of parameter blocks."""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from repro.evaluation.inprocess import InProcessEvaluator

__all__ = ["MAX_BATCH_SIZE", "BatchEvaluator"]

#: largest block handed to a problem's vectorized hook in one call; bigger
#: inputs are split, which bounds the peak memory of the vectorized paths
MAX_BATCH_SIZE = 1024


class BatchEvaluator(InProcessEvaluator):
    """The evaluator of every sampling problem.

    Single-point requests are :class:`InProcessEvaluator` calls;
    :meth:`log_density_batch` runs whole ``(n, dim)`` parameter blocks through
    the problem's vectorized hook — e.g. the closed-form Gaussian targets and
    the random-field → FEM pipeline of the Poisson problem, whose
    ``forward_batch`` runs whole coefficient blocks through
    :meth:`repro.fem.poisson.PoissonSolver.solve_batch`.

    Parameters
    ----------
    log_density_fn, qoi_fn, cost_fn:
        See :class:`InProcessEvaluator`.
    batch_log_density_fn:
        Vectorized implementation mapping an ``(n, dim)`` array to ``n`` log
        densities.
    """

    def __init__(
        self,
        log_density_fn: Callable[[np.ndarray], float],
        qoi_fn: Callable[[np.ndarray], np.ndarray],
        cost_fn: Callable[[], float],
        batch_log_density_fn: Callable[[np.ndarray], np.ndarray],
    ) -> None:
        super().__init__(log_density_fn, qoi_fn, cost_fn)
        self._batch_fn = batch_log_density_fn

    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        if thetas.shape[0] == 0:
            return np.empty(0, dtype=float)
        stats = self.stats
        chunks = []
        for start in range(0, thetas.shape[0], MAX_BATCH_SIZE):
            block = thetas[start : start + MAX_BATCH_SIZE]
            tic = time.perf_counter()
            values = np.asarray(self._batch_fn(block), dtype=float).ravel()
            elapsed = time.perf_counter() - tic
            if values.shape[0] != block.shape[0]:
                raise ValueError(
                    "vectorized log-density implementation returned "
                    f"{values.shape[0]} values for {block.shape[0]} inputs"
                )
            stats.log_density_evaluations += block.shape[0]
            stats.batch_calls += 1
            stats.wall_time += elapsed
            stats.cost_units += self._cost_fn() * block.shape[0]
            chunks.append(values)
        return np.concatenate(chunks)
