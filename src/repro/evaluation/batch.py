"""Vectorized batch-evaluation backend."""

from __future__ import annotations

import time

import numpy as np

from repro.evaluation.base import validated_batch_values
from repro.evaluation.inprocess import InProcessEvaluator

__all__ = ["BatchEvaluator"]


class BatchEvaluator(InProcessEvaluator):
    """Evaluate whole ``(n, dim)`` parameter blocks in one vectorized call.

    Single-point requests behave exactly like :class:`InProcessEvaluator`;
    :meth:`log_density_batch` uses the problem's vectorized implementation
    (``batch_log_density_fn`` passed to :meth:`~repro.evaluation.base.Evaluator.bind`)
    when one exists — e.g. the closed-form Gaussian targets and the
    random-field → FEM pipeline of the Poisson problem, whose
    ``forward_batch`` runs whole coefficient blocks through
    :meth:`repro.fem.poisson.PoissonSolver.solve_batch` (plan-based O(nnz)
    assembly and reduced-system solves per sample) — and falls back to a
    loop otherwise.

    Parameters
    ----------
    max_batch_size:
        Largest block handed to the vectorized implementation in one call;
        bigger inputs are split (bounds peak memory of the vectorized paths).
    """

    def __init__(self, max_batch_size: int = 1024) -> None:
        super().__init__()
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be at least 1")
        self.max_batch_size = int(max_batch_size)

    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        if self._batch_fn is None:
            return super().log_density_batch(thetas)
        self._require_bound()
        if thetas.shape[0] == 0:
            return np.empty(0, dtype=float)
        chunks = []
        for start in range(0, thetas.shape[0], self.max_batch_size):
            block = thetas[start : start + self.max_batch_size]
            tic = time.perf_counter()
            values = validated_batch_values(self._batch_fn(block), block.shape[0])
            self.stats.record(
                "log_density",
                time.perf_counter() - tic,
                self._cost_fn() * block.shape[0],
                batch_size=block.shape[0],
            )
            chunks.append(values)
        return np.concatenate(chunks)
