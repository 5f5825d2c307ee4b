"""Process-pool evaluation backend.

The simulated-MPI world in :mod:`repro.parallel` models parallelism in
*virtual* time; :class:`PoolEvaluator` is the repository's first backend with
*real* parallelism: batched density evaluations fan out over a
``multiprocessing`` pool.  Single-point requests stay in-process (the IPC
round trip would dwarf them); the pool pays off for expensive PDE models and
for batch workloads such as pilot studies and prior predictive sweeps.

The bound implementation callables must be picklable (the usual
``multiprocessing`` constraint): module-level functions, or bound methods of
picklable objects.  The evaluator excludes its own pool handle from pickling,
so problems whose evaluator is a :class:`PoolEvaluator` remain picklable.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

from repro.evaluation.base import validated_batch_values
from repro.evaluation.inprocess import InProcessEvaluator

__all__ = ["PoolEvaluator"]


class PoolEvaluator(InProcessEvaluator):
    """Evaluate parameter batches on a ``multiprocessing`` worker pool.

    Parameters
    ----------
    processes:
        Worker process count (default: ``min(4, cpu_count)``).
    context:
        ``multiprocessing`` start method; defaults to ``"fork"`` where
        available (cheap, inherits the bound model) and the platform default
        elsewhere.
    min_batch_size:
        Batches smaller than this are evaluated in-process — process fan-out
        only pays off once the batch amortises the IPC overhead.  Honoured as
        documented: ``min_batch_size=1`` sends even single-vector batches to
        the pool (useful when one evaluation is expensive enough to warrant
        warming the workers).
    """

    def __init__(
        self,
        processes: int | None = None,
        context: str | None = None,
        min_batch_size: int = 2,
    ) -> None:
        super().__init__()
        self.processes = (
            int(processes) if processes is not None else min(4, os.cpu_count() or 1)
        )
        if self.processes < 1:
            raise ValueError("processes must be at least 1")
        if context is None:
            context = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        self._context_name = context
        self.min_batch_size = int(min_batch_size)
        if self.min_batch_size < 1:
            raise ValueError("min_batch_size must be at least 1")
        self._pool = None

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            ctx = (
                multiprocessing.get_context(self._context_name)
                if self._context_name is not None
                else multiprocessing.get_context()
            )
            self._pool = ctx.Pool(self.processes)
        return self._pool

    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        if thetas.shape[0] < self.min_batch_size:
            return super().log_density_batch(thetas)
        self._require_bound()
        pool = self._ensure_pool()
        tic = time.perf_counter()
        if self._batch_fn is not None:
            # Fan out one vectorized sub-batch per worker instead of one
            # parameter vector per task: each worker then runs the problem's
            # batch fast path (e.g. plan-based FEM assembly) over its chunk,
            # and the IPC round trips drop from n to the worker count.
            chunks = np.array_split(thetas, min(self.processes, thetas.shape[0]))
            results = pool.map(self._batch_fn, chunks)
            values = validated_batch_values(
                np.concatenate(
                    [np.asarray(result, dtype=float).ravel() for result in results]
                ),
                thetas.shape[0],
            )
        else:
            values = np.asarray(
                pool.map(self._log_density_fn, list(thetas)), dtype=float
            )
        self.stats.record(
            "log_density",
            time.perf_counter() - tic,
            self._cost_fn() * thetas.shape[0],
            batch_size=thetas.shape[0],
        )
        return values

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut the pool down gracefully, letting in-flight tasks finish.

        ``Pool.close()`` + ``join()`` instead of ``terminate()``: a terminate
        can kill tasks another thread still has in flight, losing results.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __getstate__(self) -> dict:
        # The pool handle cannot cross process boundaries; child processes
        # that unpickle a bound problem rebuild it lazily if they ever batch.
        state = self.__dict__.copy()
        state["_pool"] = None
        return state
