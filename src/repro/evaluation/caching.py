"""Memoising evaluation backend.

Multilevel kernels re-evaluate identical parameter vectors constantly: a
coarse chain that rejects every subsampled step serves the *same* point as a
proposal again and again, and the fine chain evaluates each serve anew (a
chain caches the evaluations of its current point only).
:class:`CachingEvaluator` closes that gap with an LRU cache keyed on the raw
parameter bytes, so repeated evaluations of identical parameters are free
while the returned values stay bit-identical to an uncached run.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.evaluation.base import Evaluator
from repro.evaluation.inprocess import InProcessEvaluator

__all__ = ["CachingEvaluator"]


class CachingEvaluator(Evaluator):
    """LRU-memoised wrapper around another evaluator.

    Parameters
    ----------
    inner:
        The backend that serves cache misses (default: a fresh
        :class:`InProcessEvaluator`).  The wrapper shares the inner backend's
        :class:`~repro.evaluation.base.EvaluatorStats`, so one stats object
        describes the whole chain: model evaluations counted by the inner
        backend, hits and misses counted here.
    max_entries:
        Cache capacity across both density and QOI entries; the least recently
        used entry is evicted when it is exceeded.
    key_context:
        Optional salt mixed into every cache key (e.g. ``"level=1"`` or a
        backend name).  Distinct contexts can never serve each other's
        entries even for bit-identical parameters — the guard that keeps a
        float32 coarse-level result from answering a float64 fine-level
        request if one cache is ever shared.
    """

    def __init__(
        self,
        inner: Evaluator | None = None,
        max_entries: int = 4096,
        key_context: str | None = None,
    ) -> None:
        super().__init__()
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._inner = inner if inner is not None else InProcessEvaluator()
        self.stats = self._inner.stats
        self.max_entries = int(max_entries)
        self.key_context = str(key_context) if key_context is not None else ""
        self._cache: OrderedDict[tuple, float | np.ndarray] = OrderedDict()

    # ------------------------------------------------------------------
    @property
    def inner(self) -> Evaluator:
        """The wrapped backend serving cache misses."""
        return self._inner

    @property
    def cache_size(self) -> int:
        """Current number of cached entries."""
        return len(self._cache)

    def clear_cache(self) -> None:
        """Drop all cached entries (statistics are kept)."""
        self._cache.clear()

    def bind(self, *args, **kwargs) -> "CachingEvaluator":
        self._inner.bind(*args, **kwargs)
        return self

    @property
    def is_bound(self) -> bool:
        return self._inner.is_bound

    # ------------------------------------------------------------------
    def _key(self, kind: str, theta: np.ndarray) -> tuple:
        # Raw bytes alone are ambiguous: the same buffer can spell different
        # parameters under another dtype or shape.  Keying on (dtype, shape,
        # bytes) — plus the configured context — makes collisions impossible.
        return kind, self.key_context, theta.dtype.str, theta.shape, theta.tobytes()

    def _lookup(self, key: tuple):
        if key in self._cache:
            self._cache.move_to_end(key)
            self.stats.record(key[0], 0.0, 0.0, cache_hit=True)
            return self._cache[key]
        self.stats.cache_misses += 1
        return None

    def _store(self, key: tuple, value) -> None:
        self._cache[key] = value
        self._cache.move_to_end(key)
        while len(self._cache) > self.max_entries:
            self._cache.popitem(last=False)

    # ------------------------------------------------------------------
    def log_density(self, parameters: np.ndarray) -> float:
        theta = np.asarray(parameters, dtype=float)
        key = self._key("log_density", theta)
        cached = self._lookup(key)
        if cached is not None:
            return float(cached)
        value = self._inner.log_density(theta)
        self._store(key, float(value))
        return value

    def qoi(self, parameters: np.ndarray) -> np.ndarray:
        theta = np.asarray(parameters, dtype=float)
        key = self._key("qoi", theta)
        cached = self._lookup(key)
        if cached is not None:
            # Copies keep cached entries immutable even if callers write into
            # the returned array.
            return np.array(cached, dtype=float, copy=True)
        value = np.asarray(self._inner.qoi(theta), dtype=float)
        self._store(key, value.copy())
        return value

    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        values = np.empty(thetas.shape[0], dtype=float)
        # Deduplicate misses within the batch: identical rows are evaluated once.
        miss_rows: dict[tuple, list[int]] = {}
        for i, theta in enumerate(thetas):
            key = self._key("log_density", theta)
            if key in miss_rows:
                self.stats.record("log_density", 0.0, 0.0, cache_hit=True)
                miss_rows[key].append(i)
                continue
            cached = self._lookup(key)
            if cached is None:
                miss_rows[key] = [i]
            else:
                values[i] = float(cached)
        if miss_rows:
            unique_rows = [rows[0] for rows in miss_rows.values()]
            computed = self._inner.log_density_batch(thetas[unique_rows])
            for (key, rows), value in zip(miss_rows.items(), computed):
                values[rows] = float(value)
                self._store(key, float(value))
        return values

    def close(self) -> None:
        self._inner.close()
