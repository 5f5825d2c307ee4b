"""Evaluator interface and shared evaluation statistics.

The MCMC stack never calls a forward model directly: every log-density or QOI
evaluation of an :class:`repro.core.problem.AbstractSamplingProblem` is routed
through an :class:`Evaluator`.  This mirrors the paper's decoupling of the
sampler from the forward model behind the narrow ``SamplingProblem`` interface
(Fig. 6) and makes the evaluation strategy swappable: the same chain code runs
against an in-process solve, a memoising cache, a vectorized batch backend or
a process pool — and, later, remote model servers.

An evaluator is *bound* to the implementation callables of one sampling
problem (:meth:`Evaluator.bind`); the problem does this automatically in its
constructor.  Every evaluation is recorded into the evaluator's
:class:`EvaluatorStats` (:meth:`EvaluatorStats.record` updates the counters in
place), which is where the sequential and parallel drivers obtain their
evaluation counts and cost accounting.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

__all__ = ["EvaluatorStats", "Evaluator"]


def _unit_cost() -> float:
    """Default cost callable (module-level so bound evaluators stay picklable)."""
    return 1.0


def validated_batch_values(values, expected: int) -> np.ndarray:
    """Flatten a vectorized log-density result and check it covers the batch.

    Shared by every batch-capable backend so the contract (one value per
    parameter vector) is enforced identically everywhere.
    """
    flat = np.asarray(values, dtype=float).ravel()
    if flat.shape[0] != expected:
        raise ValueError(
            "vectorized log-density implementation returned "
            f"{flat.shape[0]} values for {expected} inputs"
        )
    return flat


@dataclass
class EvaluatorStats:
    """Aggregate statistics of one evaluator (or one evaluator chain).

    ``log_density_evaluations`` / ``qoi_evaluations`` count *actual* model
    evaluations; cache hits are counted separately per kind so
    ``density_requests = log_density_evaluations + cache_hits`` recovers the
    number of times the sampler asked for a density.  ``cache_misses`` counts
    lookups of either kind that fell through to the model.
    """

    log_density_evaluations: int = 0
    qoi_evaluations: int = 0
    batch_calls: int = 0
    cache_hits: int = 0
    qoi_cache_hits: int = 0
    cache_misses: int = 0
    wall_time: float = 0.0
    cost_units: float = 0.0

    # ------------------------------------------------------------------
    def record(
        self,
        kind: str,
        wall_time: float,
        cost: float,
        *,
        cache_hit: bool = False,
        batch_size: int = 1,
    ) -> None:
        """Fold one evaluation event into the counters, in place.

        Parameters
        ----------
        kind:
            ``"log_density"`` or ``"qoi"``.
        wall_time:
            Wall-clock seconds spent in model code (virtual seconds in the
            simulated-MPI world).
        cost:
            Nominal cost units of the event (``batch_size *`` the problem's
            ``evaluation_cost()`` for model evaluations).
        cache_hit:
            Whether the result came out of a cache instead of the model; a
            hit only moves the hit counter of its kind.
        batch_size:
            Number of parameter vectors covered by the event.
        """
        if kind == "log_density":
            if cache_hit:
                self.cache_hits += batch_size
                return
            self.log_density_evaluations += batch_size
        elif kind == "qoi":
            if cache_hit:
                self.qoi_cache_hits += batch_size
                return
            self.qoi_evaluations += batch_size
        else:
            raise ValueError(f"unknown evaluation kind: {kind!r}")
        if batch_size > 1:
            self.batch_calls += 1
        self.wall_time += float(wall_time)
        self.cost_units += float(cost)

    # ------------------------------------------------------------------
    @property
    def total_evaluations(self) -> int:
        """Model evaluations of any kind (density + QOI)."""
        return self.log_density_evaluations + self.qoi_evaluations

    @property
    def density_requests(self) -> int:
        """Density evaluations requested, whether served by model or cache."""
        return self.log_density_evaluations + self.cache_hits

    @property
    def hit_rate(self) -> float:
        """Fraction of density/QOI requests served from a cache."""
        hits = self.cache_hits + self.qoi_cache_hits
        requests = self.total_evaluations + hits
        return hits / requests if requests else 0.0

    def mean_wall_time_per_evaluation(self) -> float:
        """Mean measured wall time of one model evaluation (0 when none ran)."""
        total = self.total_evaluations
        return self.wall_time / total if total else 0.0

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
    """Backend through which a sampling problem evaluates its forward model.

    Subclasses implement :meth:`log_density` / :meth:`qoi` (and optionally
    :meth:`log_density_batch`) in terms of the bound implementation callables.
    The default batch implementation loops over :meth:`log_density`, so every
    backend supports batched evaluation.
    """

    def __init__(self) -> None:
        self.stats = EvaluatorStats()
        self._log_density_fn: Callable[[np.ndarray], float] | None = None
        self._qoi_fn: Callable[[np.ndarray], np.ndarray] | None = None
        self._cost_fn: Callable[[], float] = _unit_cost
        self._batch_fn: Callable[[np.ndarray], np.ndarray] | None = None

    # ------------------------------------------------------------------
    def bind(
        self,
        log_density_fn: Callable[[np.ndarray], float],
        qoi_fn: Callable[[np.ndarray], np.ndarray],
        cost_fn: Callable[[], float] | None = None,
        batch_log_density_fn: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> "Evaluator":
        """Attach the implementation callables of one sampling problem.

        Parameters
        ----------
        log_density_fn, qoi_fn:
            Scalar (one parameter vector in, one value out) implementations.
        cost_fn:
            Returns the nominal cost units of one evaluation (the problem's
            ``evaluation_cost``); defaults to 1.
        batch_log_density_fn:
            Optional vectorized implementation mapping an ``(n, dim)`` array
            to ``n`` log densities; used by batch-capable backends.
        """
        if self._log_density_fn is not None:
            raise RuntimeError(
                "evaluator is already bound to a sampling problem; an evaluator "
                "serves exactly one problem — create a fresh instance per problem"
            )
        self._log_density_fn = log_density_fn
        self._qoi_fn = qoi_fn
        if cost_fn is not None:
            self._cost_fn = cost_fn
        self._batch_fn = batch_log_density_fn
        return self

    @property
    def is_bound(self) -> bool:
        """Whether :meth:`bind` has been called."""
        return self._log_density_fn is not None

    def _require_bound(self) -> None:
        if not self.is_bound:
            raise RuntimeError(
                "evaluator is not bound to a sampling problem; call bind() first"
            )

    # -- the evaluation interface ---------------------------------------
    @abstractmethod
    def log_density(self, parameters: np.ndarray) -> float:
        """Log density at one parameter vector."""

    @abstractmethod
    def qoi(self, parameters: np.ndarray) -> np.ndarray:
        """Quantity of interest at one parameter vector."""

    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        """Log densities of an ``(n, dim)`` array of parameter vectors.

        Default: a plain loop over :meth:`log_density`; backends with a faster
        strategy (vectorization, process pools) override this.
        """
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        return np.array([self.log_density(theta) for theta in thetas], dtype=float)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release backend resources (pools, connections); idempotent."""

    def __enter__(self) -> "Evaluator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
