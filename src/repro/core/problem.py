"""Sampling problem interfaces.

:class:`AbstractSamplingProblem` mirrors MUQ's interface of the same name
(paper, Fig. 6): a log density to sample from plus an optional quantity of
interest.  Implementations provided here:

* :class:`BayesianSamplingProblem` — wraps a :class:`repro.bayes.Posterior`;
  this is what the Poisson and tsunami model hierarchies return.
* :class:`GaussianTargetProblem` — an analytic Gaussian target used by unit
  and integration tests (closed-form moments).
* :class:`DensitySamplingProblem` — wraps arbitrary callables.

Model evaluations are dispatched through a swappable
:class:`repro.evaluation.Evaluator` backend, which also owns all evaluation
accounting (counts, wall time, cost units, cache statistics); the problem's
implementation hooks (``_log_density_impl`` / ``_qoi_impl`` /
``_log_density_batch_impl``) are only ever called by the evaluator.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

import numpy as np

from repro.bayes.distributions import GaussianDensity
from repro.bayes.posterior import Posterior
from repro.evaluation import Evaluator, EvaluatorStats, InProcessEvaluator

__all__ = [
    "AbstractSamplingProblem",
    "BayesianSamplingProblem",
    "GaussianTargetProblem",
    "DensitySamplingProblem",
]


class AbstractSamplingProblem(ABC):
    """A target density plus an optional quantity of interest.

    The MCMC stack only ever interacts with models through this interface,
    which is what makes the method model-agnostic: any forward model that can
    be called from Python can be wrapped into a sampling problem.

    Parameters
    ----------
    dim:
        Parameter dimension.
    evaluator:
        Evaluation backend; defaults to a fresh
        :class:`~repro.evaluation.InProcessEvaluator`.  The problem binds its
        implementation hooks to the backend, so one evaluator serves exactly
        one problem.
    """

    def __init__(self, dim: int, evaluator: Evaluator | None = None) -> None:
        self._dim = int(dim)
        self._evaluator = evaluator if evaluator is not None else InProcessEvaluator()
        self._evaluator.bind(
            self._log_density_impl,
            self._qoi_impl,
            cost_fn=self.evaluation_cost,
            batch_log_density_fn=self._log_density_batch_impl,
        )

    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self._dim

    @property
    def evaluator(self) -> Evaluator:
        """The evaluation backend dispatching this problem's model calls."""
        return self._evaluator

    @property
    def evaluation_stats(self) -> EvaluatorStats:
        """Evaluation statistics (counts, wall time, cost units, cache hits)."""
        return self._evaluator.stats

    @property
    def num_density_evaluations(self) -> int:
        """Number of *actual* model log-density evaluations performed.

        Requests served from an evaluator cache are not included; see
        :attr:`evaluation_stats` for the full accounting.
        """
        return self._evaluator.stats.log_density_evaluations

    # ------------------------------------------------------------------
    @abstractmethod
    def _log_density_impl(self, parameters: np.ndarray) -> float:
        """Implementation hook for the log density."""

    def _log_density_batch_impl(self, parameters: np.ndarray) -> np.ndarray:
        """Vectorized hook: log densities of an ``(n, dim)`` parameter block.

        Defaults to a loop over :meth:`_log_density_impl`; subclasses with a
        vectorized fast path override this.
        """
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        return np.array([float(self._log_density_impl(t)) for t in thetas], dtype=float)

    def log_density(self, theta: np.ndarray) -> float:
        """Log target density at a float64 parameter vector."""
        return self._evaluator.log_density(theta)

    def log_density_batch(self, parameters: np.ndarray) -> np.ndarray:
        """Log densities of an ``(n, dim)`` block, routed through the evaluator."""
        return self._evaluator.log_density_batch(parameters)

    # ------------------------------------------------------------------
    def _qoi_impl(self, parameters: np.ndarray) -> np.ndarray:
        """Implementation hook for the QOI; defaults to the parameters themselves."""
        return np.asarray(parameters, dtype=float).copy()

    def qoi(self, theta: np.ndarray) -> np.ndarray:
        """Quantity of interest at a float64 parameter vector, as a 1-d array.

        Following the paper, QOI evaluation is separate from density evaluation
        so that rejected proposals never trigger (potentially expensive) QOI
        computations; chains evaluate it once per recorded point.
        """
        value = self._evaluator.qoi(theta)
        return value if value.ndim == 1 else value.ravel()

    # ------------------------------------------------------------------
    @property
    def qoi_dim(self) -> int | None:
        """Dimension of the QOI if known (``None`` when unknown a priori)."""
        return None

    def evaluation_cost(self) -> float:
        """A nominal cost (in arbitrary units) of one density evaluation.

        Used by the parallel scheduler's cost models and by cost-accuracy
        benchmarks; subclasses backed by PDE solvers override this with a
        measured or analytic estimate.
        """
        return 1.0


class BayesianSamplingProblem(AbstractSamplingProblem):
    """Sampling problem backed by a :class:`repro.bayes.Posterior`."""

    def __init__(
        self,
        posterior: Posterior,
        qoi_dim: int | None = None,
        cost: float = 1.0,
        evaluator: Evaluator | None = None,
    ) -> None:
        self._posterior = posterior
        self._qoi_dim = qoi_dim
        self._cost = float(cost)
        super().__init__(posterior.dim, evaluator=evaluator)

    @property
    def posterior(self) -> Posterior:
        """The underlying posterior."""
        return self._posterior

    def _log_density_impl(self, parameters: np.ndarray) -> float:
        return self._posterior.log_density(parameters)

    def _log_density_batch_impl(self, parameters: np.ndarray) -> np.ndarray:
        return self._posterior.log_density_batch(parameters)

    def _qoi_impl(self, parameters: np.ndarray) -> np.ndarray:
        return self._posterior.qoi(parameters)

    @property
    def qoi_dim(self) -> int | None:
        return self._qoi_dim

    def evaluation_cost(self) -> float:
        return self._cost


class GaussianTargetProblem(AbstractSamplingProblem):
    """Analytic Gaussian target ``N(mean, cov)`` with the identity QOI.

    Used throughout the test-suite: posterior moments are known in closed form
    so MCMC output can be validated quantitatively.
    """

    def __init__(
        self,
        mean: np.ndarray,
        covariance: np.ndarray | float,
        cost: float = 1.0,
        evaluator: Evaluator | None = None,
    ) -> None:
        self._density = GaussianDensity(mean, covariance)
        self._cost = float(cost)
        super().__init__(self._density.dim, evaluator=evaluator)

    @property
    def target(self) -> GaussianDensity:
        """The target density object."""
        return self._density

    def _log_density_impl(self, parameters: np.ndarray) -> float:
        return self._density.log_density(parameters)

    def _log_density_batch_impl(self, parameters: np.ndarray) -> np.ndarray:
        return self._density.log_density_batch(parameters)

    @property
    def qoi_dim(self) -> int | None:
        return self.dim

    def evaluation_cost(self) -> float:
        return self._cost


class DensitySamplingProblem(AbstractSamplingProblem):
    """Wraps arbitrary ``log_density`` / ``qoi`` callables into a sampling problem."""

    def __init__(
        self,
        dim: int,
        log_density: Callable[[np.ndarray], float],
        qoi: Callable[[np.ndarray], np.ndarray] | None = None,
        cost: float = 1.0,
        evaluator: Evaluator | None = None,
        log_density_batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ) -> None:
        self._log_density_fn = log_density
        self._qoi_fn = qoi
        self._batch_fn = log_density_batch
        self._cost = float(cost)
        super().__init__(dim, evaluator=evaluator)

    def _log_density_impl(self, parameters: np.ndarray) -> float:
        return float(self._log_density_fn(parameters))

    def _log_density_batch_impl(self, parameters: np.ndarray) -> np.ndarray:
        if self._batch_fn is None:
            return super()._log_density_batch_impl(parameters)
        thetas = np.atleast_2d(np.asarray(parameters, dtype=float))
        return np.asarray(self._batch_fn(thetas), dtype=float).ravel()

    def _qoi_impl(self, parameters: np.ndarray) -> np.ndarray:
        if self._qoi_fn is None:
            return np.asarray(parameters, dtype=float).copy()
        return np.asarray(self._qoi_fn(parameters), dtype=float)

    def evaluation_cost(self) -> float:
        return self._cost
