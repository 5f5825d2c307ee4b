"""The shared forward-model interface of the model hierarchies.

Every application's forward map — KL coefficients to PDE observations
(Poisson), source location to buoy observables (tsunami), the identity
observation operator of the analytic Gaussian hierarchy — implements the same
narrow :class:`ForwardModel` contract:

* ``forward(theta)`` — one parameter vector to one observation vector,
* ``forward_batch(thetas)`` — an ``(n, dim)`` block to an ``(n, output_dim)``
  block whose rows equal the stacked scalar evaluations,
* ``output_dim`` — the observation dimension.

The batch method is the seam the evaluator's vectorized path
(:meth:`repro.evaluation.BatchEvaluator.log_density_batch`) and
:meth:`repro.bayes.Posterior.log_density_batch` plug into: a model with a
native ensemble solve exposes it here, and everything upstream — likelihood,
evaluator accounting, sampler — composes without knowing which model it is.

Models whose parameter space contains invalid regions (the tsunami source on
dry land) additionally expose ``physical_mask(thetas)``; the posterior uses
it to batch only the valid rows and assign the unphysical log likelihood to
the rest, so per-row invalidity never forces a whole block back onto the
scalar path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["ForwardModel", "ForwardModelBase"]


@runtime_checkable
class ForwardModel(Protocol):
    """Structural interface every model hierarchy's forward map satisfies."""

    @property
    def output_dim(self) -> int:
        """Dimension of one observation vector."""
        ...

    def forward(self, theta: np.ndarray) -> np.ndarray:
        """Observations for one parameter vector."""
        ...

    def forward_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Observations for an ``(n, dim)`` block, shape ``(n, output_dim)``."""
        ...


class ForwardModelBase(ABC):
    """Convenience base: callable, with a loop fallback for ``forward_batch``.

    Subclasses implement :meth:`forward` (and :attr:`output_dim`); models
    with a genuinely vectorized path override :meth:`forward_batch`.  The
    fallback keeps the row-equality contract trivially: it *is* the stacked
    scalar evaluation.
    """

    @property
    @abstractmethod
    def output_dim(self) -> int:
        """Dimension of one observation vector."""

    @abstractmethod
    def forward(self, theta: np.ndarray) -> np.ndarray:
        """Observations for one parameter vector."""

    def forward_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Observations for an ``(n, dim)`` block (loop fallback)."""
        block = np.atleast_2d(np.asarray(thetas, dtype=float))
        return np.stack(
            [
                np.atleast_1d(np.asarray(self.forward(theta), dtype=float)).ravel()
                for theta in block
            ]
        )

    def __call__(self, theta: np.ndarray) -> np.ndarray:
        return self.forward(theta)
