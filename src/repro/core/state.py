"""Sampling states.

A :class:`SamplingState` is one chain point packaged to cross a boundary: a
coarse sample a parallel controller publishes to another process, or the
current point of a chain snapshot.  Inside a chain the point travels as bare
values (``theta``, its log density, its coarse log density, its QOI); see
:mod:`repro.core.chain`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.arrays import float_vector

__all__ = ["SamplingState"]

_FLOAT64 = np.dtype(float)


@dataclass
class SamplingState:
    """One point in parameter space together with its cached model evaluations.

    Attributes
    ----------
    parameters:
        Parameter vector ``theta``.
    log_density:
        Log posterior density at the state's own level (``None`` until
        evaluated).
    coarse_log_density:
        Log posterior density of the *next coarser* level at this parameter
        (the multilevel acceptance rule of Algorithm 2 needs it).
    qoi:
        Quantity of interest (``None`` until evaluated).
    """

    parameters: np.ndarray
    log_density: float | None = None
    coarse_log_density: float | None = None
    qoi: np.ndarray | None = None

    def __post_init__(self) -> None:
        p = self.parameters
        if not (
            type(p) is np.ndarray
            and p.ndim == 1
            and p.dtype is _FLOAT64
            and p.flags.c_contiguous
        ):
            self.parameters = float_vector(p)

    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self.parameters.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        descr = np.array2string(self.parameters, precision=3, threshold=6)
        return f"SamplingState({descr}, log_density={self.log_density})"
