"""Sampling states.

A :class:`SamplingState` is the unit of information flowing through chains,
kernels, proposals, collectors and (in the parallel layer) between processes:
the parameter vector plus cached evaluations (log density, quantity of
interest, the coarse-level log density needed by the multilevel acceptance
rule) and free-form metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.utils.array_api import float_vector

__all__ = ["SamplingState"]

_FLOAT64 = np.dtype(float)


@dataclass
class SamplingState:
    """One point in parameter space together with cached model evaluations.

    Attributes
    ----------
    parameters:
        Parameter vector ``theta``.
    log_density:
        Cached log posterior density at the state's own level (``None`` until
        evaluated).
    coarse_log_density:
        Cached log posterior density of the *next coarser* level at this
        parameter — needed by the multilevel acceptance probability
        (Algorithm 2) and cached to avoid re-evaluating the coarse model.
    qoi:
        Cached quantity of interest.
    weight:
        Multiplicity of the state in its chain (rejected proposals increment
        the weight of the previous state instead of storing a copy).
    metadata:
        Free-form annotations (e.g. the coarse sample a fine sample was
        coupled with, provenance of proposals, virtual timestamps).
    """

    parameters: np.ndarray
    log_density: float | None = None
    coarse_log_density: float | None = None
    qoi: np.ndarray | None = None
    weight: int = 1
    metadata: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        p = self.parameters
        # Kernels and proposals hand over fresh contiguous float64 vectors;
        # only other inputs pay for the conversion (``float_vector``, inlined).
        if not (
            type(p) is np.ndarray
            and p.ndim == 1
            and p.dtype is _FLOAT64
            and p.flags.c_contiguous
        ):
            self.parameters = float_vector(p)

    # ------------------------------------------------------------------
    @property
    def dim(self) -> int:
        """Parameter dimension."""
        return self.parameters.shape[0]

    def copy(self, **overrides: Any) -> "SamplingState":
        """Copy the state, optionally overriding fields.

        Cached evaluations are carried over unless explicitly overridden; the
        metadata dictionary is shallow-copied.
        """
        kwargs: dict[str, Any] = {
            "parameters": self.parameters.copy(),
            "log_density": self.log_density,
            "coarse_log_density": self.coarse_log_density,
            "qoi": None if self.qoi is None else np.array(self.qoi, copy=True),
            "weight": self.weight,
            "metadata": dict(self.metadata),
        }
        kwargs.update(overrides)
        return SamplingState(**kwargs)

    def invalidate_caches(self) -> None:
        """Drop cached evaluations (used after modifying the parameters in place)."""
        self.log_density = None
        self.coarse_log_density = None
        self.qoi = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        descr = np.array2string(self.parameters, precision=3, threshold=6)
        return (
            f"SamplingState({descr}, log_density={self.log_density}, "
            f"weight={self.weight})"
        )
