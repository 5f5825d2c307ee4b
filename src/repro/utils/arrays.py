"""Array conversion helpers shared by the sampler and the forward kernels.

:func:`float_vector` is the sampler's parameter-vector normaliser;
:func:`resolve_dtype` canonicalises the ``dtype`` argument of the
dtype-parametric kernels (:class:`repro.fem.poisson.PoissonSolver`,
:class:`repro.fem.assembly.AssemblyPlan`,
:class:`repro.swe.fv2d.ShallowWaterSolver2D`), which run in ``float64``
unless asked for ``float32``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["float_vector", "resolve_dtype"]

_FLOAT64 = np.dtype(np.float64)


def float_vector(x) -> np.ndarray:
    """``x`` as a contiguous 1-D float64 array: returned as it is if it
    already is one (what the sampler hands around), else converted."""
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64 and x.flags.c_contiguous:
        return x
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()


def resolve_dtype(dtype) -> np.dtype:
    """Canonicalise a kernel dtype (``None`` means double precision).

    Only the two IEEE float dtypes are accepted: the kernels' dry-state logic
    and the observation-boundary promotion to ``float64`` are validated for
    these and nothing else.
    """
    resolved = np.dtype(np.float64 if dtype is None else dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"unsupported kernel dtype {resolved}; use float32 or float64"
        )
    return resolved
