"""Array-API namespace resolution and the mixed-precision level ladder.

The ensemble kernels (:mod:`repro.swe.fv2d`, :mod:`repro.fem.assembly`) are
written against a namespace object ``xp`` instead of a hard ``import numpy``:
every array operation is spelled ``xp.add(a, b, out=c)``-style, so the kernel
source does not name its array library.  :func:`array_namespace` infers
``xp`` from the arrays flowing through a kernel: the array-API
``__array_namespace__`` protocol first, NumPy for anything else.

The second half of the module is the *precision ladder* used by
``ExperimentSpec.precision``: a named policy mapping each level of a model
hierarchy to the dtype its forward solves run in.  ``float32-coarse`` — the
policy the paper's cost argument motivates — solves every level below the
finest in single precision and keeps the finest in double: MLMCMC only needs
coarse chains to be *correlated* with the fine chain, and the telescoping
correction ``E[Q_l - Q_{l-1}]`` absorbs the coarse discretisation *and*
round-off bias alike.  Observables are always promoted back to ``float64``
at the observation boundary so likelihoods stay double regardless of ladder.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PRECISION_LADDERS",
    "array_namespace",
    "float_vector",
    "level_dtype",
    "level_dtypes",
    "resolve_dtype",
]

#: precision-ladder policies understood by :func:`level_dtypes`:
#: ``float64`` solves every level in double (the seed behaviour),
#: ``float32-coarse`` solves all but the finest level in single precision,
#: ``float32`` solves every level in single precision.
PRECISION_LADDERS = ("float64", "float32-coarse", "float32")


# ---------------------------------------------------------------------------
# namespace resolution
def array_namespace(*arrays):
    """Infer the ``xp`` namespace from the arrays a kernel received.

    An array's array-API ``__array_namespace__`` hook names its namespace;
    anything without one (Python scalars and sequences) is NumPy.  Mixing
    arrays from different namespaces is an error, never a silent transfer.
    """
    namespaces = []
    for array in arrays:
        if array is None:
            continue
        hook = getattr(array, "__array_namespace__", None)
        namespace = hook() if hook is not None else np
        if all(namespace is not seen for seen in namespaces):
            namespaces.append(namespace)
    if not namespaces:
        return np
    if len(namespaces) > 1:
        names = sorted(getattr(ns, "__name__", str(ns)) for ns in namespaces)
        raise TypeError(
            f"arrays from different namespaces cannot be mixed: {', '.join(names)}"
        )
    return namespaces[0]


# ---------------------------------------------------------------------------
# dtype handling and the precision ladder
_FLOAT64 = np.dtype(np.float64)


def float_vector(x) -> np.ndarray:
    """``x`` as a contiguous 1-D float64 array: returned as it is if it
    already is one (what the sampler hands around), else converted."""
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype is _FLOAT64 and x.flags.c_contiguous:
        return x
    return np.atleast_1d(np.asarray(x, dtype=np.float64)).ravel()


def resolve_dtype(dtype) -> np.dtype:
    """Canonicalise a dtype spec (``None`` means double precision).

    Only the two IEEE float dtypes the ladder uses are accepted: the kernels'
    dry-state logic and the observation-boundary promotion are validated for
    these and nothing else.
    """
    resolved = np.dtype(np.float64 if dtype is None else dtype)
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(
            f"unsupported kernel dtype {resolved}; use float32 or float64"
        )
    return resolved


def level_dtypes(precision: str | None, num_levels: int) -> list[np.dtype]:
    """Per-level solve dtypes (coarse to fine) for a precision-ladder policy."""
    policy = precision or "float64"
    if policy not in PRECISION_LADDERS:
        raise ValueError(
            f"unknown precision ladder {policy!r}; "
            f"known ladders: {', '.join(PRECISION_LADDERS)}"
        )
    if num_levels < 1:
        raise ValueError("a hierarchy needs at least one level")
    if policy == "float64":
        return [np.dtype(np.float64)] * num_levels
    if policy == "float32":
        return [np.dtype(np.float32)] * num_levels
    return [np.dtype(np.float32)] * (num_levels - 1) + [np.dtype(np.float64)]


def level_dtype(precision: str | None, level: int, num_levels: int) -> np.dtype:
    """The solve dtype of one level under a precision-ladder policy."""
    if not 0 <= level < num_levels:
        raise ValueError(f"level {level} outside hierarchy of {num_levels} levels")
    return level_dtypes(precision, num_levels)[level]
