"""Array-API namespace resolution and the mixed-precision level ladder.

The ensemble kernels (:mod:`repro.swe.fv2d`, :mod:`repro.fem.assembly`) are
written against a namespace object ``xp`` instead of a hard ``import numpy``:
every array operation is spelled ``xp.add(a, b, out=c)``-style, so the same
kernel source runs on any backend whose module exposes the NumPy ufunc
surface.  NumPy is the default and the only backend guaranteed present; CuPy
is a drop-in replacement when installed (same ufunc signatures, same ``out=``
semantics), and PyTorch is accepted best-effort through its ``torch.*``
function namespace.  Neither optional backend is imported at module load —
:func:`resolve_backend` imports lazily and raises a helpful error when the
requested backend is not installed, so the import graph stays NumPy-only on
machines without accelerators.

Two resolution paths exist:

* :func:`array_namespace` — infer ``xp`` from the arrays flowing through a
  kernel (the array-API ``__array_namespace__`` protocol first, module origin
  second, NumPy as the fallback for plain Python sequences).
* :func:`resolve_backend` — map an explicit option string (``"numpy"``,
  ``"cupy"``, ``"torch"``) to its namespace, for call sites configured by
  name rather than by the data they receive.

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
    "KNOWN_BACKENDS",
    "PRECISION_LADDERS",
    "array_namespace",
    "backend_available",
    "backend_name",
    "float_vector",
    "level_dtype",
    "level_dtypes",
    "resolve_backend",
    "resolve_dtype",
]

#: backend option strings understood by :func:`resolve_backend`
KNOWN_BACKENDS = ("numpy", "cupy", "torch")

#: precision-ladder policies understood by :func:`level_dtypes`:
#: ``float64`` solves every level in double (the seed behaviour),
#: ``float32-coarse`` solves all but the finest level in single precision,
#: ``float32`` solves every level in single precision.
PRECISION_LADDERS = ("float64", "float32-coarse", "float32")


# ---------------------------------------------------------------------------
# namespace resolution
def resolve_backend(name: str | None):
    """The array namespace for an explicit backend option string.

    ``None`` and ``"numpy"`` return NumPy; ``"cupy"`` and ``"torch"`` are
    imported lazily and raise ``ImportError`` with an actionable message when
    the package is not installed (nothing in this repository installs them —
    they are opt-in accelerator backends).
    """
    if name is None or name == "numpy":
        return np
    if name not in KNOWN_BACKENDS:
        raise ValueError(
            f"unknown array backend {name!r}; known backends: {', '.join(KNOWN_BACKENDS)}"
        )
    try:
        return __import__(name)
    except ImportError as error:
        raise ImportError(
            f"array backend {name!r} requested but the {name!r} package is not "
            f"installed; install it or use backend='numpy'"
        ) from error


def backend_available(name: str) -> bool:
    """Whether :func:`resolve_backend` would succeed for ``name``."""
    try:
        resolve_backend(name)
    except ImportError:
        return False
    return True


def array_namespace(*arrays):
    """Infer the ``xp`` namespace from the arrays a kernel received.

    Resolution order per array: the array-API standard's
    ``__array_namespace__`` hook, then the defining module's top-level package
    (which maps ``cupy.ndarray`` to ``cupy`` and ``torch.Tensor`` to
    ``torch``), then NumPy for anything NumPy can coerce.  Mixing arrays from
    different backends is an error — silent device transfers are exactly the
    failure mode this helper exists to prevent.
    """
    namespaces = []
    for array in arrays:
        if array is None:
            continue
        hook = getattr(array, "__array_namespace__", None)
        if hook is not None:
            namespace = hook()
        elif isinstance(array, np.ndarray) or np.isscalar(array):
            namespace = np
        else:
            module = type(array).__module__.partition(".")[0]
            namespace = resolve_backend(module) if module in KNOWN_BACKENDS else np
        if all(namespace is not seen for seen in namespaces):
            namespaces.append(namespace)
    if not namespaces:
        return np
    if len(namespaces) > 1:
        names = sorted(backend_name(ns) for ns in namespaces)
        raise TypeError(
            f"arrays from different backends cannot be mixed: {', '.join(names)}"
        )
    return namespaces[0]


def backend_name(namespace) -> str:
    """Short name of a namespace object (``"numpy"``, ``"cupy"``, ...)."""
    name = getattr(namespace, "__name__", str(namespace))
    # numpy's array-API hook returns the main module; keep the top package name
    return name.partition(".")[0]


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
