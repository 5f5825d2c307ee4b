"""Shared problem presets and factory construction for experiment scenarios.

Before the experiment subsystem existed, every example and benchmark carried
its own copy of the scaled-down Poisson and tsunami hierarchies.  These
canonical configurations now live here; scenario specs reference them by name
(``problem={"preset": "scaled"}``) and the benchmark fixtures delegate to the
same builders, so there is exactly one place that defines what "the scaled
Poisson hierarchy" means.

Environment knobs (shared with the benchmark harness):

``REPRO_BENCH_SCALE``
    Global multiplier (default 1.0) applied to per-level MCMC sample counts
    through :func:`scaled`.
``REPRO_BENCH_PAPER_SCALE``
    If ``1``, preset-based Poisson/tsunami hierarchies use the paper's full
    discretisations instead of the scaled-down defaults.
"""

from __future__ import annotations

import json
import os
from typing import Any

__all__ = [
    "PAPER_SCALE",
    "SCALE",
    "build_factory",
    "clear_factory_cache",
    "sample_scale",
    "scaled",
]


def sample_scale() -> float:
    """The global sample-count multiplier (``REPRO_BENCH_SCALE``)."""
    return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def paper_scale() -> bool:
    """Whether preset hierarchies should use the paper's full discretisations."""
    return os.environ.get("REPRO_BENCH_PAPER_SCALE", "0") == "1"


# Read once at import time for the benchmark harness (which treats them as
# session constants); the functions above are for code that wants live values.
SCALE = sample_scale()
PAPER_SCALE = paper_scale()


def scaled(samples: list[int]) -> list[int]:
    """Apply the global sample-count multiplier (floor of 4 samples per level)."""
    return [max(4, int(round(n * sample_scale()))) for n in samples]


# ----------------------------------------------------------------------------
# Canonical problem presets.
#
# The "scaled" Poisson preset relaxes the observation noise from the paper's
# 0.01 to 0.05: with short chains the paper's extremely concentrated posterior
# cannot be mixed by any untuned proposal, and the statistics would measure a
# stuck chain rather than the method (recorded as a deviation in the docs).
_POISSON_PRESETS: dict[str, dict[str, Any]] = {
    "paper": {},
    "scaled": {
        "mesh_sizes": [8, 16, 32],
        "num_kl_modes": 24,
        "quadrature_points_per_dim": 12,
        "qoi_resolution": 16,
        "subsampling_rates": [0, 8, 4],
        "noise_std": 0.05,
        "pcn_beta": 0.2,
    },
}

_TSUNAMI_PRESETS: dict[str, dict[str, Any]] = {
    "paper": {},
    "scaled": {
        "level_specs": [
            {"level": 0, "num_cells": 16, "bathymetry_treatment": "constant",
             "limiter": False, "sigma_heights": 0.15, "sigma_times": 2.5},
            {"level": 1, "num_cells": 32, "bathymetry_treatment": "smoothed",
             "limiter": True, "sigma_heights": 0.10, "sigma_times": 1.5,
             "smoothing_passes": 2},
            {"level": 2, "num_cells": 48, "bathymetry_treatment": "full",
             "limiter": True, "sigma_heights": 0.10, "sigma_times": 0.75},
        ],
        "end_time": 1800.0,
        "subsampling_rates": [0, 5, 3],
    },
}

_GAUSSIAN_PRESETS: dict[str, dict[str, Any]] = {
    # Cheap analytic posterior stand-in used by the scheduler-focused studies.
    "standin": {"dim": 4, "num_levels": 3, "subsampling": 5},
}

_PRESETS: dict[str, dict[str, dict[str, Any]]] = {
    "gaussian": _GAUSSIAN_PRESETS,
    "poisson": _POISSON_PRESETS,
    "tsunami": _TSUNAMI_PRESETS,
}

#: the canonical scaled tsunami levels — the registry's quick tiers truncate
#: this ladder rather than re-declaring it, so there is one definition only
TSUNAMI_SCALED_LEVEL_SPECS: tuple[dict[str, Any], ...] = tuple(
    _TSUNAMI_PRESETS["scaled"]["level_specs"]
)


def resolve_problem_options(application: str, problem: dict | None) -> dict[str, Any]:
    """Expand a spec's ``problem`` block into concrete factory options.

    A ``"preset"`` key is replaced by the named preset's options; any further
    keys override the preset's entries.  When ``REPRO_BENCH_PAPER_SCALE=1``
    the ``"scaled"`` presets fall back to the paper-scale factory defaults.
    """
    options = dict(problem or {})
    preset = options.pop("preset", None)
    base: dict[str, Any] = {}
    if preset is not None:
        presets = _PRESETS.get(application, {})
        if preset not in presets:
            raise KeyError(f"unknown {application!r} preset {preset!r}")
        if not (preset == "scaled" and paper_scale()):
            base = dict(presets[preset])
    return {**base, **options}


# ----------------------------------------------------------------------------
_FACTORY_CACHE: dict[str, Any] = {}


def clear_factory_cache() -> None:
    """Drop memoised factories (used by tests that tweak the environment)."""
    _FACTORY_CACHE.clear()


def build_factory(
    application: str,
    problem: dict | None = None,
    precision: str | None = None,
    cache: bool = True,
):
    """Construct (or reuse) the model-hierarchy factory of one application.

    Factories are memoised on their full configuration: they are stateless
    apart from precomputed discretisation data (KL expansions, synthetic
    observations, assembly plans), and rebuilding the tsunami hierarchy means
    re-running its finest forward model to regenerate the data.
    Only the requested application's stack is imported: a Gaussian run never
    loads scipy, the FEM or the shallow-water solver.
    """
    options = resolve_problem_options(application, problem)
    key = json.dumps(
        {
            "application": application,
            "options": options,
            "precision": precision or "float64",
        },
        sort_keys=True,
        default=str,
    )
    if cache and key in _FACTORY_CACHE:
        return _FACTORY_CACHE[key]

    if application == "gaussian":
        from repro.models.gaussian import GaussianHierarchyFactory

        factory = GaussianHierarchyFactory(
            precision=precision,
            **options,
        )
    elif application == "poisson":
        from repro.models.poisson import PoissonInverseProblemFactory

        if "mesh_sizes" in options:
            options["mesh_sizes"] = tuple(options["mesh_sizes"])
        factory = PoissonInverseProblemFactory(
            precision=precision,
            **options,
        )
    elif application == "tsunami":
        from repro.models.tsunami import TsunamiInverseProblemFactory, TsunamiLevelSpec

        if "level_specs" in options:
            options["level_specs"] = tuple(
                spec if isinstance(spec, TsunamiLevelSpec) else TsunamiLevelSpec(**spec)
                for spec in options["level_specs"]
            )
        factory = TsunamiInverseProblemFactory(
            precision=precision,
            **options,
        )
    else:
        raise KeyError(f"unknown application {application!r}")

    if cache:
        _FACTORY_CACHE[key] = factory
    return factory
