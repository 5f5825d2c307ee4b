"""Shared utilities: RNG management, running statistics, array namespaces.

These helpers are deliberately dependency-light; every other subpackage builds
on them.  They mirror the kind of infrastructure MUQ provides in C++
(random streams, sample statistics, etc.).
"""

from repro.utils.random import RandomSource, spawn_rngs
from repro.utils.stats import (
    RunningMoments,
    WeightedRunningMoments,
    batch_means_variance,
    integrated_autocorrelation_time,
    effective_sample_size,
    autocorrelation,
)

__all__ = [
    "RandomSource",
    "spawn_rngs",
    "RunningMoments",
    "WeightedRunningMoments",
    "batch_means_variance",
    "integrated_autocorrelation_time",
    "effective_sample_size",
    "autocorrelation",
]
