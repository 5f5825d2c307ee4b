"""Strong and weak scaling studies (Figures 11 and 12 of the paper).

Both studies sweep the number of (virtual) ranks while running the full
parallel MLMCMC machine:

* **strong scaling** keeps the problem (sample targets per level) constant and
  measures how the virtual run time shrinks — the paper observes linear (even
  slightly super-linear, because the bookkeeping ranks are a fixed cost)
  speed-up until burn-in overhead and too-few-samples-per-chain saturate it;
* **weak scaling** grows the sample targets proportionally to the rank count
  and reports the parallel efficiency ``t_ref / t_N`` relative to the fastest
  run, which the paper keeps near (or above) 100% up to about 1024 ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.costmodel import CostModel
from repro.core.factory import MLComponentFactory
from repro.parallel.parallel_mlmcmc import ParallelMLMCMCResult, ParallelMLMCMCSampler

__all__ = ["ScalingPoint", "ScalingStudyResult", "strong_scaling_study", "weak_scaling_study"]


@dataclass
class ScalingPoint:
    """One point of a scaling curve."""

    num_ranks: int
    virtual_time: float
    num_samples: list[int]
    speedup: float = 1.0
    efficiency: float = 1.0
    utilization: float = 0.0
    num_rebalances: int = 0

    def as_dict(self) -> dict[str, float | int]:
        """Plain dictionary (benchmark reporting)."""
        return {
            "num_ranks": self.num_ranks,
            "virtual_time": self.virtual_time,
            "speedup": self.speedup,
            "efficiency": self.efficiency,
            "utilization": self.utilization,
            "num_rebalances": self.num_rebalances,
        }


@dataclass
class ScalingStudyResult:
    """A full scaling sweep."""

    kind: str
    points: list[ScalingPoint] = field(default_factory=list)
    results: list[ParallelMLMCMCResult] = field(default_factory=list)

    def rank_counts(self) -> list[int]:
        """Swept rank counts."""
        return [p.num_ranks for p in self.points]

    def times(self) -> list[float]:
        """Virtual run times."""
        return [p.virtual_time for p in self.points]

    def speedups(self) -> list[float]:
        """Speed-ups relative to the smallest run."""
        return [p.speedup for p in self.points]

    def efficiencies(self) -> list[float]:
        """Parallel efficiencies."""
        return [p.efficiency for p in self.points]

    def table(self) -> list[dict[str, float | int]]:
        """Rows for printing (one per rank count)."""
        return [p.as_dict() for p in self.points]


def _run_once(
    factory: MLComponentFactory,
    num_samples: Sequence[int],
    num_ranks: int,
    cost_model: CostModel,
    **kwargs,
) -> ParallelMLMCMCResult:
    sampler = ParallelMLMCMCSampler(
        factory=factory,
        num_samples=list(num_samples),
        num_ranks=num_ranks,
        cost_model=cost_model,
        **kwargs,
    )
    return sampler.run()


def strong_scaling_study(
    factory: MLComponentFactory,
    num_samples: Sequence[int],
    rank_counts: Sequence[int],
    cost_model: CostModel,
    **kwargs,
) -> ScalingStudyResult:
    """Fixed problem size, increasing rank counts (Fig. 11)."""
    study = ScalingStudyResult(kind="strong")
    for num_ranks in rank_counts:
        result = _run_once(factory, num_samples, int(num_ranks), cost_model, **kwargs)
        study.results.append(result)
        study.points.append(
            ScalingPoint(
                num_ranks=int(num_ranks),
                virtual_time=result.virtual_time,
                num_samples=list(num_samples),
                utilization=result.worker_utilization(),
                num_rebalances=len(result.rebalance_log),
            )
        )
    base = study.points[0]
    for point in study.points:
        point.speedup = base.virtual_time / point.virtual_time if point.virtual_time > 0 else 0.0
        ideal = point.num_ranks / base.num_ranks
        point.efficiency = point.speedup / ideal if ideal > 0 else 0.0
    return study


def weak_scaling_study(
    factory: MLComponentFactory,
    base_num_samples: Sequence[int],
    base_num_ranks: int,
    rank_counts: Sequence[int],
    cost_model: CostModel,
    **kwargs,
) -> ScalingStudyResult:
    """Samples scaled proportionally to the rank count (Fig. 12).

    The per-level sample targets of the run with ``base_num_ranks`` ranks are
    multiplied by ``ranks / base_num_ranks`` (rounded, at least 1).  Parallel
    efficiency is reported relative to the fastest run, exactly as in the
    paper ("t_ref is the quickest time taken over all runs").
    """
    study = ScalingStudyResult(kind="weak")
    base_samples = np.asarray(base_num_samples, dtype=float)
    for num_ranks in rank_counts:
        factor = float(num_ranks) / float(base_num_ranks)
        scaled = np.maximum(1, np.round(base_samples * factor)).astype(int).tolist()
        result = _run_once(factory, scaled, int(num_ranks), cost_model, **kwargs)
        study.results.append(result)
        study.points.append(
            ScalingPoint(
                num_ranks=int(num_ranks),
                virtual_time=result.virtual_time,
                num_samples=scaled,
                utilization=result.worker_utilization(),
                num_rebalances=len(result.rebalance_log),
            )
        )
    t_ref = min(p.virtual_time for p in study.points if p.virtual_time > 0)
    for point in study.points:
        point.efficiency = t_ref / point.virtual_time if point.virtual_time > 0 else 0.0
        point.speedup = point.efficiency
    return study
