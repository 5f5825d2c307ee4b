"""Sequential multilevel MCMC driver.

Implements Algorithm 2 of the paper in its sequential (single process) form:
for every level ``l`` an independent estimator of the telescoping-sum term is
built by running a level-``l`` chain whose proposals are subsampled states of
a level ``l-1`` chain, which itself recursively uses level ``l-2`` proposals,
down to a conventional MCMC chain on level 0.

This driver defines the *reference semantics* that the parallel implementation
in :mod:`repro.parallel` must reproduce: given the same factory and sample
counts, the parallel estimator targets the same distribution, it merely
schedules the work across (virtual) processes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.allocation import (
    AllocationPolicy,
    AllocationRound,
    FixedAllocation,
    LevelSnapshot,
)
from repro.core.chain import SingleChainMCMC, SubsampledChainSource
from repro.core.costmodel import CostModel
from repro.core.estimators import MonteCarloEstimate, MultilevelEstimate
from repro.core.factory import LevelProblems, MLComponentFactory, level_chain
from repro.core.sample_collection import CorrectionCollection
from repro.evaluation import EvaluatorStats
from repro.utils.random import RandomSource

__all__ = ["MLMCMCResult", "MLMCMCSampler", "run_single_level_mcmc"]


@dataclass
class MLMCMCResult:
    """Everything produced by a sequential MLMCMC run."""

    estimate: MultilevelEstimate
    chains: list[SingleChainMCMC]
    corrections: list[CorrectionCollection]
    acceptance_rates: list[float]
    costs_per_sample: list[float]
    wall_time: float
    model_evaluations: list[int] = field(default_factory=list)
    #: per-level evaluator statistics snapshots (counts, wall time, cost units)
    evaluation_stats: list[EvaluatorStats] = field(default_factory=list)
    #: realized continuation trajectory, one entry per allocation round
    #: (a single round for the fixed policy)
    allocation_rounds: list[AllocationRound] = field(default_factory=list)

    @property
    def mean(self) -> np.ndarray:
        """The multilevel estimate of ``E[Q_L]``."""
        return self.estimate.mean


class MLMCMCSampler:
    """Sequential greedy MLMCMC sampler.

    Parameters
    ----------
    factory:
        The model hierarchy (an :class:`repro.core.factory.MLComponentFactory`).
    num_samples:
        Post-burn-in samples per level, coarse to fine (e.g. ``[10_000, 1_000,
        100]`` in the paper's Poisson experiment).  May be omitted when an
        adaptive ``allocation`` policy supplies the targets.
    burnin:
        Burn-in steps per level; defaults to 10% of the requested samples
        (the allocation policy's pilot targets when ``num_samples`` is
        omitted).
    subsampling_rates:
        Override of the factory's subsampling rates ``rho_l`` (entry ``l`` is
        used when level ``l`` draws from level ``l-1``; entry 0 is ignored).
    seed:
        Seed of the random source from which all chain generators are spawned.
    allocation:
        An :class:`repro.core.allocation.AllocationPolicy` driving the
        continuation loop.  ``None`` wraps ``num_samples`` in a
        :class:`~repro.core.allocation.FixedAllocation` — a single round that
        reproduces the pre-allocation-layer runs bitwise.
    cost_model:
        Optional :class:`repro.core.CostModel` whose per-level means are the
        per-sample costs the *allocation* snapshots feed back to the policy,
        instead of the measured evaluator wall time.  Makes adaptive
        trajectories deterministic across machines — the parallel machine
        prices its snapshots the same way.  The result's reported
        ``costs_per_sample`` stay measured either way.
    """

    def __init__(
        self,
        factory: MLComponentFactory,
        num_samples: Sequence[int] | None = None,
        burnin: Sequence[int] | None = None,
        subsampling_rates: Sequence[int] | None = None,
        seed: int | None = None,
        allocation: AllocationPolicy | None = None,
        cost_model: CostModel | None = None,
    ) -> None:
        self.factory = factory
        num_levels = factory.num_levels()
        if allocation is None:
            if num_samples is None:
                raise ValueError(
                    "either num_samples or an allocation policy is required"
                )
            allocation = FixedAllocation(num_samples)
        self.allocation = allocation
        if num_samples is None:
            num_samples = allocation.initial_targets(num_levels)
        if len(num_samples) != num_levels:
            raise ValueError(
                f"num_samples must have one entry per level ({num_levels}), got {len(num_samples)}"
            )
        self.num_samples = [int(n) for n in num_samples]
        self.burnin = (
            [int(b) for b in burnin]
            if burnin is not None
            else [max(1, n // 10) for n in self.num_samples]
        )
        if len(self.burnin) != num_levels:
            raise ValueError("burnin must have one entry per level")
        self.subsampling_rates = (
            [int(r) for r in subsampling_rates] if subsampling_rates is not None else None
        )
        self.random_source = RandomSource(seed)
        self.cost_model = cost_model
        self.problems = LevelProblems(factory)

    # ------------------------------------------------------------------
    def _subsampling_rate(self, level: int) -> int:
        if self.subsampling_rates is not None and level < len(self.subsampling_rates):
            return max(0, self.subsampling_rates[level])
        return max(0, self.factory.subsampling_rate_for_level(level))

    def build_chain(
        self, level: int, chain_id: str = "main", record: bool = True
    ) -> SingleChainMCMC:
        """Recursively build the chain stack whose top chain samples level ``level``.

        Only the top chain of each level's estimator records samples and
        corrections; the embedded coarse-source chains are built with
        ``record=False``.  Nothing would ever read their collections, so
        their steps copy, store and evaluate nothing beyond the kernel step
        (QOIs are warmed only for the states handed to the finer chain).
        """
        rng = self.random_source.child("chain", chain_id, level)
        coarse_source = None
        if level > 0:
            coarse_chain = self.build_chain(
                level - 1, chain_id=f"{chain_id}/coarse{level - 1}", record=False
            )
            coarse_source = SubsampledChainSource(
                coarse_chain, subsampling_rate=self._subsampling_rate(level)
            )
        return level_chain(
            self.problems, level, rng, self.burnin[level], coarse_source, record=record
        )

    # ------------------------------------------------------------------
    def run(self) -> MLMCMCResult:
        """Run the continuation loop and assemble the telescoping sum.

        Each round extends every level's chain to the policy's current target
        (chains persist across rounds — pilot samples are the prefix of the
        production run, nothing is discarded), then feeds the streamed
        variance/cost signals back to the policy for the next targets.  The
        fixed policy makes this a single round identical — bitwise, including
        the measured costs — to the pre-allocation-layer driver.
        """
        num_levels = self.factory.num_levels()
        policy = self.allocation
        targets = [int(t) for t in policy.initial_targets(num_levels)]

        chains: list[SingleChainMCMC | None] = [None] * num_levels
        baselines: list[EvaluatorStats | None] = [None] * num_levels
        level_wall = [0.0] * num_levels
        level_requests = [0] * num_levels
        rounds: list[AllocationRound] = []
        costs: list[float] = []

        start = time.perf_counter()
        while True:
            for level in range(num_levels):
                problem = self.problems.problem(level)
                stats_before = problem.evaluation_stats.snapshot()
                if chains[level] is None:
                    baselines[level] = stats_before
                    chains[level] = self.build_chain(level, chain_id=f"level{level}")
                chain = chains[level]
                if chain.samples.num_samples < targets[level]:
                    chain.run(targets[level])
                # Cost per fine-level density evaluation, measured by the
                # level's own evaluator: embedded coarse-chain evaluations hit
                # the coarser problems' evaluators, so neither their count nor
                # their wall time dilutes this level's figure.
                delta = problem.evaluation_stats.delta(stats_before)
                level_wall[level] += delta.wall_time
                level_requests[level] += delta.log_density_evaluations
            costs = [
                level_wall[level] / max(1, level_requests[level])
                for level in range(num_levels)
            ]
            snapshots = []
            for level in range(num_levels):
                variance = chains[level].corrections.variance()
                count = len(chains[level].corrections)
                if self.cost_model is not None:
                    # Deterministic pricing: the policy sees the model's mean
                    # cost and a spend proportional to the collected samples,
                    # so the continuation trajectory is machine-independent.
                    cost = float(self.cost_model.mean(level))
                    spent = cost * count
                else:
                    cost = costs[level]
                    spent = self.problems.problem(level).evaluation_stats.delta(
                        baselines[level]
                    ).wall_time
                snapshots.append(
                    LevelSnapshot(
                        level=level,
                        num_samples=count,
                        variance=float(np.mean(variance)) if variance.size else 0.0,
                        cost_per_sample=cost,
                        total_cost=spent,
                    )
                )
            new_targets = policy.update(snapshots)
            rounds.append(
                AllocationRound(
                    round_index=len(rounds),
                    targets=list(targets),
                    collected=[s.num_samples for s in snapshots],
                    variances=[s.variance for s in snapshots],
                    costs_per_sample=[s.cost_per_sample for s in snapshots],
                    spent_cost=float(sum(s.total_cost for s in snapshots)),
                )
            )
            if new_targets is None:
                break
            targets = [
                max(int(target), snapshots[level].num_samples)
                for level, target in enumerate(new_targets)
            ]
        wall_time = time.perf_counter() - start

        corrections = [chain.corrections for chain in chains]
        acceptance_rates = [chain.acceptance_rate for chain in chains]
        # Total forward-model (density) evaluations per level across the whole
        # run, including the coarse-chain evaluations embedded in finer-level
        # estimators — this is the quantity cost accounting needs.
        evaluation_stats = list(self.problems.stats().values())
        evaluations = [stats.log_density_evaluations for stats in evaluation_stats]

        estimate = MultilevelEstimate.from_corrections(corrections, costs_per_sample=costs)
        return MLMCMCResult(
            estimate=estimate,
            chains=chains,
            corrections=corrections,
            acceptance_rates=acceptance_rates,
            costs_per_sample=costs,
            wall_time=wall_time,
            model_evaluations=evaluations,
            evaluation_stats=evaluation_stats,
            allocation_rounds=rounds,
        )


def run_single_level_mcmc(
    factory: MLComponentFactory,
    level: int,
    num_samples: int,
    burnin: int | None = None,
    seed: int | None = None,
) -> tuple[MonteCarloEstimate, SingleChainMCMC]:
    """Run a conventional single-level MH chain on one model of the hierarchy.

    This is the baseline (Algorithm 1 applied to the finest affordable model)
    that the multilevel method is compared against in the complexity analysis.
    """
    problems = LevelProblems(factory)
    rng = RandomSource(seed).child("single-level", level)
    burnin = burnin if burnin is not None else max(1, num_samples // 10)
    chain = level_chain(problems, level, rng, burnin)
    problem = problems.problem(level)
    stats_before = problem.evaluation_stats.snapshot()
    chain.run(num_samples)
    # Cost per density evaluation from the evaluator's own accounting, matching
    # the multilevel driver: dividing elapsed wall time by collected samples
    # would fold burn-in work into the per-sample figure (burn-in steps
    # evaluate the model but collect nothing) and miss time spent outside the
    # evaluator entirely.
    delta = problem.evaluation_stats.delta(stats_before)
    cost_per_sample = delta.wall_time / max(1, delta.log_density_evaluations)
    estimate = MonteCarloEstimate.from_samples(chain.samples, cost_per_sample=cost_per_sample)
    return estimate, chain
