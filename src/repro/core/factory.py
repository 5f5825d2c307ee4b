"""Level-indexed component factory.

The user-facing interface of the (parallel) MLMCMC implementation is MUQ's
multi-index component factory (the paper's Fig. 7) restricted to
one-dimensional indices: levels are plain integers ``0..L``.  For every level the factory
provides the sampling problem, the proposal, the starting point and the
subsampling rate of the coarse chain feeding it.  A single implementation of
this interface is all a user has to supply to run sequential or parallel
MLMCMC on their model.

:class:`LevelProblems` and :func:`level_chain` turn a factory into chains;
the sequential sampler, the parallel controllers and the single-level
baseline all build their chains through them.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.core.chain import SingleChainMCMC
from repro.core.kernels.mh import MHKernel
from repro.core.kernels.multilevel import MultilevelKernel
from repro.core.problem import AbstractSamplingProblem
from repro.core.proposals.base import MCMCProposal
from repro.core.proposals.subsampling import ChainSampleSource, SubsamplingProposal
from repro.evaluation import Evaluator, EvaluatorStats, make_evaluator

__all__ = ["LevelProblems", "MLComponentFactory", "level_chain"]


class MLComponentFactory(ABC):
    """Factory describing a multilevel model hierarchy, levels ``0..L``."""

    #: evaluation backend name handed to :func:`repro.evaluation.make_evaluator`
    #: by the default :meth:`evaluator_for_level` (``None`` = in-process);
    #: factories typically expose this as a constructor parameter.
    evaluation_backend: str | None = None
    #: keyword options for :func:`repro.evaluation.make_evaluator`.  Because a
    #: fresh backend is built per level from the *same* options, instance-valued
    #: options (e.g. the caching backend's ``inner``) must be zero-argument
    #: callables so every level gets its own instance.
    evaluator_options: dict | None = None

    @abstractmethod
    def num_levels(self) -> int:
        """Number of levels ``L + 1`` in the hierarchy."""

    @abstractmethod
    def problem_for_level(self, level: int) -> AbstractSamplingProblem:
        """The sampling problem (posterior + QOI) of a level."""

    @abstractmethod
    def proposal_for_level(self, level: int, problem: AbstractSamplingProblem) -> MCMCProposal:
        """The proposal density of a level's Metropolis-Hastings chain.

        Level 0 of a multilevel run and the single-level baseline sample with
        it; finer multilevel levels draw their proposals from the coarser
        chain.
        """

    @abstractmethod
    def starting_point_for_level(self, level: int) -> np.ndarray:
        """Starting parameters for chains of a level."""

    def subsampling_rate_for_level(self, level: int) -> int:
        """Subsampling rate ``rho_l`` for proposing from level ``level - 1``."""
        return 1

    def evaluator_for_level(self, level: int) -> Evaluator | None:
        """Evaluation backend for a level (``None`` = in-process default).

        The default builds a fresh backend from the factory's
        :attr:`evaluation_backend` / :attr:`evaluator_options` attributes (the
        shipped Gaussian/Poisson/tsunami factories expose them as constructor
        parameters); ``problem_for_level`` implementations pass the result as
        the problem's ``evaluator``.  The drivers never inject evaluators after
        construction, and an evaluator serves exactly one problem, so every
        call must return a *fresh* backend.
        """
        if self.evaluation_backend is None:
            return None
        return make_evaluator(self.evaluation_backend, **(self.evaluator_options or {}))


class LevelProblems:
    """Construct-once cache of a factory's per-level sampling problems.

    Problems may own expensive PDE solvers, so every chain of a level in one
    Python process — the sequential sampler's embedded coarse chains, all
    virtual controllers of a simulated parallel run — shares one instance.
    Proposals are *not* cached: each chain gets its own, so adaptive
    proposals adapt independently.
    """

    def __init__(self, factory: MLComponentFactory) -> None:
        self.factory = factory
        self._problems: dict[int, AbstractSamplingProblem] = {}

    def problem(self, level: int) -> AbstractSamplingProblem:
        """The sampling problem of a level (constructed on first use)."""
        problem = self._problems.get(level)
        if problem is None:
            problem = self._problems[level] = self.factory.problem_for_level(level)
        return problem

    def stats(self) -> dict[int, EvaluatorStats]:
        """Evaluator statistics snapshots of the problems built so far, by level."""
        return {
            level: self._problems[level].evaluation_stats.snapshot()
            for level in sorted(self._problems)
        }


def level_chain(
    problems: LevelProblems,
    level: int,
    rng: np.random.Generator,
    burnin: int,
    coarse_source: ChainSampleSource | None = None,
    record: bool = True,
) -> SingleChainMCMC:
    """Build a chain sampling ``level`` of ``problems.factory``.

    Without a ``coarse_source`` the chain runs a Metropolis-Hastings kernel
    with the factory's proposal (level 0 of a multilevel run, or the
    single-level baseline on any level).  With one it runs a
    :class:`~repro.core.kernels.MultilevelKernel` whose proposals are the
    level ``l-1`` samples the source hands out.  The caller derives ``rng``
    and builds ``coarse_source``, since both depend on where the chain runs
    (a local coarse chain in the sequential sampler, the phonebook's
    deliveries in a parallel controller).
    """
    factory = problems.factory
    problem = problems.problem(level)
    if coarse_source is None:
        kernel = MHKernel(problem, factory.proposal_for_level(level, problem))
    else:
        kernel = MultilevelKernel(
            problem, problems.problem(level - 1), SubsamplingProposal(coarse_source)
        )
    return SingleChainMCMC(
        kernel=kernel,
        starting_point=factory.starting_point_for_level(level),
        rng=rng,
        burnin=burnin,
        level=level,
        record=record,
    )
