"""Core MCMC / multilevel MCMC stack (MUQ substitute).

The component architecture mirrors MUQ's sampling stack, which the paper's
parallel implementation builds on: sampling problems, proposals, transition
kernels, single chains, sample collections, the level-indexed component
factory (levels are integers) and the sequential multilevel driver.
"""

from repro.core.state import SamplingState
from repro.core.problem import (
    AbstractSamplingProblem,
    BayesianSamplingProblem,
    DensitySamplingProblem,
    GaussianTargetProblem,
)
from repro.core.proposals import (
    MCMCProposal,
    GaussianRandomWalkProposal,
    AdaptiveMetropolisProposal,
    PreconditionedCrankNicolsonProposal,
    IndependenceProposal,
    SubsamplingProposal,
    ChainSampleSource,
)
from repro.core.kernels import MHKernel, MultilevelKernel, TransitionKernel
from repro.core.chain import SingleChainMCMC, SubsampledChainSource
from repro.core.sample_collection import SampleCollection, CorrectionCollection
from repro.core.factory import LevelProblems, MLComponentFactory, level_chain
from repro.core.estimators import (
    LevelContribution,
    MultilevelEstimate,
    MonteCarloEstimate,
    cost_capped_allocation,
    optimal_sample_allocation,
)
from repro.core.allocation import (
    AllocationPolicy,
    AllocationRound,
    ContinuationAllocation,
    FixedAllocation,
    LevelSnapshot,
    SamplingBudget,
    policy_from_budget,
)
from repro.core.costmodel import POISSON_PAPER_COSTS, TSUNAMI_PAPER_COSTS, CostModel
from repro.core.diagnostics import ChainDiagnostics, diagnose_collection, gelman_rubin
from repro.core.mlmcmc import MLMCMCResult, MLMCMCSampler, run_single_level_mcmc

__all__ = [
    "AllocationPolicy",
    "AllocationRound",
    "ContinuationAllocation",
    "FixedAllocation",
    "LevelSnapshot",
    "SamplingBudget",
    "cost_capped_allocation",
    "policy_from_budget",
    "SamplingState",
    "AbstractSamplingProblem",
    "BayesianSamplingProblem",
    "DensitySamplingProblem",
    "GaussianTargetProblem",
    "MCMCProposal",
    "GaussianRandomWalkProposal",
    "AdaptiveMetropolisProposal",
    "PreconditionedCrankNicolsonProposal",
    "IndependenceProposal",
    "SubsamplingProposal",
    "ChainSampleSource",
    "MHKernel",
    "MultilevelKernel",
    "TransitionKernel",
    "SingleChainMCMC",
    "SubsampledChainSource",
    "SampleCollection",
    "CorrectionCollection",
    "LevelProblems",
    "MLComponentFactory",
    "level_chain",
    "LevelContribution",
    "MultilevelEstimate",
    "MonteCarloEstimate",
    "optimal_sample_allocation",
    "CostModel",
    "POISSON_PAPER_COSTS",
    "TSUNAMI_PAPER_COSTS",
    "ChainDiagnostics",
    "diagnose_collection",
    "gelman_rubin",
    "MLMCMCResult",
    "MLMCMCSampler",
    "run_single_level_mcmc",
]
