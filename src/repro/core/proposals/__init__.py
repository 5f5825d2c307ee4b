"""MCMC proposal distributions.

The usual single-level proposals (random walk, adaptive Metropolis,
preconditioned Crank-Nicolson, independence) plus the
:class:`SubsamplingProposal` that draws proposals from a coarser chain —
the core ingredient of the multilevel kernel (Algorithm 2).
"""

from repro.core.proposals.base import MCMCProposal
from repro.core.proposals.random_walk import GaussianRandomWalkProposal
from repro.core.proposals.adaptive_metropolis import AdaptiveMetropolisProposal
from repro.core.proposals.pcn import PreconditionedCrankNicolsonProposal
from repro.core.proposals.independence import IndependenceProposal
from repro.core.proposals.subsampling import (
    BufferedChainSource,
    ChainSampleSource,
    SubsamplingProposal,
)

__all__ = [
    "MCMCProposal",
    "GaussianRandomWalkProposal",
    "AdaptiveMetropolisProposal",
    "PreconditionedCrankNicolsonProposal",
    "IndependenceProposal",
    "ChainSampleSource",
    "BufferedChainSource",
    "SubsamplingProposal",
]
