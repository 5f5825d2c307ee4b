"""MCMC transition kernels.

:class:`MHKernel` implements the standard Metropolis-Hastings step
(Algorithm 1); :class:`MultilevelKernel` the two-level acceptance rule of the
multilevel algorithm (Algorithm 2), coupling a fine-level chain to coarse
proposals drawn from a coarser chain.
"""

from repro.core.kernels.base import TransitionKernel
from repro.core.kernels.mh import MHKernel
from repro.core.kernels.multilevel import MultilevelKernel

__all__ = ["TransitionKernel", "MHKernel", "MultilevelKernel"]
