"""Coarse-chain subsampling proposal.

The defining ingredient of multilevel MCMC (Algorithm 2): proposals for the
level-``l`` chain are *samples of a level ``l-1`` chain*, taken every
``rho_l`` steps so that consecutive proposals are nearly uncorrelated.  The
proposal itself is agnostic about where those samples come from — a local
chain advanced on demand (sequential MLMCMC), or a remote controller reached
through the phonebook (parallel MLMCMC) — which is captured by the
:class:`ChainSampleSource` interface.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque

import numpy as np

from repro.core.state import SamplingState

__all__ = ["ChainSampleSource", "BufferedChainSource", "SubsamplingProposal"]

#: a coarse point as the multilevel kernel consumes it:
#: ``(theta, coarse log density or None, coarse QOI or None)``
CoarsePoint = tuple[np.ndarray, "float | None", "np.ndarray | None"]


class ChainSampleSource(ABC):
    """A source of (approximately independent) samples from a coarser chain."""

    @abstractmethod
    def next_sample(self) -> CoarsePoint:
        """Return the next coarse point, advancing the underlying chain as needed.

        The point is ``(theta, log_density, qoi)``: the coarse posterior value
        and, when available, the coarse QOI come along so the fine chain never
        re-evaluates the coarse model.  ``theta`` may be shared with the coarse
        chain; nobody writes into it.
        """

    @property
    def subsampling_rate(self) -> int:
        """Number of coarse-chain steps between handed-out samples (informational)."""
        return 1


class BufferedChainSource(ChainSampleSource):
    """A coarse-sample source fed explicitly from the outside.

    Parallel controllers receive coarse samples through messages (via the
    phonebook) rather than by advancing a local chain; they push each received
    :class:`SamplingState` into this buffer right before performing the
    corresponding fine step, so the multilevel kernel consumes it through the
    standard :class:`ChainSampleSource` interface.
    """

    def __init__(self, subsampling_rate: int = 1) -> None:
        self._buffer: deque[SamplingState] = deque()
        self._rate = int(subsampling_rate)

    @property
    def subsampling_rate(self) -> int:
        return self._rate

    def __len__(self) -> int:
        return len(self._buffer)

    def push(self, state: SamplingState) -> None:
        """Add a coarse sample to the buffer."""
        self._buffer.append(state)

    def next_sample(self) -> CoarsePoint:
        if not self._buffer:
            raise RuntimeError("BufferedChainSource is empty; push a coarse sample first")
        state = self._buffer.popleft()
        return state.parameters, state.log_density, state.qoi


class SubsamplingProposal:
    """Proposal that returns subsampled coarse-chain points.

    The MH correction of this proposal *within the multilevel acceptance rule*
    is the coarse posterior ratio ``nu_{l-1}(theta) / nu_{l-1}(theta')``; that
    factor is applied by :class:`repro.core.kernels.MultilevelKernel`, which
    needs the coarse densities of both the proposal and the current point, so
    :meth:`propose` hands over the whole coarse point.
    """

    def __init__(self, source: ChainSampleSource) -> None:
        self._source = source
        self._num_draws = 0

    @property
    def source(self) -> ChainSampleSource:
        """The coarse sample source."""
        return self._source

    @property
    def num_draws(self) -> int:
        """Number of coarse samples drawn so far."""
        return self._num_draws

    def propose(self, theta: np.ndarray, rng: np.random.Generator) -> CoarsePoint:
        """The next coarse point ``(theta', coarse log density, coarse QOI)``."""
        self._num_draws += 1
        return self._source.next_sample()
