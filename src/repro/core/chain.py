"""Single-chain MCMC driver.

:class:`SingleChainMCMC` mirrors MUQ's class of the same name: it owns a
transition kernel, advances it step by step, handles burn-in, records samples
into a :class:`SampleCollection` and (for multilevel kernels) the coupled
coarse samples into a :class:`CorrectionCollection`.  It can also act as a
:class:`ChainSampleSource` so that a finer chain can subsample it for
proposals — that is how the sequential MLMCMC driver stacks chains, and the
parallel controllers reuse exactly the same mechanism across process
boundaries.

The current point lives in four plain attributes — ``theta``, its log
density, its coarse log density and its QOI (evaluated at most once per
point).  A step hands them to the kernel and takes the next point back
without allocating a state object; a recorded step writes one row into each
collection.  Parameter vectors are never written in place, so a point's
vector is shared, not copied, between the kernel, the coarse source and the
finer chain.  :class:`~repro.core.state.SamplingState` appears only where a
point leaves the chain: :attr:`SingleChainMCMC.current_state` and the
checkpoint snapshot.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import TransitionKernel
from repro.core.proposals.subsampling import ChainSampleSource, CoarsePoint
from repro.core.sample_collection import CorrectionCollection, SampleCollection
from repro.core.state import SamplingState
from repro.utils.arrays import float_vector

__all__ = ["SingleChainMCMC", "SubsampledChainSource"]


class SingleChainMCMC:
    """Drives a single Markov chain.

    Parameters
    ----------
    kernel:
        The transition kernel (single-level MH or multilevel).
    starting_point:
        Initial parameter vector.
    rng:
        NumPy random generator for this chain.
    burnin:
        Number of initial steps discarded from the recorded collection (they
        are still simulated — the paper's load-balancing traces show burn-in
        as a separate phase for exactly this reason).
    level:
        Optional level label (used by correction bookkeeping and diagnostics).
    record:
        Whether post-burn-in states are recorded into :attr:`samples` and
        their QOIs into :attr:`corrections`.  A chain that only feeds coarse
        proposals to a finer chain (see :class:`SubsampledChainSource`) is
        built with ``record=False``: its steps keep nothing, and :meth:`run`,
        which counts recorded samples, raises.
    """

    def __init__(
        self,
        kernel: TransitionKernel,
        starting_point: np.ndarray,
        rng: np.random.Generator,
        burnin: int = 0,
        level: int = 0,
        record: bool = True,
    ) -> None:
        self.kernel = kernel
        self.rng = rng
        self.burnin = int(burnin)
        self.level = int(level)
        self.record = bool(record)

        self.samples = SampleCollection()
        self.corrections = CorrectionCollection(level=self.level)
        # The QOI is the chain's own target's (the fine problem of a
        # multilevel kernel), looked up once.
        problem = getattr(kernel, "fine_problem", None) or kernel.problem
        self._qoi_fn = problem.qoi
        self._theta = float_vector(starting_point)
        self._log_density, self._coarse_log_density = kernel.initialize(self._theta)
        self._qoi: np.ndarray | None = None
        self._steps_taken = 0

    # ------------------------------------------------------------------
    @property
    def current_state(self) -> SamplingState:
        """The current point packaged as a :class:`SamplingState` (a new object)."""
        return SamplingState(
            parameters=self._theta,
            log_density=self._log_density,
            coarse_log_density=self._coarse_log_density,
            qoi=self._qoi,
        )

    @property
    def steps_taken(self) -> int:
        """Total number of kernel steps taken (including burn-in)."""
        return self._steps_taken

    @property
    def in_burnin(self) -> bool:
        """Whether the chain is still inside its burn-in phase."""
        return self._steps_taken < self.burnin

    @property
    def acceptance_rate(self) -> float:
        """Kernel acceptance rate."""
        return self.kernel.acceptance_rate

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the chain by one step, recording the point if past burn-in."""
        theta, log_density, coarse_log_density, coarse_qoi, accepted = self.kernel.step(
            self._theta, self._log_density, self._coarse_log_density, self.rng
        )
        if accepted:
            self._theta = theta
            self._log_density = log_density
            self._coarse_log_density = coarse_log_density
            self._qoi = None
        self._steps_taken += 1

        if self.record and self._steps_taken > self.burnin:
            # Fine QOI of the (possibly repeated) current point.
            qoi = self._qoi
            if qoi is None:
                qoi = self._qoi = self._qoi_fn(theta)
            if coarse_qoi is None and self.level:
                coarse_qoi = qoi
            self.corrections.add(qoi, coarse_qoi)
            self.samples.add(theta, log_density, qoi)

    def point(self) -> CoarsePoint:
        """The current point as ``(theta, log_density, qoi)``; evaluates the QOI
        if this point has none yet, so a finer chain never re-runs this model."""
        qoi = self._qoi
        if qoi is None:
            qoi = self._qoi = self._qoi_fn(self._theta)
        return self._theta, self._log_density, qoi

    def run(self, num_samples: int) -> SampleCollection:
        """Run until ``num_samples`` post-burn-in samples have been recorded."""
        if not self.record:
            raise RuntimeError(
                "chain was built with record=False and keeps no samples; "
                "advance it with run_steps() or through its sample source"
            )
        target = int(num_samples)
        while self.samples.num_samples < target:
            self.step()
        return self.samples

    def run_steps(self, num_steps: int) -> SampleCollection:
        """Advance by exactly ``num_steps`` kernel steps (regardless of burn-in)."""
        for _ in range(int(num_steps)):
            self.step()
        return self.samples

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot of the chain's in-flight state.

        Captures everything :meth:`load_state_dict` needs to continue the
        chain *bitwise identically* to an uninterrupted run: the RNG's
        bit-generator state, the kernel counters and proposal adaptation state,
        the current state and the recorded collections.  Model caches (problems, evaluators) are
        deliberately excluded — they are rebuilt by the host process.
        """
        return {
            "level": self.level,
            "burnin": self.burnin,
            "steps_taken": self._steps_taken,
            "current": self.current_state,
            "rng_state": self.rng.bit_generator.state,
            "kernel": self.kernel.state_dict(),
            "samples": self.samples.state_dict(),
            "corrections": self.corrections.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a snapshot captured by :meth:`state_dict`."""
        if int(state["level"]) != self.level:
            raise ValueError(
                f"checkpoint is for level {state['level']}, chain is level {self.level}"
            )
        self.burnin = int(state["burnin"])
        self._steps_taken = int(state["steps_taken"])
        current = state["current"]
        self._theta = current.parameters
        self._log_density = current.log_density
        self._coarse_log_density = current.coarse_log_density
        self._qoi = current.qoi
        self.rng.bit_generator.state = state["rng_state"]
        self.kernel.load_state_dict(state["kernel"])
        self.samples = SampleCollection.from_state_dict(state["samples"])
        self.corrections = CorrectionCollection.from_state_dict(state["corrections"])


class SubsampledChainSource(ChainSampleSource):
    """Expose a :class:`SingleChainMCMC` as a coarse-proposal source.

    Every :meth:`next_sample` call advances the wrapped chain by
    ``subsampling_rate`` steps (at least one) and hands out its current point
    with the QOI evaluated — the sequential analogue of a controller
    requesting coarse samples through the phonebook.  The parameter vector is
    handed over as it is, not copied.
    """

    def __init__(self, chain: SingleChainMCMC, subsampling_rate: int = 1) -> None:
        if subsampling_rate < 0:
            raise ValueError("subsampling rate must be non-negative")
        self.chain = chain
        self._rate = int(subsampling_rate)

    @property
    def subsampling_rate(self) -> int:
        return self._rate

    def next_sample(self) -> CoarsePoint:
        for _ in range(max(1, self._rate)):
            self.chain.step()
        return self.chain.point()
