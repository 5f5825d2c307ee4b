"""Single-chain MCMC driver.

:class:`SingleChainMCMC` mirrors MUQ's class of the same name: it owns a
transition kernel, advances it step by step, handles burn-in, records samples
into a :class:`SampleCollection` and (for multilevel kernels) the coupled
coarse samples into a :class:`CorrectionCollection`.  It can also act as a
:class:`ChainSampleSource` so that a finer chain can subsample it for
proposals — that is how the sequential MLMCMC driver stacks chains, and the
parallel controllers reuse exactly the same mechanism across process
boundaries.
"""

from __future__ import annotations

import numpy as np

from repro.core.kernels.base import TransitionKernel
from repro.core.proposals.subsampling import ChainSampleSource
from repro.core.sample_collection import CorrectionCollection, SampleCollection
from repro.core.state import SamplingState

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
        self._current = kernel.initialize(np.asarray(starting_point, dtype=float))
        self._steps_taken = 0

    # ------------------------------------------------------------------
    @property
    def current_state(self) -> SamplingState:
        """The chain's current state."""
        return self._current

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
    def step(self) -> SamplingState:
        """Advance the chain by one step, recording the sample if past burn-in."""
        result = self.kernel.step(self._current, self.rng)
        self._current = result.state
        self._steps_taken += 1

        if self.record and self._steps_taken > self.burnin:
            # Fine QOI of the (possibly repeated) current state.
            fine_qoi = self._problem_qoi(self._current)
            coarse_qoi = result.metadata.get("coarse_qoi")
            if coarse_qoi is not None:
                self.corrections.add(fine_qoi, coarse_qoi)
            else:
                self.corrections.add(fine_qoi, None if self.level == 0 else fine_qoi)
            self.samples.add(self._current.copy(weight=1), weight=1)
        return self._current

    def _problem_qoi(self, state: SamplingState) -> np.ndarray:
        """Evaluate the QOI through the kernel's problem (fine problem for ML kernels)."""
        problem = getattr(self.kernel, "fine_problem", None) or getattr(self.kernel, "problem")
        return problem.qoi(state)

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
            "current": self._current.copy(),
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
        self._current = state["current"].copy()
        self.rng.bit_generator.state = state["rng_state"]
        self.kernel.load_state_dict(state["kernel"])
        self.samples = SampleCollection.from_state_dict(state["samples"])
        self.corrections = CorrectionCollection.from_state_dict(state["corrections"])


class SubsampledChainSource(ChainSampleSource):
    """Expose a :class:`SingleChainMCMC` as a coarse-proposal source.

    Every :meth:`next_sample` call advances the wrapped chain by
    ``subsampling_rate`` steps (at least one) and returns a copy of its current
    state — the sequential analogue of a controller requesting coarse samples
    through the phonebook.
    """

    def __init__(self, chain: SingleChainMCMC, subsampling_rate: int = 1) -> None:
        if subsampling_rate < 0:
            raise ValueError("subsampling rate must be non-negative")
        self.chain = chain
        self._rate = int(subsampling_rate)

    @property
    def subsampling_rate(self) -> int:
        return self._rate

    def next_sample(self) -> SamplingState:
        steps = max(1, self._rate)
        for _ in range(steps):
            self.chain.step()
        state = self.chain.current_state
        # Make sure the handed-out sample carries its QOI so the fine level
        # never re-evaluates the coarse model for the correction term.
        self.chain._problem_qoi(state)
        return state.copy()
