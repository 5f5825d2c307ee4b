"""Sample collections.

A :class:`SampleCollection` stores the states visited by a chain together with
their multiplicities and exposes the statistics needed by the multilevel
estimator (means, variances, effective sample sizes, integrated
autocorrelation times).  :class:`CorrectionCollection` stores the coupled
(fine QOI, coarse QOI) pairs produced by the multilevel kernel and reduces
them to the telescoping-sum correction terms ``E[Q_l - Q_{l-1}]``.

Both collections are mergeable, which is what the parallel layer's distributed
collectors rely on.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.state import SamplingState
from repro.utils.stats import (
    RunningMoments,
    effective_sample_size,
    integrated_autocorrelation_time,
)

__all__ = ["SampleCollection", "CorrectionCollection"]


class SampleCollection:
    """An ordered collection of chain states with multiplicities.

    A running sample count tracks the multiplicities, so :attr:`num_samples`
    is O(1); the statistics (:meth:`mean`, :meth:`variance`, ...) are computed
    from the stored states on demand.
    """

    def __init__(self) -> None:
        self._states: list[SamplingState] = []
        self._num_samples = 0

    # ------------------------------------------------------------------
    def add(self, state: SamplingState, weight: int = 1) -> None:
        """Append a state; consecutive duplicates just increase the weight."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        self._num_samples += weight
        if self._states and self._states[-1] is state:
            self._states[-1].weight += weight
            return
        self._states.append(state if state.weight == weight else state.copy(weight=weight))

    def extend(self, states: Iterable[SamplingState]) -> None:
        """Append multiple states."""
        for state in states:
            self.add(state, weight=state.weight)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[SamplingState]:
        return iter(self._states)

    def __getitem__(self, index: int) -> SamplingState:
        return self._states[index]

    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """Total number of samples including multiplicities."""
        return self._num_samples

    @property
    def num_unique(self) -> int:
        """Number of distinct stored states (accepted proposals + start)."""
        return len(self._states)

    def parameters(self, expand: bool = True) -> np.ndarray:
        """Parameter matrix, optionally expanding multiplicities, shape (n, dim)."""
        if not self._states:
            return np.zeros((0, 0))
        if expand:
            rows = [
                state.parameters
                for state in self._states
                for _ in range(state.weight)
            ]
        else:
            rows = [state.parameters for state in self._states]
        return np.stack(rows)

    def qois(self, expand: bool = True) -> np.ndarray:
        """QOI matrix (requires QOIs to have been evaluated), shape (n, qoi_dim)."""
        if not self._states:
            return np.zeros((0, 0))
        rows = []
        for state in self._states:
            if state.qoi is None:
                raise ValueError("state without evaluated QOI in collection")
            reps = state.weight if expand else 1
            rows.extend([state.qoi] * reps)
        return np.stack(rows)

    def log_densities(self, expand: bool = True) -> np.ndarray:
        """Vector of log densities."""
        rows = []
        for state in self._states:
            value = np.nan if state.log_density is None else state.log_density
            reps = state.weight if expand else 1
            rows.extend([value] * reps)
        return np.asarray(rows, dtype=float)

    # ------------------------------------------------------------------
    def mean(self, use_qoi: bool = False) -> np.ndarray:
        """Weighted sample mean of the parameters (or the QOI)."""
        moments = self._moments(use_qoi)
        return moments.mean()

    def variance(self, use_qoi: bool = False) -> np.ndarray:
        """Weighted per-component sample variance."""
        data = self.qois() if use_qoi else self.parameters()
        if data.size == 0:
            return np.zeros(0)
        return np.var(data, axis=0, ddof=1) if data.shape[0] > 1 else np.zeros(data.shape[1])

    def _moments(self, use_qoi: bool) -> RunningMoments:
        moments = RunningMoments()
        data = self.qois() if use_qoi else self.parameters()
        for row in data:
            moments.push(row)
        return moments

    def _recount(self) -> None:
        self._num_samples = sum(state.weight for state in self._states)

    def ess(self, use_qoi: bool = False) -> float:
        """Effective sample size (minimum over components)."""
        data = self.qois() if use_qoi else self.parameters()
        if data.shape[0] < 4:
            return float(data.shape[0])
        return effective_sample_size(data)

    def integrated_autocorrelation_time(self, component: int = 0, use_qoi: bool = False) -> float:
        """IACT of a single component (expanded chain)."""
        data = self.qois() if use_qoi else self.parameters()
        if data.shape[0] < 4:
            return 1.0
        return integrated_autocorrelation_time(data[:, component])

    # ------------------------------------------------------------------
    def merge(self, other: "SampleCollection") -> "SampleCollection":
        """Concatenate another collection (used by distributed collectors)."""
        self._states.extend(other._states)
        self._num_samples += other._num_samples
        return self

    def subset(self, start: int = 0, stop: int | None = None) -> "SampleCollection":
        """A view-like copy of a contiguous range of stored states."""
        result = SampleCollection()
        result._states = list(self._states[start:stop])
        result._recount()
        return result

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot (checkpointing); states are deep-copied."""
        return {"states": [state.copy() for state in self._states]}

    @classmethod
    def from_state_dict(cls, state: dict) -> "SampleCollection":
        """Rebuild a collection from a :meth:`state_dict` snapshot."""
        collection = cls()
        collection._states = [s.copy() for s in state["states"]]
        collection._recount()
        return collection

    def validate(self) -> None:
        """Raise ``ValueError`` unless the collection is internally consistent.

        Used on salvaged crash-path state: every stored state must carry a
        positive integer weight, and the weights must sum to the running
        :attr:`num_samples` counter (a torn snapshot or a half-applied merge
        breaks either).
        """
        total = 0
        for i, state in enumerate(self._states):
            weight = state.weight
            if not isinstance(weight, int) or weight <= 0:
                raise ValueError(f"state {i} has invalid weight {weight!r}")
            total += weight
        if total != self.num_samples:
            raise ValueError(
                f"weight sum {total} does not match num_samples {self.num_samples}"
            )


class CorrectionCollection:
    """Coupled (fine, coarse) QOI pairs for one telescoping correction term.

    For level 0 (no coarser level) the coarse QOI is omitted and the term
    reduces to a plain expectation of ``Q_0``.

    A Welford accumulator tracks the moments of the per-sample differences
    incrementally, so :meth:`streaming_variance` is an O(qoi_dim) read an
    adaptive allocation loop can poll mid-run; the batch :meth:`mean` /
    :meth:`variance` keep their recompute-from-scratch semantics bitwise.
    """

    def __init__(self, level: int) -> None:
        self.level = int(level)
        self._fine_qois: list[np.ndarray] = []
        self._coarse_qois: list[np.ndarray] = []
        self._diff_moments = RunningMoments()

    # ------------------------------------------------------------------
    def add(self, fine_qoi: np.ndarray, coarse_qoi: np.ndarray | None = None) -> None:
        """Record one coupled pair (or a single fine QOI on level 0)."""
        fine = np.atleast_1d(np.asarray(fine_qoi, dtype=float)).ravel()
        self._fine_qois.append(fine)
        coarse = None
        if coarse_qoi is not None:
            coarse = np.atleast_1d(np.asarray(coarse_qoi, dtype=float)).ravel()
            self._coarse_qois.append(coarse)
        elif self.level != 0:
            raise ValueError("coarse QOI required for levels above 0")
        if self.level == 0:
            self._diff_moments.push(fine)
        else:
            self._diff_moments.push(fine - coarse)

    def __len__(self) -> int:
        return len(self._fine_qois)

    @property
    def has_coarse(self) -> bool:
        """Whether this collection stores coupled coarse QOIs."""
        return bool(self._coarse_qois)

    def pair(self, index: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The ``index``-th coupled pair ``(fine QOI, coarse QOI or None)``.

        Used by parallel controllers to ship correction samples to collectors
        one by one without re-deriving the full difference matrix.
        """
        fine = self._fine_qois[index]
        coarse = self._coarse_qois[index] if index < len(self._coarse_qois) else None
        return fine, coarse

    # ------------------------------------------------------------------
    def fine_matrix(self) -> np.ndarray:
        """All fine QOIs, shape (n, qoi_dim)."""
        return np.stack(self._fine_qois) if self._fine_qois else np.zeros((0, 0))

    def coarse_matrix(self) -> np.ndarray:
        """All coarse QOIs, shape (n, qoi_dim)."""
        return np.stack(self._coarse_qois) if self._coarse_qois else np.zeros((0, 0))

    def differences(self) -> np.ndarray:
        """Per-sample correction contributions ``Q_l - Q_{l-1}`` (or ``Q_0``)."""
        fine = self.fine_matrix()
        if self.level == 0 or not self._coarse_qois:
            return fine
        coarse = self.coarse_matrix()
        n = min(fine.shape[0], coarse.shape[0])
        return fine[:n] - coarse[:n]

    def mean(self) -> np.ndarray:
        """Monte Carlo estimate of the correction term."""
        diffs = self.differences()
        return diffs.mean(axis=0) if diffs.size else np.zeros(0)

    def variance(self) -> np.ndarray:
        """Per-component sample variance of the correction contributions."""
        diffs = self.differences()
        if diffs.shape[0] < 2:
            return np.zeros(diffs.shape[1] if diffs.ndim == 2 else 0)
        return diffs.var(axis=0, ddof=1)

    def fine_mean(self) -> np.ndarray:
        """Mean of the fine QOIs alone (used for per-level posterior summaries)."""
        fine = self.fine_matrix()
        return fine.mean(axis=0) if fine.size else np.zeros(0)

    # ------------------------------------------------------------------
    def streaming_mean(self) -> np.ndarray:
        """Correction mean from the incremental accumulator (O(qoi_dim))."""
        return self._diff_moments.mean()

    def streaming_variance(self, ddof: int = 1) -> np.ndarray:
        """Per-component difference variance from the incremental accumulator.

        Matches :meth:`variance` up to floating-point round-off without
        re-deriving the difference matrix — the live signal adaptive
        allocation polls after every continuation round.
        """
        return self._diff_moments.variance(ddof=ddof)

    def _rebuild_streaming(self) -> None:
        self._diff_moments = RunningMoments()
        for row in self.differences():
            self._diff_moments.push(row)

    # ------------------------------------------------------------------
    def merge(self, other: "CorrectionCollection") -> "CorrectionCollection":
        """Merge another collection for the same level."""
        if other.level != self.level:
            raise ValueError("cannot merge correction collections of different levels")
        self._fine_qois.extend(other._fine_qois)
        self._coarse_qois.extend(other._coarse_qois)
        self._diff_moments.merge(other._diff_moments)
        return self

    def subset(self, start: int = 0, stop: int | None = None) -> "CorrectionCollection":
        """A copy of a contiguous range of pairs.

        Lets a parallel collector ship only the pairs collected since its last
        report instead of re-sending (and double-counting) the whole
        collection across continuation rounds.
        """
        result = CorrectionCollection(self.level)
        result._fine_qois = list(self._fine_qois[start:stop])
        result._coarse_qois = list(self._coarse_qois[start:stop])
        result._rebuild_streaming()
        return result

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Serializable snapshot (checkpointing); QOI arrays are copied."""
        return {
            "level": self.level,
            "fine": [np.array(q, copy=True) for q in self._fine_qois],
            "coarse": [np.array(q, copy=True) for q in self._coarse_qois],
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "CorrectionCollection":
        """Rebuild a collection from a :meth:`state_dict` snapshot."""
        collection = cls(level=int(state["level"]))
        collection._fine_qois = [np.array(q, copy=True) for q in state["fine"]]
        collection._coarse_qois = [np.array(q, copy=True) for q in state["coarse"]]
        collection._rebuild_streaming()
        return collection

    def validate(self) -> None:
        """Raise ``ValueError`` unless every correction pair is complete.

        Guards salvaged crash-path state: levels above 0 must pair every fine
        QOI with a coarse QOI (a half-recorded pair would silently bias the
        telescoping difference), QOI dimensions must agree, and every entry
        must be finite-shaped (1-d).
        """
        if self.level > 0 and len(self._coarse_qois) != len(self._fine_qois):
            raise ValueError(
                f"level {self.level}: {len(self._fine_qois)} fine QOIs but "
                f"{len(self._coarse_qois)} coarse QOIs (half-recorded pair)"
            )
        if self.level == 0 and self._coarse_qois:
            raise ValueError("level 0 must not store coarse QOIs")
        dims = {q.shape for q in self._fine_qois} | {q.shape for q in self._coarse_qois}
        if len(dims) > 1:
            raise ValueError(f"inconsistent QOI shapes in collection: {sorted(dims)}")
        for q in (*self._fine_qois, *self._coarse_qois):
            if q.ndim != 1:
                raise ValueError("correction QOIs must be 1-d arrays")
