"""Gauge (buoy) recording and wave observables.

The tsunami likelihood of the paper is built from two scalar observables per
DART buoy: the maximum sea-surface-height anomaly and the time at which it is
reached (Table 1).  :class:`Gauge` records the free-surface time series at a
fixed location during a simulation; :func:`wave_observables` reduces a record
to the ``(max height, arrival time)`` pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Gauge", "GaugeRecord", "wave_observables", "wave_observables_batch"]


@dataclass
class Gauge:
    """A fixed observation point (synthetic DART buoy).

    Attributes
    ----------
    name:
        Identifier, e.g. ``"21418"``.
    x, y:
        Physical coordinates in metres.
    """

    name: str
    x: float
    y: float


@dataclass
class GaugeRecord:
    """Time series of the sea-surface-height anomaly at one gauge."""

    gauge: Gauge
    times: list[float] = field(default_factory=list)
    ssha: list[float] = field(default_factory=list)

    @classmethod
    def from_arrays(cls, gauge: Gauge, times: np.ndarray, ssha: np.ndarray) -> "GaugeRecord":
        """A record holding whole ``times`` / ``ssha`` series (one ``tolist()`` each)."""
        return cls(
            gauge=gauge,
            times=np.asarray(times, dtype=float).tolist(),
            ssha=np.asarray(ssha, dtype=float).tolist(),
        )

    def append(self, time: float, value: float) -> None:
        """Record one sample."""
        self.times.append(float(time))
        self.ssha.append(float(value))

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The record as ``(times, ssha)`` NumPy arrays."""
        return np.asarray(self.times, dtype=float), np.asarray(self.ssha, dtype=float)

    @property
    def max_height(self) -> float:
        """Maximum recorded sea-surface-height anomaly."""
        if not self.ssha:
            return 0.0
        return float(np.max(self.ssha))

    @property
    def time_of_max(self) -> float:
        """Time at which the maximum is attained (seconds)."""
        if not self.ssha:
            return 0.0
        return float(self.times[int(np.argmax(self.ssha))])

    def arrival_time(self, threshold: float = 0.05) -> float:
        """First time the anomaly exceeds ``threshold`` (seconds); ``inf`` if never."""
        times, ssha = self.as_arrays()
        above = np.nonzero(ssha > threshold)[0]
        if above.size == 0:
            return float("inf")
        return float(times[above[0]])


def wave_observables(
    records: list[GaugeRecord], time_unit: float = 60.0
) -> np.ndarray:
    """Reduce gauge records to the likelihood observable vector.

    The layout matches the paper's Table 1: first the maximum wave heights of
    all gauges (metres), then the times of the maxima (divided by
    ``time_unit``; 60 s converts to minutes, giving magnitudes comparable to
    the paper's 30.23 / 87.98 entries).
    """
    heights = [record.max_height for record in records]
    times = [record.time_of_max / time_unit for record in records]
    return np.asarray(heights + times, dtype=float)


def wave_observables_batch(
    times: np.ndarray,
    ssha: np.ndarray,
    sample_counts: np.ndarray | None = None,
    time_unit: float = 60.0,
) -> np.ndarray:
    """Vectorized :func:`wave_observables` over an ensemble of gauge series.

    Parameters
    ----------
    times:
        Per-member sample times, shape ``(B, S)``.
    ssha:
        Sea-surface-height anomalies, shape ``(B, S, G)``.
    sample_counts:
        Number of valid samples per member (entries beyond a member's count
        are padding and ignored); ``None`` treats every sample as valid.
    time_unit:
        Divisor for the time-of-maximum observables (60 s gives minutes).

    Returns
    -------
    Observables of shape ``(B, 2 * G)``: per member, first every gauge's
    maximum anomaly, then the times of those maxima — row-identical to
    :func:`wave_observables` applied to each member's records.
    """
    times = np.asarray(times, dtype=float)
    ssha = np.asarray(ssha, dtype=float)
    num_members, num_samples, num_gauges = ssha.shape
    if num_gauges == 0:
        return np.zeros((num_members, 0))
    if sample_counts is not None:
        valid = np.arange(num_samples)[None, :] < np.asarray(sample_counts)[:, None]
        ssha = np.where(valid[:, :, None], ssha, -np.inf)
    heights = ssha.max(axis=1)
    first_max = ssha.argmax(axis=1)  # first occurrence, like np.argmax on a list
    peak_times = times[np.arange(num_members)[:, None], first_max] / time_unit
    return np.concatenate([heights, peak_times], axis=1)
