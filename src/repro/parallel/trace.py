"""Execution traces of parallel runs.

The paper's Fig. 9 visualises the dynamic load balancer as a Gantt chart: one
row per process, green boxes for model evaluations, yellow boxes for burn-in
phases.  :class:`TraceRecorder` collects exactly that information from the
virtual world (every ``Compute`` primitive and every blocked-receive interval)
and offers utilisation summaries used by the scaling and load-balancing
benchmarks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

__all__ = ["TraceEvent", "TraceRecorder"]

#: activity kinds :meth:`TraceRecorder.utilization` counts as busy
BUSY_KINDS = ("model_eval", "burnin", "compute")


class TraceEvent(NamedTuple):
    """One interval in a rank's timeline.

    A named tuple rather than a dataclass: one is built per ``Compute`` and
    per blocked receive, and real-process ranks pickle theirs home.
    """

    rank: int
    start: float
    end: float
    kind: str  # "model_eval" | "burnin" | "wait" | "compute" | ...
    level: int | None = None
    label: str = ""

    @property
    def duration(self) -> float:
        """Interval length."""
        return self.end - self.start


class TraceRecorder:
    """Collects trace events and computes utilisation statistics."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self._events: list[TraceEvent] = []

    # ------------------------------------------------------------------
    def record(
        self,
        rank: int,
        start: float,
        end: float,
        kind: str,
        level: int | None = None,
        label: str = "",
    ) -> None:
        """Record one interval (no-op when disabled or empty)."""
        if not self.enabled or end <= start:
            return
        self._events.append(TraceEvent(rank, float(start), float(end), kind, level, label))

    def extend(self, events: Iterable[TraceEvent]) -> None:
        """Merge already-recorded events (e.g. shipped back from a child process)."""
        if not self.enabled:
            return
        self._events.extend(events)

    def events(self, kinds: Iterable[str] | None = None) -> list[TraceEvent]:
        """All events, optionally filtered by kind."""
        if kinds is None:
            return list(self._events)
        wanted = set(kinds)
        return [e for e in self._events if e.kind in wanted]

    def __len__(self) -> int:
        return len(self._events)

    # ------------------------------------------------------------------
    @property
    def makespan(self) -> float:
        """Latest event end time."""
        return max((e.end for e in self._events), default=0.0)

    def _busy_times(self, kinds: Iterable[str]) -> dict[int, float]:
        """Every rank's busy time in one pass, summed in recording order."""
        wanted = set(kinds)
        totals: dict[int, float] = {}
        for e in self._events:
            if e.kind in wanted:
                totals[e.rank] = totals.get(e.rank, 0.0) + e.duration
        return totals

    def busy_time(self, rank: int, kinds: Iterable[str] = BUSY_KINDS) -> float:
        """Total time ``rank`` spent in the given activity kinds."""
        return self._busy_times(kinds).get(rank, 0.0)

    def utilization(self, ranks: Iterable[int] | None = None) -> float:
        """Mean fraction of the makespan the given ranks spent busy.

        Returns ``nan`` when the recorder is disabled: no events were
        collected, so "0 % busy" would be indistinguishable from a genuinely
        idle machine.
        """
        if not self.enabled:
            return float("nan")
        span = self.makespan
        if span <= 0:
            return 0.0
        if ranks is None:
            ranks = sorted({e.rank for e in self._events})
        ranks = list(ranks)
        if not ranks:
            return 0.0
        busy = self._busy_times(BUSY_KINDS)
        return float(np.mean([busy.get(rank, 0.0) / span for rank in ranks]))

    def per_level_busy_time(self) -> dict[int, float]:
        """Total model-evaluation time per level across all ranks."""
        totals: dict[int, float] = {}
        for event in self._events:
            if event.kind in ("model_eval", "burnin") and event.level is not None:
                totals[event.level] = totals.get(event.level, 0.0) + event.duration
        return totals

    # ------------------------------------------------------------------
    def gantt_rows(self) -> dict[int, list[tuple[float, float, str, int | None]]]:
        """Per-rank interval lists ``(start, end, kind, level)`` — the Fig. 9 data."""
        rows: dict[int, list[tuple[float, float, str, int | None]]] = {}
        for event in sorted(self._events, key=lambda e: (e.rank, e.start)):
            rows.setdefault(event.rank, []).append(
                (event.start, event.end, event.kind, event.level)
            )
        return rows

    def render_ascii(self, width: int = 80, kinds_symbols: dict[str, str] | None = None) -> str:
        """A coarse ASCII rendering of the Gantt chart (for examples / logs).

        Every cell shows the last interval, in :meth:`gantt_rows` order, covering it.
        """
        symbols = kinds_symbols or {
            "model_eval": "#",
            "burnin": "o",
            "wait": ".",
            "compute": "+",
        }
        span = self.makespan
        if span <= 0:
            return "(empty trace)"
        events = self._events
        n = len(events)
        ranks = np.fromiter((e.rank for e in events), np.int64, n)
        starts = np.fromiter((e.start for e in events), float, n)
        order = np.lexsort((starts, ranks))  # stable, like ``gantt_rows``
        ordered = [events[k] for k in order]
        row_ranks, rows = np.unique(ranks[order], return_inverse=True)
        lo = (starts[order] / span * (width - 1)).astype(np.int32)
        hi = (np.fromiter((e.end for e in ordered), float, n) / span * (width - 1)).astype(np.int32)
        counts = np.minimum(np.maximum(lo + 1, hi), width) - lo
        # one entry per painted cell, painters ascending: its flat cell index
        painter = np.repeat(np.arange(n, dtype=np.int32), counts)
        first_cell = rows.astype(np.int32) * width + lo - (np.cumsum(counts) - counts)
        cells = np.arange(painter.size, dtype=np.int32) + np.repeat(first_cell, counts)
        owner = np.full(row_ranks.size * width, -1, dtype=np.int32)
        np.maximum.at(owner, cells, painter)  # the last painter wins
        # owner -1 (no painter) picks the trailing blank
        painted = [symbols.get(e.kind, "?") for e in ordered] + [" "]
        lines = [
            f"rank {int(rank):4d} |{''.join([painted[k] for k in row])}|"
            for rank, row in zip(row_ranks, owner.reshape(-1, width))
        ]
        return "\n".join(lines)
