"""Fault-tolerance policy, failure reporting and the run supervisor.

Three pieces shared by the real-process transports and the driver:

* :class:`FaultToleranceConfig` — *how* the machine reacts to dying ranks:
  heartbeat cadence, receive timeouts, how many rank restarts the run may
  spend, and whether an exhausted budget degrades into a partial result or
  raises like the legacy all-or-nothing machine.
* :class:`FailureReport` — *what happened*: which ranks died and when, what
  state died with them, which subchains were restarted where, and whether the
  run still met its contract.  The report is JSON-safe (``as_dict``) so the
  manifest can record the degradation.
* :class:`Supervisor` — *who decides*: a plain object, with no processes and
  no clock of its own, that makes every death, restart and degrade decision
  of a run.  It takes one event at a time (a rank's report, a child's exit, a
  tick) with the time it was seen and answers with the actions the transport
  carries out, so the whole lifecycle is testable with scripted events.

A death is a crash (a child exited without reporting), a reported exception
or a hang (no heartbeat for ``heartbeat_grace * heartbeat_interval_s``).
Without a config the first death is final.  With one, a restartable role is
respawned in place once its linear backoff has passed — a due time, not a
sleep — until the global restart budget is spent; a spent budget, a
non-restartable death (root, phonebook) or the join deadline ends the run.

The report never raises away completed work: when recovery is exhausted the
transport attaches the report to the run and returns, and the sampler salvages
whatever collections survived (harvested role state plus on-disk checkpoints).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple

__all__ = [
    "FaultToleranceConfig",
    "FailureReport",
    "RankFailure",
    "Reassignment",
    "Supervisor",
]

logger = logging.getLogger(__name__)

#: how long the pump blocks on reports between decisions, with and without
#: fault tolerance (without it there are no heartbeats to keep up with)
PUMP_WAIT_S = 0.2
LEGACY_PUMP_WAIT_S = 1.0
#: longest delay before a dead rank is respawned
MAX_BACKOFF_S = 5.0


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Recovery policy of one parallel run.

    Attributes
    ----------
    heartbeat_interval_s:
        How often worker ranks emit a heartbeat to the driver.  The driver
        declares a rank hung when no heartbeat arrived for
        ``heartbeat_grace * heartbeat_interval_s`` seconds.
    receive_timeout_s:
        Per-receive timeout inside the child ranks; a receive that stays
        blocked this long raises instead of waiting forever on a dead peer.
        ``None`` keeps the legacy block-forever behaviour.
    receive_poll_s:
        Granularity of the blocking-receive wait loop inside the child ranks.
        A blocked receive wakes up this often to check ``receive_timeout_s``,
        so the timeout overshoots by at most one poll interval.  Tests inject
        small values here (together with small heartbeat intervals) instead
        of waiting out hard-coded sleeps.
    max_rank_restarts:
        Total restart budget across the whole run (not per rank).
    restart_backoff_s:
        Delay before restarting a dead rank, multiplied by the number of
        times *that* rank died (linear backoff, capped at
        :data:`MAX_BACKOFF_S`).
    on_exhausted:
        ``"degrade"`` (default) returns a partial result plus a
        :class:`FailureReport` when the budget is spent or an unrecoverable
        rank dies; ``"raise"`` restores the legacy ``RuntimeError``.
    """

    heartbeat_interval_s: float = 0.5
    heartbeat_grace: float = 6.0
    receive_timeout_s: float | None = 60.0
    receive_poll_s: float = 1.0
    max_rank_restarts: int = 3
    restart_backoff_s: float = 0.25
    on_exhausted: str = "degrade"

    def __post_init__(self) -> None:
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_grace <= 0:
            raise ValueError("heartbeat_grace must be positive")
        if self.receive_timeout_s is not None and self.receive_timeout_s <= 0:
            raise ValueError("receive_timeout_s must be positive (or None)")
        if self.receive_poll_s <= 0:
            raise ValueError("receive_poll_s must be positive")
        if self.max_rank_restarts < 0:
            raise ValueError("max_rank_restarts must be non-negative")
        if self.restart_backoff_s < 0:
            raise ValueError("restart_backoff_s must be non-negative")
        if self.on_exhausted not in ("degrade", "raise"):
            raise ValueError("on_exhausted must be 'degrade' or 'raise'")

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe view for the manifest."""
        return {
            "heartbeat_interval_s": float(self.heartbeat_interval_s),
            "heartbeat_grace": float(self.heartbeat_grace),
            "receive_timeout_s": (
                None if self.receive_timeout_s is None else float(self.receive_timeout_s)
            ),
            "receive_poll_s": float(self.receive_poll_s),
            "max_rank_restarts": int(self.max_rank_restarts),
            "restart_backoff_s": float(self.restart_backoff_s),
            "on_exhausted": str(self.on_exhausted),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "FaultToleranceConfig":
        """Inverse of :meth:`as_dict` (unknown keys rejected loudly)."""
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown fault-tolerance option(s): {sorted(unknown)}")
        return cls(**data)


@dataclass
class RankFailure:
    """One observed rank death."""

    rank: int
    role: str
    when_s: float
    reason: str
    #: what died with the rank (heartbeat metadata at last contact)
    lost: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "rank": int(self.rank),
            "role": str(self.role),
            "when_s": float(self.when_s),
            "reason": str(self.reason),
            "lost": dict(self.lost),
        }


@dataclass
class Reassignment:
    """One recovery action: a dead rank's subchain restarted in its place."""

    rank: int
    role: str
    when_s: float
    #: level the replacement incarnation was bootstrapped onto (None for workers)
    level: int | None = None
    #: whether the replacement resumed from an on-disk checkpoint
    from_checkpoint: bool = False

    def as_dict(self) -> dict[str, Any]:
        return {
            "rank": int(self.rank),
            "role": str(self.role),
            "when_s": float(self.when_s),
            "level": None if self.level is None else int(self.level),
            "from_checkpoint": bool(self.from_checkpoint),
        }


@dataclass
class FailureReport:
    """Structured account of every failure and recovery action in one run."""

    failures: list[RankFailure] = field(default_factory=list)
    reassignments: list[Reassignment] = field(default_factory=list)
    restarts_used: int = 0
    #: True when the run still completed its collection targets
    recovered: bool = True
    #: why recovery stopped (empty when the run recovered)
    exhausted_reason: str = ""
    #: per-level correction-sample counts salvaged into the partial result
    salvaged_per_level: dict[int, int] = field(default_factory=dict)

    def __bool__(self) -> bool:
        return bool(self.failures)

    @property
    def dead_ranks(self) -> list[int]:
        """Ranks that died at least once, in order of first death."""
        seen: list[int] = []
        for failure in self.failures:
            if failure.rank not in seen:
                seen.append(failure.rank)
        return seen

    def as_dict(self) -> dict[str, Any]:
        """JSON-safe view recorded in the run manifest."""
        return {
            "failures": [f.as_dict() for f in self.failures],
            "reassignments": [r.as_dict() for r in self.reassignments],
            "restarts_used": int(self.restarts_used),
            "recovered": bool(self.recovered),
            "exhausted_reason": str(self.exhausted_reason),
            "salvaged_per_level": {
                str(level): int(count)
                for level, count in sorted(self.salvaged_per_level.items())
            },
        }


# -- what the supervisor takes ----------------------------------------------
class RankReport(NamedTuple):
    """A rank's ``(rank, status, payload)`` tuple: ``"ok"`` (its harvest and
    counters), ``"error"`` (a traceback) or ``"heartbeat"`` (role metadata)."""

    rank: int
    status: str
    payload: Any = None


class ChildExit(NamedTuple):
    """``rank``'s live incarnation exited; ``reports`` is everything queued
    once the fabric settled the rank, its last words among them."""

    rank: int
    exitcode: int
    reports: tuple = ()


class Tick(NamedTuple):
    """Time passed: respawns fall due, ranks fall silent, deadlines expire."""


TICK = Tick()


# -- what it answers with ------------------------------------------------------
class Absorb(NamedTuple):
    """Mark ``rank`` finished, applying its ``ok`` payload if there is one."""

    rank: int
    payload: Any = None


class Reap(NamedTuple):
    """Join ``rank``'s dead incarnation, terminating it if it lingers."""

    rank: int


class Inject(NamedTuple):
    """Deliver a driver message into ``dest``'s persistent store."""

    dest: int
    tag: str
    payload: Any = None


class Respawn(NamedTuple):
    """Start a new, chaos-free incarnation of ``rank``."""

    rank: int


class Stop(NamedTuple):
    """The run is over; :meth:`Supervisor.outcome` says how it ended."""

    reason: str


class Supervisor:
    """Every lifecycle decision of one parallel run, free of processes.

    ``processes`` are the driver-side twins by rank (their ``role``,
    ``restartable``, ``config`` and restart hooks); ``config`` is the run's
    :class:`FaultToleranceConfig` or ``None``, which makes the first death
    final.  Times are seconds on the caller's clock; the ``join_timeout``
    deadline runs from ``now``.
    """

    def __init__(
        self,
        processes: dict[int, Any],
        config: FaultToleranceConfig | None,
        backend: str,
        join_timeout: float = math.inf,
        now: float = 0.0,
    ) -> None:
        self._processes = processes
        self.config = config
        self.backend = backend
        self.join_timeout = join_timeout
        self._deadline = now + join_timeout
        #: ranks that have not delivered their result
        self.pending = set(processes)
        self._last_beat = dict.fromkeys(processes, now)
        self._meta: dict[int, dict] = {rank: {} for rank in processes}
        self._deaths = dict.fromkeys(processes, 0)
        #: dead ranks awaiting their respawn: rank -> (due time, metadata)
        self._due: dict[int, tuple[float, dict]] = {}
        self._root = next((r for r, p in processes.items() if p.role == "root"), None)
        self._root_done = False
        self.failures: list[RankFailure] = []
        self.reassignments: list[Reassignment] = []
        self.restarts_used = 0
        self.heartbeats = 0
        #: how the run ended, ``(kind, reason)``: kind is "finished", "fatal",
        #: "exhausted" or "unfinished"; None while it runs
        self.end: tuple[str, str] | None = None
        #: the report of the last :meth:`outcome`, set before it raises
        self.report: FailureReport | None = None

    @property
    def stopped(self) -> bool:
        return self.end is not None

    @property
    def clean(self) -> bool:
        """Whether every rank finished."""
        return self.end is not None and self.end[0] == "finished"

    def watched(self) -> Iterator[int]:
        """Live ranks whose exit the caller must report, re-checked as it goes."""
        for rank in sorted(self.pending):
            if self.stopped:
                return
            if rank in self.pending and rank not in self._due:
                yield rank

    def wait_s(self, now: float) -> float:
        """How long the caller may block on reports before a decision is due."""
        wait = PUMP_WAIT_S if self.config is not None else LEGACY_PUMP_WAIT_S
        due = min((when for when, _meta in self._due.values()), default=math.inf)
        return max(0.0, min(wait, self._deadline - now, due - now))

    def on_event(self, event: RankReport | ChildExit | Tick, now: float) -> list:
        """Take one event seen at ``now``; return the actions it calls for."""
        if isinstance(event, RankReport):
            actions = self._report(event, now)
        elif isinstance(event, ChildExit):
            actions = self._exit(event, now)
        else:
            actions = self._tick(now)
        if not self.pending and not self.stopped:
            actions += self._stop("finished", "every rank reported")
        return actions

    # ------------------------------------------------------------------
    def _report(self, report: RankReport, now: float) -> list:
        rank = report.rank
        if report.status == "heartbeat":
            self._last_beat[rank] = now
            self._meta[rank] = report.payload
            self.heartbeats += 1
            return []
        if report.status == "ok":
            self.pending.discard(rank)
            self._root_done |= rank == self._root
            return [Absorb(rank, report.payload)]
        return self._death(rank, f"rank reported an exception:\n{report.payload}", now)

    def _exit(self, event: ChildExit, now: float) -> list:
        # Exit code 0 means the incarnation returned normally, so its reports
        # decide; a crash is handled as of when it was seen — only its last
        # heartbeats (the restart metadata) are taken before, the rest after.
        rank, code, reports = event
        crashed = self.config is not None and code != 0
        actions = []
        for report in reports:
            if not crashed or report.status == "heartbeat":
                actions += self._report(report, now)
        role = self._processes[rank].role
        reason = f"rank {rank} ({role}) exited with code {code} without reporting"
        actions += self._death(rank, reason, now)
        for report in reports if crashed else ():
            if report.status != "heartbeat":
                actions += self._report(report, now)
        return actions

    def _tick(self, now: float) -> list:
        actions = []
        for rank, (when, meta) in sorted(self._due.items()):
            if when <= now:
                del self._due[rank]
                actions += self._respawn(rank, meta, now)
        if self.config is not None:
            limit = self.config.heartbeat_grace * self.config.heartbeat_interval_s
            for rank in sorted(self.pending - set(self._due)):
                silent = now - self._last_beat[rank]
                if silent > limit:
                    actions += self._death(rank, f"no heartbeat for {silent:.1f}s (hung)", now)
        if now >= self._deadline and not self.stopped:
            actions += self._stop(
                "unfinished",
                f"{self.backend} MLMCMC did not terminate within "
                f"{self.join_timeout:.0f}s; unfinished ranks: {sorted(self.pending)}",
            )
        return actions

    def _stop(self, kind: str, reason: str) -> list:
        self.end = (kind, reason)
        return [Stop(reason)]

    def _death(self, rank: int, reason: str, now: float) -> list:
        """What the death of ``rank``'s live incarnation means."""
        if self.stopped or rank not in self.pending or rank in self._due:
            return []  # no live incarnation: finished, awaiting respawn, or too late
        process, meta, config = self._processes[rank], self._meta[rank], self.config
        self._deaths[rank] += 1
        self.failures.append(RankFailure(rank, process.role, now, reason, dict(meta)))
        logger.warning("rank %d (%s) died: %s", rank, process.role, reason)
        if config is None:
            return [Reap(rank)] + self._stop("fatal", f"rank {rank}: {reason}")
        if meta.get("done"):
            # The rank had already delivered its result (e.g. a collector past
            # COLLECTOR_DONE); only its trace died with it.
            self.pending.discard(rank)
            return [Reap(rank), Absorb(rank)]
        if not process.restartable:
            return [Reap(rank)] + self._stop(
                "exhausted", f"rank {rank} ({process.role}) is not restartable"
            )
        if self._root_done:
            # The machine is winding down; a replacement would block on a
            # protocol that has already completed.
            self.pending.discard(rank)
            return [Reap(rank)]
        if self.restarts_used + len(self._due) >= config.max_rank_restarts:
            return [Reap(rank)] + self._stop(
                "exhausted",
                f"restart budget ({config.max_rank_restarts}) exhausted when "
                f"rank {rank} ({process.role}) died",
            )
        backoff = min(config.restart_backoff_s * self._deaths[rank], MAX_BACKOFF_S)
        self._due[rank] = (now + backoff, meta)
        return [Reap(rank)]

    def _respawn(self, rank: int, meta: dict, now: float) -> list:
        if self.stopped or self._root_done or rank not in self.pending:
            self.pending.discard(rank)  # winding down, or finished after all
            return []
        process = self._processes[rank]
        self.restarts_used += 1
        self._last_beat[rank] = now
        bootstrap = process.restart_message(meta)
        actions = [] if bootstrap is None else [Inject(rank, *bootstrap)]
        actions.append(Respawn(rank))
        # The dead incarnation took the requests it had consumed with it:
        # every live peer re-issues what it was waiting on.
        for peer in sorted(self.pending - set(self._due) - {rank}):
            notice = self._processes[peer].peer_restart_message(rank, process.role)
            if notice is not None:
                actions.append(Inject(peer, *notice))
        checkpoint = getattr(getattr(process, "config", None), "checkpoint", None)
        level = meta.get("level")
        self.reassignments.append(
            Reassignment(rank, process.role, now, level, checkpoint is not None)
        )
        logger.warning(
            "rank %d (%s) respawned (restart %d/%d)",
            rank, process.role, self.restarts_used, self.config.max_rank_restarts,
        )
        return actions

    # ------------------------------------------------------------------
    def stalled(self, dead: list[int], reason: str, now: float) -> FailureReport | None:
        """:meth:`outcome` of a machine that stopped with ``dead`` ranks unreplaced.

        The simulated backend's path: a killed virtual rank has no process to
        respawn, so it goes silent until the machine stalls.
        """
        for rank in dead:
            role = self._processes[rank].role
            self.failures.append(RankFailure(rank, role, now, "killed by the fault plan"))
        self._stop("unfinished", reason)
        return self.outcome()

    def outcome(self) -> FailureReport | None:
        """The stopped run's report: recovered, degraded, or a ``RuntimeError``.

        ``None`` when nothing failed.  A fatal death always raises; spent
        recovery and an unfinished run degrade under
        ``on_exhausted="degrade"`` and raise otherwise.
        """
        kind, reason = self.end
        report = None
        if self.failures or self.restarts_used:
            report = FailureReport(
                list(self.failures), list(self.reassignments), self.restarts_used
            )
        if kind in ("exhausted", "unfinished"):
            report = report or FailureReport()
            report.recovered, report.exhausted_reason = False, reason
        self.report = report
        if kind == "fatal":
            raise RuntimeError(f"{self.backend} MLMCMC rank failure(s):\n{reason}")
        if kind != "finished" and (self.config is None or self.config.on_exhausted == "raise"):
            prefix = f"{self.backend} MLMCMC recovery exhausted: " if kind == "exhausted" else ""
            raise RuntimeError(prefix + reason)
        return report
