"""The phonebook process.

The phonebook is the directory of the parallel method (paper, Section 4.2):
it knows which controllers currently sample which level, which of them hold
fresh samples, and it matches sample requests (from finer chains and from
collectors) to providers.  Because every request and every availability
notification passes through it, it can infer the computational load per level
— the basis of the dynamic load balancer (Section 4.3) it hosts.

Every message of the run passes through this one rank, so its per-message
work is kept O(levels): per-level views of the directory are rebuilt only when
membership changes, and per-level totals of buffered samples and queued
collector requests are updated at every change instead of being re-summed.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.parallel.loadbalancer import (
    DynamicLoadBalancer,
    LevelLoad,
    RebalanceDecision,
    StaticLoadBalancer,
)
from repro.parallel.roles.protocol import RunConfiguration, Tags
from repro.parallel.transport import Message
from repro.parallel.transport import RankProcess

__all__ = ["PhonebookProcess"]


class _ControllerInfo:
    """Phonebook-side view of one controller."""

    __slots__ = ("rank", "level", "available_samples", "available_corrections")

    def __init__(self, rank: int, level: int) -> None:
        self.rank = rank
        self.level = level
        self.available_samples = 0
        self.available_corrections = 0


class PhonebookProcess(RankProcess):
    """Fixed-role rank 1: sample matchmaking and dynamic load balancing."""

    role = "phonebook"

    def __init__(self, rank: int, config: RunConfiguration) -> None:
        super().__init__(rank)
        self.config = config
        # Per-level evaluation time inferred from the durations controllers
        # report (an exponential moving average); ``None`` until observed.
        self._measured_cost: list[float | None] = [None] * config.num_levels
        # A freshly reassigned work group only contributes after re-running its
        # burn-in, so decisions are spaced by a fraction of the typical burn-in time.
        burnin_times = [
            config.burnin[level] * config.cost_model.mean(level)
            for level in range(config.num_levels)
        ]
        min_interval = 0.25 * float(sum(burnin_times) / max(1, len(burnin_times)))
        self.balancer = (
            DynamicLoadBalancer(level_cost=self.level_cost, min_interval=min_interval)
            if config.dynamic_load_balancing
            else StaticLoadBalancer()
        )
        # directory state
        self._controllers: dict[int, _ControllerInfo] = {}
        # ``_controllers`` split by level (in dict order), rebuilt on
        # membership changes only, plus running per-level totals of buffered
        # samples / corrections and of queued collector-request counts.
        self._by_level: list[list[_ControllerInfo]] = [[] for _ in range(config.num_levels)]
        self._buffered_samples = [0] * config.num_levels
        self._buffered_corrections = [0] * config.num_levels
        self._collector_requested = [0] * config.num_levels
        self._chain_requests: dict[int, deque[int]] = {
            level: deque() for level in range(config.num_levels)
        }
        self._collector_requests: dict[int, deque[tuple[int, int]]] = {
            level: deque() for level in range(config.num_levels)
        }
        self._level_done: dict[int, bool] = {level: False for level in range(config.num_levels)}
        self._migrating: set[int] = set()
        # Live per-level sample targets: static runs know them up front, while
        # adaptive runs start from the policy's pilot plan and are kept current
        # by the root's TARGETS_UPDATE broadcasts between continuation rounds.
        if config.allocation is not None:
            self._live_targets = [
                int(t) for t in config.allocation.initial_targets(config.num_levels)
            ]
        else:
            self._live_targets = [int(n) for n in config.num_samples]
        self._collected_reported = [0] * config.num_levels
        self._corrections_dispatched = [0] * config.num_levels
        #: record of all rebalancing decisions (time, source level, target level)
        self.rebalance_log: list[tuple[float, RebalanceDecision]] = []
        # Time-averaged load signals: instantaneous queue lengths fluctuate on the
        # scale of single messages, so the balancer integrates them over the
        # window since its last decision ("sample requests remain queued" is a
        # statement about persistence, not about one instant).
        self._load_window_start = 0.0
        self._last_integration_time = 0.0
        self._load_integrals: dict[int, dict[str, float]] = {
            level: {"chain": 0.0, "coll": 0.0, "avail": 0.0}
            for level in range(config.num_levels)
        }
        # After moving a group to a level, hold off further decisions until that
        # group had a realistic chance to finish its burn-in and provide its
        # first sample ("a new group ... only reduces that level's load once it
        # actually provides its first sample", Section 4.3).
        self._rebalance_cooldown_until = 0.0

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        while True:
            message = yield self.recv()
            if message.tag == Tags.SHUTDOWN:
                return
            self._integrate_loads()
            self._handle(message)
            decision = self._maybe_rebalance()
            if decision is not None:
                yield from self._apply_rebalance(decision)
            # Forward any matches made possible by this message.
            yield from self._dispatch_matches()

    # ------------------------------------------------------------------
    def _handle(self, message: Message) -> None:
        tag, payload = message.tag, message.payload
        if tag == Tags.REGISTER:
            rank, level = int(payload["rank"]), int(payload["level"])
            # A re-REGISTER of a live rank keeps its dict slot but starts over
            # with an empty buffer, possibly on another level.
            self._drop_buffered(self._controllers.get(rank))
            self._controllers[rank] = _ControllerInfo(rank, level)
            self._migrating.discard(rank)
            self._rebuild_levels()
        elif tag == Tags.UNREGISTER:
            self._remove_controller(int(payload["rank"]))
        elif tag == Tags.SAMPLE_READY:
            info = self._controllers.get(int(payload["rank"]))
            if info is not None:
                count = int(payload.get("count", 1))
                info.available_samples += count
                self._buffered_samples[info.level] += count
            duration = payload.get("duration")
            if duration is not None:
                self._observe_cost(int(payload["level"]), float(duration))
        elif tag == Tags.CORRECTION_READY:
            info = self._controllers.get(int(payload["rank"]))
            if info is not None:
                count = int(payload.get("count", 1))
                info.available_corrections += count
                self._buffered_corrections[info.level] += count
            duration = payload.get("duration")
            if duration is not None:
                self._observe_cost(int(payload["level"]), float(duration))
        elif tag == Tags.SAMPLE_REQUEST:
            level = int(payload["level"])
            self._chain_requests[level].append(int(payload["requester"]))
        elif tag == Tags.CORRECTION_REQUEST:
            level = int(payload["level"])
            count = int(payload.get("count", 1))
            self._collector_requests[level].append((int(payload["requester"]), count))
            self._collector_requested[level] += count
        elif tag == Tags.LEVEL_DONE:
            self._level_done[int(payload["level"])] = True
        elif tag == Tags.TARGETS_UPDATE:
            self._live_targets = [int(t) for t in payload["targets"]]
            self._collected_reported = [int(c) for c in payload["collected"]]

    # ------------------------------------------------------------------
    def _observe_cost(self, level: int, duration: float) -> None:
        """Blend one reported evaluation duration into the level's estimate."""
        if duration <= 0:
            return
        measured = self._measured_cost[level]
        self._measured_cost[level] = (
            duration if measured is None else 0.8 * measured + 0.2 * duration
        )

    def level_cost(self, level: int) -> float:
        """The measured evaluation time of a level, else the configured mean."""
        measured = self._measured_cost[level]
        return self.config.cost_model.mean(level) if measured is None else measured

    def _rebuild_levels(self) -> None:
        """Re-derive the per-level views after a membership change."""
        by_level: list[list[_ControllerInfo]] = [[] for _ in self._by_level]
        for info in self._controllers.values():
            by_level[info.level].append(info)
        self._by_level = by_level

    def _drop_buffered(self, info: _ControllerInfo | None) -> None:
        """Take a departing entry's buffered samples out of its level's totals."""
        if info is not None:
            self._buffered_samples[info.level] -= info.available_samples
            self._buffered_corrections[info.level] -= info.available_corrections

    def _remove_controller(self, rank: int) -> None:
        info = self._controllers.pop(rank, None)
        if info is not None:
            self._drop_buffered(info)
            self._rebuild_levels()

    def _dispatch_matches(self) -> Generator:
        """Match queued requests against available samples and send FETCH orders.

        Providers are served in directory order, each until its buffer or the
        queue runs dry; a level with nothing buffered is skipped unscanned.
        """
        for level in range(self.config.num_levels):
            providers = self._by_level[level]
            # Chain requests first: an unanswered chain request stalls a chain.
            queue = self._chain_requests[level]
            if queue and self._buffered_samples[level]:
                for provider in providers:
                    while queue and provider.available_samples > 0:
                        requester = queue.popleft()
                        provider.available_samples -= 1
                        self._buffered_samples[level] -= 1
                        yield self.send(
                            provider.rank,
                            Tags.FETCH_SAMPLE,
                            {"requester": requester, "level": level},
                        )
                    if not queue:
                        break
            cqueue = self._collector_requests[level]
            if cqueue and self._buffered_corrections[level]:
                for provider in providers:
                    while cqueue and provider.available_corrections > 0:
                        requester, count = cqueue.popleft()
                        take = min(count, provider.available_corrections)
                        provider.available_corrections -= take
                        self._buffered_corrections[level] -= take
                        self._collector_requested[level] -= count
                        self._corrections_dispatched[level] += take
                        yield self.send(
                            provider.rank,
                            Tags.FETCH_CORRECTION,
                            {"requester": requester, "count": take, "level": level},
                        )
                    if not cqueue:
                        break

    # ------------------------------------------------------------------
    def _integrate_loads(self) -> None:
        """Accumulate time-weighted queue lengths since the last integration."""
        dt = self.now - self._last_integration_time
        if dt <= 0:
            return
        for level in range(self.config.num_levels):
            integrals = self._load_integrals[level]
            integrals["chain"] += dt * len(self._chain_requests[level])
            integrals["coll"] += dt * self._collector_requested[level]
            integrals["avail"] += dt * (
                self._buffered_samples[level] + self._buffered_corrections[level]
            )
        self._last_integration_time = self.now

    def _reset_load_window(self) -> None:
        for integrals in self._load_integrals.values():
            integrals["chain"] = integrals["coll"] = integrals["avail"] = 0.0
        self._load_window_start = self.now
        self._last_integration_time = self.now

    def _current_loads(self) -> dict[int, LevelLoad]:
        """Time-averaged load view over the window since the last rebalance."""
        window = max(self.now - self._load_window_start, 1e-12)
        loads: dict[int, LevelLoad] = {}
        # Adaptive runs: estimate each level's share of the *remaining* work
        # (outstanding samples times measured cost) from the live allocation
        # targets.  Static runs leave the signal at zero, preserving the
        # balancer's legacy pressure values exactly.
        remaining_costs = [0.0] * self.config.num_levels
        if self.config.allocation is not None:
            for level in range(self.config.num_levels):
                done_count = max(
                    self._corrections_dispatched[level],
                    self._collected_reported[level],
                )
                outstanding = max(0, self._live_targets[level] - done_count)
                remaining_costs[level] = outstanding * self.level_cost(level)
        total_remaining = sum(remaining_costs)
        for level in range(self.config.num_levels):
            # A level is needed as a proposal source as long as ANY finer level
            # still has work to do: level l feeds l+1, which feeds l+2, and so on.
            finer_done = all(
                self._level_done.get(finer, True)
                for finer in range(level + 1, self.config.num_levels)
            )
            integrals = self._load_integrals[level]
            loads[level] = LevelLoad(
                level=level,
                queued_chain_requests=integrals["chain"] / window,
                queued_collector_requests=integrals["coll"] / window,
                available_samples=integrals["avail"] / window,
                available_corrections=0.0,
                num_groups=len(self._by_level[level]),
                done=self._level_done[level],
                needed_as_proposal_source=not finer_done,
                estimated_remaining_work=(
                    remaining_costs[level] / total_remaining
                    if total_remaining > 0
                    else 0.0
                ),
            )
        return loads

    def _maybe_rebalance(self) -> RebalanceDecision | None:
        if self.now < self._rebalance_cooldown_until:
            return None
        # Let load signals accumulate over a meaningful window before acting.
        min_window = getattr(self.balancer, "min_interval", 0.0)
        if self.now - self._load_window_start < max(min_window, 1e-9):
            return None
        decision = self.balancer.decide(self._current_loads(), self.now)
        if decision is not None:
            self._reset_load_window()
            # The reassigned group must redo burn-in before it helps; freeze
            # further decisions for that long (plus one model evaluation of slack).
            target = decision.target_level
            burnin_time = self.config.burnin[target] * self.level_cost(target)
            self._rebalance_cooldown_until = self.now + burnin_time + self.level_cost(target)
        return decision

    def _apply_rebalance(self, decision: RebalanceDecision) -> Generator:
        """Pick a controller on the donor level and order it to switch levels."""
        candidates = [
            c for c in self._by_level[decision.source_level] if c.rank not in self._migrating
        ]
        if not candidates:
            return
        # Prefer the controller with the fewest buffered samples (least disruptive).
        chosen = min(candidates, key=lambda c: c.available_samples + c.available_corrections)
        self._migrating.add(chosen.rank)
        # Remove it from the donor level's directory immediately so repeated
        # decisions do not keep choosing the same group; it re-registers on arrival.
        self._remove_controller(chosen.rank)
        self.rebalance_log.append((self.now, decision))
        yield self.send(
            chosen.rank,
            Tags.REASSIGN,
            {"level": decision.target_level, "reason": decision.reason},
        )

    # ------------------------------------------------------------------
    def harvest(self) -> dict:
        """Ship the rebalancing log back to the driver (multiprocess runs)."""
        return {"rebalance_log": self.rebalance_log}

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["num_rebalances"] = len(self.rebalance_log)
        return info
