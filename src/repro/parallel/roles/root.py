"""The root process.

Responsibilities (paper, Section 4.2): launch the parallel method, assign
initial tasks to work groups, request collectors to gather a given number of
samples per level, track completion and finally shut the whole machine down.
Custom (adaptive) sampling strategies are implemented here: with a
:class:`~repro.core.allocation.AllocationPolicy` configured the root runs the
continuation loop (pilot round, re-allocation from streamed variances and
costs, refinement rounds); the default strategy simply requests the
configured number of samples per level.
"""

from __future__ import annotations

from typing import Generator

import numpy as np

from repro.core.allocation import AllocationRound, LevelSnapshot
from repro.core.sample_collection import CorrectionCollection
from repro.parallel.roles.protocol import RunConfiguration, Tags
from repro.parallel.transport import RankProcess

__all__ = ["RootProcess"]


class RootProcess(RankProcess):
    """Fixed-role rank 0: job control."""

    role = "root"

    def __init__(self, rank: int, config: RunConfiguration) -> None:
        super().__init__(rank)
        self.config = config
        #: per-level correction collections received from collectors
        self.collected: dict[int, CorrectionCollection] = {}
        #: virtual time at which each level finished
        self.level_finish_times: dict[int, float] = {}
        self.finish_time: float = 0.0
        #: realized allocation trajectory (adaptive runs; empty otherwise)
        self.allocation_rounds: list[AllocationRound] = []
        #: rank respawns to be told of before shutting the machine down.  A
        #: scripted kill tests recovery only if it is handled before the run
        #: completes; a recovery test sets this to its number of kills so a
        #: fast run cannot finish first.  0 (the default) waits for nothing.
        self.hold_for_restarts = 0

    def peer_restart_message(self, rank: int, role: str) -> tuple[str, dict] | None:
        if self.hold_for_restarts <= 0:
            return None
        return (Tags.PEER_RESTARTED, {"rank": int(rank), "role": role})

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        config = self.config
        layout = config.layout

        # 1. Assign every work group to its initial level.
        for group in layout.work_groups:
            yield self.send(
                group.controller_rank,
                Tags.ASSIGN,
                {"level": group.initial_level, "group": group},
            )

        if config.allocation is None:
            yield from self._run_static()
        else:
            yield from self._run_adaptive()

        for _ in range(self.hold_for_restarts):
            yield self.recv(Tags.PEER_RESTARTED)

        # 4. Shut everything down.
        self.finish_time = self.now
        yield self.send(layout.phonebook_rank, Tags.SHUTDOWN, {})
        for group in layout.work_groups:
            yield self.send(group.controller_rank, Tags.SHUTDOWN, {})
        for collector_ranks in layout.collector_ranks.values():
            for collector_rank in collector_ranks:
                yield self.send(collector_rank, Tags.SHUTDOWN, {})

    # ------------------------------------------------------------------
    def _run_static(self) -> Generator:
        """One-shot collection of the configured per-level sample targets."""
        config = self.config
        layout = config.layout

        # 2. Ask collectors to gather their share of the per-level targets.
        outstanding = 0
        for level, collector_ranks in sorted(layout.collector_ranks.items()):
            target_total = int(config.num_samples[level])
            shares = self._split(target_total, len(collector_ranks))
            for collector_rank, share in zip(collector_ranks, shares):
                yield self.send(
                    collector_rank, Tags.COLLECT, {"level": level, "target": share}
                )
                outstanding += 1

        # 3. Wait for all collectors to report completion.
        done_per_level: dict[int, int] = {level: 0 for level in layout.collector_ranks}
        while outstanding > 0:
            message = yield self.recv(Tags.COLLECTOR_DONE)
            outstanding -= 1
            level = int(message.payload["level"])
            collection: CorrectionCollection = message.payload["collection"]
            if level in self.collected:
                self.collected[level].merge(collection)
            else:
                self.collected[level] = collection
            done_per_level[level] += 1
            if done_per_level[level] == len(layout.collector_ranks[level]):
                self.level_finish_times[level] = self.now
                # Tell the phonebook the level's collection target is met so the
                # load balancer may move its work groups elsewhere.
                yield self.send(layout.phonebook_rank, Tags.LEVEL_DONE, {"level": level})

    # ------------------------------------------------------------------
    def _run_adaptive(self) -> Generator:
        """Continuation loop: collect a round, measure, re-allocate, repeat.

        Each round sends every collector a *cumulative* target (its running
        total across rounds); collectors ship only the correction pairs added
        since their last report, so merging here never double-counts.  Level
        completion is only known once the policy stops, so ``LEVEL_DONE`` is
        broadcast for every level at the end; between rounds the phonebook is
        kept current via ``TARGETS_UPDATE`` so the load balancer can weigh
        estimated remaining work per level.
        """
        config = self.config
        layout = config.layout
        policy = config.allocation
        num_levels = config.num_levels
        targets = [int(t) for t in policy.initial_targets(num_levels)]
        collected_counts = [0] * num_levels
        #: cumulative target shipped to each collector rank so far
        shipped: dict[int, int] = {}

        while True:
            outstanding = 0
            for level, collector_ranks in sorted(layout.collector_ranks.items()):
                extra = max(0, targets[level] - collected_counts[level])
                shares = self._split(extra, len(collector_ranks))
                for collector_rank, share in zip(collector_ranks, shares):
                    cumulative = shipped.get(collector_rank, 0) + share
                    shipped[collector_rank] = cumulative
                    # Zero-extra shares are still sent: the collector replies
                    # with an empty delta, which keeps the outstanding count
                    # uniform across rounds.
                    yield self.send(
                        collector_rank,
                        Tags.COLLECT,
                        {"level": level, "target": cumulative},
                    )
                    outstanding += 1

            while outstanding > 0:
                message = yield self.recv(Tags.COLLECTOR_DONE)
                outstanding -= 1
                level = int(message.payload["level"])
                collection: CorrectionCollection = message.payload["collection"]
                if level in self.collected:
                    self.collected[level].merge(collection)
                else:
                    self.collected[level] = collection

            snapshots = []
            for level in range(num_levels):
                coll = self.collected.get(level)
                count = len(coll) if coll is not None else 0
                collected_counts[level] = count
                var = coll.variance() if coll is not None else np.zeros(0)
                variance = float(np.mean(var)) if var.size else 0.0
                # The configured cost model (not wall time) keeps the
                # allocation trajectory deterministic across transports.
                cost = float(config.cost_model.mean(level))
                snapshots.append(
                    LevelSnapshot(
                        level=level,
                        num_samples=count,
                        variance=variance,
                        cost_per_sample=cost,
                        total_cost=cost * count,
                    )
                )

            new_targets = policy.update(snapshots)
            self.allocation_rounds.append(
                AllocationRound(
                    round_index=len(self.allocation_rounds),
                    targets=list(targets),
                    collected=[s.num_samples for s in snapshots],
                    variances=[s.variance for s in snapshots],
                    costs_per_sample=[s.cost_per_sample for s in snapshots],
                    spent_cost=sum(s.total_cost for s in snapshots),
                )
            )
            if new_targets is None:
                break
            targets = [
                max(int(t), collected_counts[level])
                for level, t in enumerate(new_targets)
            ]
            yield self.send(
                layout.phonebook_rank,
                Tags.TARGETS_UPDATE,
                {"targets": list(targets), "collected": list(collected_counts)},
            )

        for level in sorted(layout.collector_ranks):
            self.level_finish_times[level] = self.now
            yield self.send(layout.phonebook_rank, Tags.LEVEL_DONE, {"level": level})

    # ------------------------------------------------------------------
    def harvest(self) -> dict:
        """Ship the collected corrections back to the driver (multiprocess runs)."""
        return {
            "collected": self.collected,
            "level_finish_times": self.level_finish_times,
            "finish_time": self.finish_time,
            "allocation_rounds": self.allocation_rounds,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def _split(total: int, parts: int) -> list[int]:
        """Split ``total`` into ``parts`` nearly equal positive integers."""
        if parts <= 0:
            return []
        base = total // parts
        remainder = total % parts
        return [base + (1 if i < remainder else 0) for i in range(parts)]
