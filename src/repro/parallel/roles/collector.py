"""Collector processes.

Collectors gather correction samples for one level of the telescoping sum
(paper, Section 4.2): they request samples from controllers via the phonebook
and accumulate them in a distributed collection; several collectors may share
a level, in which case the root merges their partial collections.
"""

from __future__ import annotations

from typing import Generator

from repro.core.sample_collection import CorrectionCollection
from repro.parallel.checkpoint import CheckpointError
from repro.parallel.roles.protocol import RunConfiguration, Tags
from repro.parallel.transport import RankProcess

__all__ = ["CollectorProcess"]


class CollectorProcess(RankProcess):
    """Dynamic-role rank accumulating one level's correction samples."""

    role = "collector"
    restartable = True

    def __init__(self, rank: int, config: RunConfiguration) -> None:
        super().__init__(rank)
        self.config = config
        self.level: int | None = None
        self.target = 0
        self.collection: CorrectionCollection | None = None
        #: assignment the root sent (recorded by the sampler so a respawn can
        #: be re-issued the same COLLECT order without involving the root)
        self.assigned_level: int | None = None
        self.assigned_target: int | None = None
        self._done = False
        #: pairs already shipped to the root (adaptive runs report deltas)
        self._reported = 0

    # -- fault tolerance ------------------------------------------------
    def heartbeat_state(self) -> dict:
        return {
            "level": self.level,
            "collected": len(self.collection) if self.collection is not None else 0,
            "done": self._done,
        }

    def restart_message(self, heartbeat_meta: dict) -> tuple[str, dict] | None:
        meta = heartbeat_meta or {}
        level = meta.get("level")
        if level is None:
            level = self.assigned_level
        target = self.assigned_target
        if level is None or target is None:
            return None
        return (Tags.COLLECT, {"level": int(level), "target": int(target)})

    def peer_restart_message(self, rank: int, role: str) -> tuple[str, dict] | None:
        # A respawned controller may have died holding our fetch order.
        if role != "controller":
            return None
        return (Tags.PEER_RESTARTED, {"rank": int(rank)})

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        config = self.config
        message = yield self.recv(Tags.COLLECT, Tags.SHUTDOWN)
        if message.tag == Tags.SHUTDOWN:
            return
        self.level = int(message.payload["level"])
        self.target = int(message.payload["target"])
        self.collection = CorrectionCollection(level=self.level)

        # A respawned collector resumes its partial collection from its last
        # snapshot instead of re-collecting its whole share.  Adaptive runs
        # skip the restore: the root already merged earlier deltas, so a
        # restored collection would double-count them on the next report.
        checkpointer = config.checkpointer()
        if checkpointer is not None and config.allocation is None:
            try:
                snapshot = checkpointer.read(self.rank, self.role)
            except CheckpointError:
                snapshot = None
            if snapshot is not None and int(snapshot["level"]) == self.level:
                restored = CorrectionCollection.from_state_dict(snapshot["collection"])
                if len(restored) <= self.target:
                    self.collection = restored

        while True:
            outstanding = 0
            while len(self.collection) < self.target:
                # Keep one batched request in flight at a time.
                if outstanding == 0:
                    remaining = self.target - len(self.collection)
                    count = min(config.correction_batch, remaining)
                    yield self.send(
                        config.layout.phonebook_rank,
                        Tags.CORRECTION_REQUEST,
                        {"level": self.level, "requester": self.rank, "count": count},
                    )
                    outstanding = count
                message = yield self.recv(
                    Tags.CORRECTIONS, Tags.SHUTDOWN, Tags.PEER_RESTARTED
                )
                if message.tag == Tags.SHUTDOWN:
                    return
                if message.tag == Tags.PEER_RESTARTED:
                    # The request may have died with a controller: re-issue
                    # it (a late answer to the old one only tops up the
                    # collection, which stops at its target).
                    outstanding = 0
                    continue
                payload = message.payload
                # Responses produced by a controller that has since switched levels
                # are discarded; the request is simply re-issued on the next round.
                if int(payload.get("level", self.level)) == self.level:
                    # One append per block, topped off at the target.
                    fine, coarse = payload["fine"], payload["coarse"]
                    added = max(0, min(len(fine), self.target - len(self.collection)))
                    self.collection.extend(
                        fine[:added], None if coarse is None else coarse[:added]
                    )
                    if added and checkpointer is not None and checkpointer.due(added):
                        checkpointer.write(
                            self.rank,
                            self.role,
                            {"level": self.level, "collection": self.collection.state_dict()},
                        )
                outstanding = 0

            # Snapshot the complete collection before reporting: if this rank dies
            # between DONE and SHUTDOWN, the driver can still salvage its share.
            if checkpointer is not None:
                checkpointer.write(
                    self.rank,
                    self.role,
                    {"level": self.level, "collection": self.collection.state_dict()},
                )
            self._done = True
            if config.allocation is None:
                report = self.collection
            else:
                # Ship only the pairs added since the last report.  The copy
                # also matters on the simulated backend, where messages carry
                # object references: the root must not alias a collection this
                # rank keeps appending to in later rounds.
                report = self.collection.subset(self._reported)
                self._reported = len(self.collection)
            yield self.send(
                config.layout.root_rank,
                Tags.COLLECTOR_DONE,
                {"level": self.level, "collection": report},
            )
            # Wait for the global shutdown (or, in adaptive runs, the next
            # cumulative COLLECT order) while absorbing late messages.
            message = None
            while True:
                message = yield self.recv(
                    Tags.SHUTDOWN, Tags.CORRECTIONS, Tags.COLLECT, Tags.PEER_RESTARTED
                )
                if message.tag not in (Tags.CORRECTIONS, Tags.PEER_RESTARTED):
                    break
            if message.tag == Tags.SHUTDOWN:
                return
            new_level = int(message.payload["level"])
            self.assigned_level = new_level
            self.assigned_target = int(message.payload["target"])
            if new_level != self.level:
                self.level = new_level
                self.collection = CorrectionCollection(level=self.level)
                self._reported = 0
            self.target = int(message.payload["target"])
            self._done = False
