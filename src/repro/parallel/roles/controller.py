"""Controller processes.

A controller runs one (multilevel) MCMC chain for the level it is currently
assigned to (paper, Section 4.2):

* it evaluates the forward model together with its worker ranks (lock step),
* for levels above 0 it obtains coarse proposals by requesting subsampled
  samples of level ``l-1`` chains through the phonebook,
* it publishes its own subsampled states so finer chains can use them as
  proposals, and hands correction samples (fine QOI coupled with the coarse
  proposal's QOI) to collectors,
* it honours ``REASSIGN`` orders from the phonebook's load balancer by
  winding down its current chain and starting a fresh chain (including
  burn-in) on the new level.

The statistical work is done by the exact same kernel/chain classes as the
sequential driver (:mod:`repro.core`); only the *scheduling* of model
evaluations and the transport of samples differ.
"""

from __future__ import annotations

from collections import deque
from typing import Generator

from repro.core.chain import SingleChainMCMC
from repro.core.factory import level_chain
from repro.core.proposals.subsampling import BufferedChainSource
from repro.core.state import SamplingState
from repro.evaluation import EvaluatorStats
from repro.parallel.checkpoint import CheckpointError
from repro.parallel.roles.protocol import RunConfiguration, Tags
from repro.parallel.transport import Message, RankProcess
from repro.utils.random import RandomSource

__all__ = ["ControllerProcess", "SAMPLE_LEAD"]

#: published states a level may hold unserved before its chain waits for a
#: finer chain to fetch one
SAMPLE_LEAD = 4

#: every tag a controller serves while it samples a level (the coarse-sample
#: wait takes COARSE_SAMPLE itself; elsewhere a stray one is dropped)
_SERVED_TAGS = (
    Tags.FETCH_SAMPLE,
    Tags.FETCH_CORRECTION,
    Tags.REASSIGN,
    Tags.SHUTDOWN,
    Tags.COARSE_SAMPLE,
    Tags.PEER_RESTARTED,
)


class ControllerProcess(RankProcess):
    """Dynamic-role rank running a single MCMC chain for its assigned level."""

    role = "controller"
    restartable = True

    def __init__(
        self,
        rank: int,
        config: RunConfiguration,
        worker_ranks: tuple[int, ...],
        random_source: RandomSource,
    ) -> None:
        super().__init__(rank)
        self.config = config
        self.worker_ranks = tuple(worker_ranks)
        self._random_source = random_source
        self._assignment_counter = 0
        #: level this controller starts on (set by the sampler from the
        #: layout); the respawn bootstrap falls back to it when the rank died
        #: before its first heartbeat carried a level.
        self.initial_level: int | None = None
        self._current_level: int | None = None
        #: statistics: per level, number of post-burn-in samples generated
        self.samples_generated: dict[int, int] = {}
        #: levels this controller worked on, in order
        self.assignment_history: list[int] = []
        self.total_steps = 0
        #: per-level evaluator statistics harvested from a multiprocess run
        #: (empty on the simulated backend, where the driver reads the shared
        #: problem cache directly)
        self.evaluation_stats: dict[int, EvaluatorStats] = {}
        self._stats_baseline: dict[int, EvaluatorStats] = {}

    # ------------------------------------------------------------------
    def prepare_for_transport(self) -> None:
        """Baseline the (possibly inherited) problem-cache statistics.

        Under the ``fork`` start method a child inherits the parent's problem
        cache, including evaluation counts from any earlier run; harvesting
        deltas keeps the shipped statistics scoped to this run.
        """
        self._stats_baseline = self.config.problems.stats()

    def harvest(self) -> dict:
        """Ship chain statistics back to the driver (multiprocess runs)."""
        stats: dict[int, EvaluatorStats] = {}
        for level, snapshot in self.config.problems.stats().items():
            baseline = self._stats_baseline.get(level)
            stats[level] = snapshot.delta(baseline) if baseline is not None else snapshot
        return {
            "samples_generated": dict(self.samples_generated),
            "assignment_history": list(self.assignment_history),
            "total_steps": self.total_steps,
            "evaluation_stats": stats,
        }

    # -- fault tolerance ------------------------------------------------
    def heartbeat_state(self) -> dict:
        return {"level": self._current_level, "total_steps": self.total_steps}

    def restart_message(self, heartbeat_meta: dict) -> tuple[str, dict] | None:
        level = (heartbeat_meta or {}).get("level")
        if level is None:
            level = self.initial_level
        if level is None:
            return None
        return (Tags.ASSIGN, {"level": int(level)})

    def peer_restart_message(self, rank: int, role: str) -> tuple[str, dict] | None:
        # A respawned controller may have died holding our coarse-sample fetch.
        if role != "controller":
            return None
        return (Tags.PEER_RESTARTED, {"rank": int(rank)})

    # ------------------------------------------------------------------
    def run(self) -> Generator:
        message = yield self.recv(Tags.ASSIGN, Tags.SHUTDOWN)
        if message.tag == Tags.SHUTDOWN:
            yield from self._shutdown_workers()
            return
        level = int(message.payload["level"])
        while True:
            outcome, payload = yield from self._run_level(level)
            if outcome == "shutdown":
                yield from self._shutdown_workers()
                return
            level = int(payload)

    def _shutdown_workers(self) -> Generator:
        for worker in self.worker_ranks:
            yield self.send(worker, Tags.WORKER_SHUTDOWN, {})

    # ------------------------------------------------------------------
    def _build_chain(self, level: int) -> tuple[SingleChainMCMC, BufferedChainSource | None]:
        config = self.config
        rng = self._random_source.child("controller", self.rank, self._assignment_counter)
        self._assignment_counter += 1
        buffered = None
        if level > 0:
            buffered = BufferedChainSource(
                subsampling_rate=int(config.subsampling_rates[level])
            )
        chain = level_chain(config.problems, level, rng, int(config.burnin[level]), buffered)
        return chain, buffered

    # ------------------------------------------------------------------
    def _run_level(self, level: int) -> Generator:
        """Run a chain on ``level`` until reassigned or shut down.

        After burn-in the chain steps only while its output can be taken: while
        fewer than :data:`SAMPLE_LEAD` published states wait for a finer chain,
        or fewer than ``2 * correction_batch`` correction rows wait for a
        collector.  Otherwise the controller blocks until a fetch (or a control
        message) arrives.  CORRECTION_READY announces only rows inside that
        correction lead, so a level whose collectors are full goes quiet.

        Returns ``("reassign", new_level)`` or ``("shutdown", None)``.
        """
        config = self.config
        phonebook = config.layout.phonebook_rank
        self.assignment_history.append(level)
        self._current_level = level

        chain, buffered = self._build_chain(level)
        checkpointer = config.checkpointer()

        yield self.send(phonebook, Tags.REGISTER, {"rank": self.rank, "level": level})
        for worker in self.worker_ranks:
            yield self.send(worker, Tags.WORKER_ASSIGN, {"level": level})

        publish_rate = config.publish_rate(level)
        correction_lead = 2 * config.correction_batch
        steps_since_publish = 0
        chain_buffer: deque = deque()
        corrections_served = 0

        # A respawned controller resumes its subchain from its last snapshot
        # instead of re-running burn-in from scratch.  Snapshots for a
        # different level (taken before a REASSIGN) are ignored.
        if checkpointer is not None:
            try:
                snapshot = checkpointer.read(self.rank, self.role)
            except CheckpointError:
                snapshot = None
            if snapshot is not None and int(snapshot["level"]) == level:
                chain.load_state_dict(snapshot["chain"])
                corrections_served = int(snapshot["corrections_served"])
                self.samples_generated[level] = chain.samples.num_samples
        # The phonebook's entry for this (re-)registration starts empty, so
        # every unserved row is announced afresh.
        corrections_notified = corrections_served
        pending_sample_fetches: deque[int] = deque()
        pending_correction_fetches: deque[tuple[int, int]] = deque()
        controller_rng = self._random_source.child("controller-cost", self.rank, level)

        def wants_step() -> bool:
            if chain.in_burnin:
                return True
            if publish_rate > 0 and len(chain_buffer) < SAMPLE_LEAD:
                return True
            return len(chain.corrections) - corrections_served < correction_lead

        def announce(duration: float | None) -> Generator:
            """Tell the phonebook about unannounced rows inside the correction lead."""
            nonlocal corrections_notified
            count = (
                min(len(chain.corrections), corrections_served + correction_lead)
                - corrections_notified
            )
            if count > 0:
                corrections_notified += count
                yield self.send(
                    phonebook,
                    Tags.CORRECTION_READY,
                    {"rank": self.rank, "level": level, "count": count, "duration": duration},
                )

        def serve_sample(requester: int) -> Generator:
            if chain_buffer:
                state = chain_buffer.popleft()
                yield self.send(
                    requester, Tags.COARSE_SAMPLE, {"state": state, "level": level}
                )
            else:
                pending_sample_fetches.append(requester)

        def serve_correction(requester: int, count: int) -> Generator:
            nonlocal corrections_served
            available = len(chain.corrections) - corrections_served
            take = min(count, available)
            if take <= 0:
                pending_correction_fetches.append((requester, count))
                return
            fine, coarse = chain.corrections.block(
                corrections_served, corrections_served + take
            )
            corrections_served += take
            yield self.send(
                requester,
                Tags.CORRECTIONS,
                {"fine": fine, "coarse": coarse, "level": level},
            )
            # Serving moved the lead forward: announce the rows it now covers.
            yield from announce(None)

        def handle(message: Message) -> Generator:
            """Serve one fetch or control message.

            Returns the outcome that ends this level (SHUTDOWN, or REASSIGN
            after every owed fetch is answered and the phonebook is told),
            else ``None``.
            """
            tag = message.tag
            if tag == Tags.SHUTDOWN:
                return "shutdown", None
            if tag == Tags.REASSIGN:
                yield from self._flush_obligations(
                    pending_sample_fetches, pending_correction_fetches, chain,
                    chain_buffer, corrections_served,
                )
                yield self.send(
                    phonebook, Tags.UNREGISTER, {"rank": self.rank, "level": level}
                )
                return "reassign", int(message.payload["level"])
            if tag == Tags.FETCH_SAMPLE:
                fetch_level = int(message.payload.get("level", level))
                requester = int(message.payload["requester"])
                if fetch_level != level:
                    # This fetch was routed to us before we switched levels; put
                    # the request back into the phonebook's queue so another
                    # controller on the right level answers it.
                    yield self.send(
                        phonebook,
                        Tags.SAMPLE_REQUEST,
                        {"level": fetch_level, "requester": requester},
                    )
                else:
                    yield from serve_sample(requester)
            elif tag == Tags.FETCH_CORRECTION:
                fetch_level = int(message.payload.get("level", level))
                requester = int(message.payload["requester"])
                count = int(message.payload.get("count", 1))
                if fetch_level != level:
                    yield self.send(
                        phonebook,
                        Tags.CORRECTION_REQUEST,
                        {"level": fetch_level, "requester": requester, "count": count},
                    )
                else:
                    yield from serve_correction(requester, count)
            # Stray coarse samples (e.g. requested before a reassignment) are
            # dropped; a PEER_RESTARTED notice outside the coarse-sample wait
            # concerns no outstanding request of ours.
            return None

        # A restored chain may already hold a full lead of unserved rows.
        yield from announce(None)
        while True:
            # --- serve delivered messages; wait for one while the chain's
            # output cannot be taken ------------------------------------------
            while True:
                message = self.try_recv(*_SERVED_TAGS)
                if message is None:
                    if wants_step():
                        break
                    message = yield self.recv(*_SERVED_TAGS)
                outcome = yield from handle(message)
                if outcome is not None:
                    return outcome

            # --- obtain a coarse proposal when sampling a correction level ----
            if buffered is not None and len(buffered) == 0:
                request = {"level": level - 1, "requester": self.rank}
                yield self.send(phonebook, Tags.SAMPLE_REQUEST, request)
                while True:
                    message = yield self.recv(*_SERVED_TAGS)
                    tag = message.tag
                    if tag == Tags.COARSE_SAMPLE and (
                        int(message.payload.get("level", level - 1)) == level - 1
                    ):
                        buffered.push(message.payload["state"])
                        break
                    if tag in (Tags.COARSE_SAMPLE, Tags.PEER_RESTARTED):
                        # Our fetch was consumed by a stale delivery requested
                        # before a reassignment, or may have died with a
                        # respawned controller: ask again (a late duplicate is
                        # dropped as a stray).
                        yield self.send(phonebook, Tags.SAMPLE_REQUEST, request)
                        continue
                    outcome = yield from handle(message)
                    if outcome is not None:
                        return outcome

            # --- one chain step: evaluate the model, then accept/reject -------
            duration = self.config.cost_model.sample(level, controller_rng)
            kind = "burnin" if chain.in_burnin else "model_eval"
            for worker in self.worker_ranks:
                yield self.send(
                    worker,
                    Tags.WORKER_EVAL,
                    {"duration": duration, "kind": kind, "level": level},
                )
            yield self.compute(duration, kind=kind, level=level, label=f"level{level}")
            chain.step()
            self.total_steps += 1

            if chain.in_burnin:
                continue
            self.samples_generated[level] = self.samples_generated.get(level, 0) + 1

            # --- periodic snapshot so a respawn resumes mid-subchain ----------
            if checkpointer is not None and checkpointer.due():
                checkpointer.write(
                    self.rank,
                    self.role,
                    {
                        "level": level,
                        "chain": chain.state_dict(),
                        "corrections_served": corrections_served,
                    },
                )

            # --- publish correction availability ------------------------------
            yield from announce(duration)

            # --- publish subsampled chain states for finer levels --------------
            if publish_rate > 0:
                steps_since_publish += 1
                if steps_since_publish >= publish_rate:
                    steps_since_publish = 0
                    # the point carries its QOI so consumers never re-run this model
                    theta, log_density, qoi = chain.point()
                    chain_buffer.append(
                        SamplingState(parameters=theta, log_density=log_density, qoi=qoi)
                    )
                    yield self.send(
                        phonebook,
                        Tags.SAMPLE_READY,
                        {
                            "rank": self.rank,
                            "level": level,
                            "count": 1,
                            "duration": duration,
                        },
                    )

            # --- serve obligations that were waiting for fresh output ----------
            while pending_sample_fetches and chain_buffer:
                yield from serve_sample(pending_sample_fetches.popleft())
            while pending_correction_fetches and (
                len(chain.corrections) - corrections_served > 0
            ):
                requester, count = pending_correction_fetches.popleft()
                yield from serve_correction(requester, count)

    # ------------------------------------------------------------------
    def _flush_obligations(
        self,
        pending_sample_fetches: deque,
        pending_correction_fetches: deque,
        chain: SingleChainMCMC,
        chain_buffer: deque,
        corrections_served: int,
    ) -> Generator:
        """Before leaving a level, answer every fetch we still owe.

        Sample fetches are served with the freshest available state (buffered
        or current); correction fetches are answered with whatever is left —
        possibly an empty batch, which makes the collector re-request through
        the phonebook and be matched with another controller.
        """
        while pending_sample_fetches:
            requester = pending_sample_fetches.popleft()
            if chain_buffer:
                state = chain_buffer.popleft()
            else:
                state = chain.current_state
            yield self.send(
                requester, Tags.COARSE_SAMPLE, {"state": state, "level": chain.level}
            )
        available = len(chain.corrections) - corrections_served
        while pending_correction_fetches:
            requester, count = pending_correction_fetches.popleft()
            take = min(count, available)
            fine, coarse = chain.corrections.block(
                corrections_served, corrections_served + take
            )
            corrections_served += take
            available -= take
            yield self.send(
                requester,
                Tags.CORRECTIONS,
                {"fine": fine, "coarse": coarse, "level": chain.level},
            )
