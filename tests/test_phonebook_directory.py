"""The phonebook's incremental directory equals a from-scratch scan.

``PhonebookProcess`` keeps per-level controller views and running totals of
buffered samples and queued collector requests instead of rescanning every
controller per message.  ``_ScanPhonebook`` below is a copy of the scan-based
directory logic that design replaced, cut to static runs (no TARGETS_UPDATE,
no remaining-work signal): every view and sum is re-derived from
``_controllers`` whenever it is read.  Random message sequences are driven
through both, and every FETCH / REASSIGN they send, the integrated load
signals (bitwise) and the rebalancing log must agree after every message.
"""

from __future__ import annotations

from typing import Generator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CostModel
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel.layout import ProcessLayout
from repro.parallel.loadbalancer import LevelLoad, RebalanceDecision
from repro.parallel.roles import PhonebookProcess, RunConfiguration, Tags
from repro.parallel.transport import Message, Receive, Send, Transport

NUM_LEVELS = 3
CONTROLLER_RANKS = tuple(range(10, 18))
UNKNOWN_RANK = 99


def make_config() -> RunConfiguration:
    factory = GaussianHierarchyFactory(dim=1, num_levels=NUM_LEVELS, subsampling=2)
    return RunConfiguration(
        factory=factory,
        layout=ProcessLayout.create(num_ranks=24, num_levels=NUM_LEVELS),
        cost_model=CostModel([0.01, 0.05, 0.2]),
        num_samples=[40, 20, 10],
        burnin=[2, 2, 2],
        subsampling_rates=[0, 2, 2],
        dynamic_load_balancing=True,
    )


class _ScanInfo:
    def __init__(self, rank: int, level: int) -> None:
        self.rank = rank
        self.level = level
        self.available_samples = 0
        self.available_corrections = 0


class _ScanPhonebook(PhonebookProcess):
    """The scan-based directory: every view re-derived from ``_controllers``."""

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
            yield from self._dispatch_matches()

    def _handle(self, message: Message) -> None:
        tag, payload = message.tag, message.payload
        if tag == Tags.REGISTER:
            rank, level = int(payload["rank"]), int(payload["level"])
            self._controllers[rank] = _ScanInfo(rank, level)
            self._migrating.discard(rank)
        elif tag == Tags.UNREGISTER:
            self._controllers.pop(int(payload["rank"]), None)
        elif tag == Tags.SAMPLE_READY:
            info = self._controllers.get(int(payload["rank"]))
            if info is not None:
                info.available_samples += int(payload.get("count", 1))
            duration = payload.get("duration")
            if duration is not None:
                self._observe_cost(int(payload["level"]), float(duration))
        elif tag == Tags.CORRECTION_READY:
            info = self._controllers.get(int(payload["rank"]))
            if info is not None:
                info.available_corrections += int(payload.get("count", 1))
            duration = payload.get("duration")
            if duration is not None:
                self._observe_cost(int(payload["level"]), float(duration))
        elif tag == Tags.SAMPLE_REQUEST:
            level = int(payload["level"])
            self._chain_requests[level].append(int(payload["requester"]))
        elif tag == Tags.CORRECTION_REQUEST:
            level = int(payload["level"])
            self._collector_requests[level].append(
                (int(payload["requester"]), int(payload.get("count", 1)))
            )
        elif tag == Tags.LEVEL_DONE:
            self._level_done[int(payload["level"])] = True

    def _controllers_on_level(self, level: int) -> list[_ScanInfo]:
        return [info for info in self._controllers.values() if info.level == level]

    def _dispatch_matches(self) -> Generator:
        for level in range(self.config.num_levels):
            queue = self._chain_requests[level]
            while queue:
                provider = next(
                    (c for c in self._controllers_on_level(level) if c.available_samples > 0),
                    None,
                )
                if provider is None:
                    break
                requester = queue.popleft()
                provider.available_samples -= 1
                yield self.send(
                    provider.rank,
                    Tags.FETCH_SAMPLE,
                    {"requester": requester, "level": level},
                )
            cqueue = self._collector_requests[level]
            while cqueue:
                provider = next(
                    (c for c in self._controllers_on_level(level) if c.available_corrections > 0),
                    None,
                )
                if provider is None:
                    break
                requester, count = cqueue.popleft()
                take = min(count, provider.available_corrections)
                provider.available_corrections -= take
                self._corrections_dispatched[level] += take
                yield self.send(
                    provider.rank,
                    Tags.FETCH_CORRECTION,
                    {"requester": requester, "count": take, "level": level},
                )

    def _integrate_loads(self) -> None:
        dt = self.now - self._last_integration_time
        if dt <= 0:
            return
        for level in range(self.config.num_levels):
            controllers = self._controllers_on_level(level)
            integrals = self._load_integrals[level]
            integrals["chain"] += dt * len(self._chain_requests[level])
            integrals["coll"] += dt * sum(c for _, c in self._collector_requests[level])
            integrals["avail"] += dt * (
                sum(c.available_samples for c in controllers)
                + sum(c.available_corrections for c in controllers)
            )
        self._last_integration_time = self.now

    def _current_loads(self) -> dict[int, LevelLoad]:
        window = max(self.now - self._load_window_start, 1e-12)
        loads: dict[int, LevelLoad] = {}
        for level in range(self.config.num_levels):
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
                num_groups=len(self._controllers_on_level(level)),
                done=self._level_done[level],
                needed_as_proposal_source=not finer_done,
                estimated_remaining_work=0.0,
            )
        return loads

    def _apply_rebalance(self, decision: RebalanceDecision) -> Generator:
        candidates = [
            c
            for c in self._controllers_on_level(decision.source_level)
            if c.rank not in self._migrating
        ]
        if not candidates:
            return
        chosen = min(candidates, key=lambda c: c.available_samples + c.available_corrections)
        self._migrating.add(chosen.rank)
        self._controllers.pop(chosen.rank, None)
        self.rebalance_log.append((self.now, decision))
        yield self.send(
            chosen.rank,
            Tags.REASSIGN,
            {"level": decision.target_level, "reason": decision.reason},
        )


class _Clock(Transport):
    """A transport that is only a settable clock."""


class _Driver:
    """Feeds messages to a phonebook generator and collects what it sends."""

    def __init__(self, phonebook: PhonebookProcess, clock: _Clock) -> None:
        phonebook.world = clock
        self.phonebook = phonebook
        self._generator = phonebook.run()
        assert type(next(self._generator)) is Receive

    def feed(self, tag: str, payload: dict) -> list[Send]:
        sent = []
        item = self._generator.send(Message(source=0, dest=1, tag=tag, payload=payload))
        while type(item) is Send:
            sent.append(item)
            item = self._generator.send(None)
        assert type(item) is Receive
        return sent


_levels = st.integers(0, NUM_LEVELS - 1)
_controllers = st.sampled_from(CONTROLLER_RANKS)
_durations = st.one_of(st.none(), st.sampled_from([0.01, 0.05, 0.2, 0.7]))

_chain_request = st.tuples(
    st.just(Tags.SAMPLE_REQUEST),
    st.fixed_dictionaries({"level": _levels, "requester": st.integers(2, 30)}),
)
_messages = st.one_of(
    st.tuples(
        st.just(Tags.REGISTER), st.fixed_dictionaries({"rank": _controllers, "level": _levels})
    ),
    st.tuples(
        st.just(Tags.UNREGISTER),
        st.fixed_dictionaries({"rank": st.sampled_from(CONTROLLER_RANKS + (UNKNOWN_RANK,))}),
    ),
    *(
        st.tuples(
            st.just(tag),
            st.fixed_dictionaries(
                {
                    "rank": _controllers,
                    "level": _levels,
                    "count": st.integers(1, 3),
                    "duration": _durations,
                }
            ),
        )
        for tag in (Tags.SAMPLE_READY, Tags.CORRECTION_READY)
    ),
    # weighted 3x: queued chain requests are what starve a level into a rebalance
    _chain_request,
    _chain_request,
    _chain_request,
    st.tuples(
        st.just(Tags.CORRECTION_REQUEST),
        st.fixed_dictionaries(
            {"level": _levels, "requester": st.integers(2, 30), "count": st.integers(1, 5)}
        ),
    ),
    st.tuples(st.just(Tags.LEVEL_DONE), st.fixed_dictionaries({"level": _levels})),
)
# zero steps exercise same-time messages (no load integration)
_time_steps = st.sampled_from([0.0, 0.001, 0.013, 0.05, 0.21])
_sequences = st.lists(st.tuples(_time_steps, _messages), min_size=1, max_size=80)


class TestIncrementalDirectory:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), steps=_sequences)
    def test_matches_scan_based_directory(self, data, steps):
        config = make_config()
        clock = _Clock()
        incremental = _Driver(PhonebookProcess(1, config), clock)
        reference = _Driver(_ScanPhonebook(1, config), clock)

        def feed(tag: str, payload: dict) -> None:
            assert incremental.feed(tag, payload) == reference.feed(tag, payload)
            new, ref = incremental.phonebook, reference.phonebook
            assert {
                (level, kind): value.hex()
                for level, integrals in new._load_integrals.items()
                for kind, value in integrals.items()
            } == {
                (level, kind): value.hex()
                for level, integrals in ref._load_integrals.items()
                for kind, value in integrals.items()
            }
            assert new.rebalance_log == ref.rebalance_log
            assert new._corrections_dispatched == ref._corrections_dispatched
            # the cached per-level views and totals are what a scan derives
            for level in range(NUM_LEVELS):
                scanned = ref._controllers_on_level(level)
                assert [
                    (c.rank, c.available_samples, c.available_corrections)
                    for c in new._by_level[level]
                ] == [(c.rank, c.available_samples, c.available_corrections) for c in scanned]
                assert new._buffered_samples[level] == sum(c.available_samples for c in scanned)
                assert new._buffered_corrections[level] == sum(
                    c.available_corrections for c in scanned
                )

        # the initial assignment: half the groups on level 0, the rest split
        for rank, level in zip(CONTROLLER_RANKS, (0, 0, 0, 0, 1, 1, 2, 2)):
            feed(Tags.REGISTER, {"rank": rank, "level": level})
        # Somewhere in the sequence: re-REGISTER a live rank that holds
        # buffered samples on another level (it keeps its directory slot, its
        # buffer restarts empty), then UNREGISTER a rank the phonebook never
        # knew, a little later so the loads are integrated in between.
        forced_at = data.draw(st.integers(0, len(steps)), label="forced_at")
        for position in range(len(steps) + 1):
            if position == forced_at:
                live = sorted(reference.phonebook._controllers)
                if not live:
                    feed(Tags.REGISTER, {"rank": CONTROLLER_RANKS[0], "level": 0})
                    live = [CONTROLLER_RANKS[0]]
                rank = data.draw(st.sampled_from(live), label="re-registered rank")
                old_level = reference.phonebook._controllers[rank].level
                for tag in (Tags.SAMPLE_READY, Tags.CORRECTION_READY):
                    feed(tag, {"rank": rank, "level": old_level, "count": 2})
                shift = data.draw(st.integers(1, NUM_LEVELS - 1), label="level shift")
                feed(Tags.REGISTER, {"rank": rank, "level": (old_level + shift) % NUM_LEVELS})
                clock.now += 0.013
                feed(Tags.UNREGISTER, {"rank": UNKNOWN_RANK})
            if position == len(steps):
                break
            dt, (tag, payload) = steps[position]
            clock.now += dt
            feed(tag, payload)


class TestMeasuredCost:
    def test_blends_reported_durations(self):
        phonebook = PhonebookProcess(1, make_config())
        assert phonebook.level_cost(0) == 0.01  # unobserved: the configured mean
        phonebook._observe_cost(0, 0.0)  # a non-positive duration is ignored
        assert phonebook.level_cost(0) == 0.01
        phonebook._observe_cost(0, 3.0)  # the first observation is taken as is
        assert phonebook.level_cost(0) == 3.0
        phonebook._observe_cost(0, 1.0)
        assert phonebook.level_cost(0) == 0.8 * 3.0 + 0.2 * 1.0
        phonebook._observe_cost(0, -1.0)
        assert phonebook.level_cost(0) == 0.8 * 3.0 + 0.2 * 1.0
        assert phonebook.level_cost(1) == 0.05  # other levels are unaffected
