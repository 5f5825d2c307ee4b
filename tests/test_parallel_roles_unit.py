"""Unit-level tests for the parallel role protocol (phonebook matchmaking, collectors, workers).

These tests exercise individual roles against small scripted counterparts
rather than the full machine, so protocol regressions (lost requests, wrong
routing after reassignments, double-served fetches) are caught close to their
source.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostModel
from repro.core.sample_collection import CorrectionCollection
from repro.models.gaussian import GaussianHierarchyFactory
from repro.parallel.layout import ProcessLayout
from repro.parallel.roles import (
    CollectorProcess,
    ControllerProcess,
    PhonebookProcess,
    RunConfiguration,
    Tags,
    WorkerProcess,
)
from repro.parallel.roles.controller import SAMPLE_LEAD
from repro.parallel.simmpi import RankProcess, VirtualWorld
from repro.parallel.transport import Compute, Message, Receive, Send
from repro.utils.random import RandomSource


def make_config(num_ranks: int = 10, dynamic: bool = True) -> RunConfiguration:
    factory = GaussianHierarchyFactory(dim=1, num_levels=2, subsampling=2)
    layout = ProcessLayout.create(num_ranks=num_ranks, num_levels=2)
    return RunConfiguration(
        factory=factory,
        layout=layout,
        cost_model=CostModel([0.01, 0.05]),
        num_samples=[20, 10],
        burnin=[2, 2],
        subsampling_rates=[0, 2],
        dynamic_load_balancing=dynamic,
    )


class Script(RankProcess):
    """A scripted rank that sends predefined messages, then listens."""

    role = "script"

    def __init__(self, rank, actions, listen_tags=(), listen_count=0):
        super().__init__(rank)
        self.actions = actions
        self.listen_tags = listen_tags
        self.listen_count = listen_count
        self.received = []

    def run(self):
        for dest, tag, payload in self.actions:
            yield self.send(dest, tag, payload)
        for _ in range(self.listen_count):
            msg = yield self.recv(*self.listen_tags)
            self.received.append(msg)


class TestRunConfiguration:
    def test_publish_rates(self):
        config = make_config()
        assert config.publish_rate(0) == 2  # level 0 publishes at rho_1
        assert config.publish_rate(1) == 0  # finest level never publishes
        assert config.num_levels == 2 and config.finest_level == 1

    def test_validation(self):
        factory = GaussianHierarchyFactory(dim=1, num_levels=2)
        layout = ProcessLayout.create(num_ranks=10, num_levels=2)
        with pytest.raises(ValueError):
            RunConfiguration(
                factory=factory, layout=layout, cost_model=CostModel([1.0, 1.0]),
                num_samples=[10], burnin=[1, 1], subsampling_rates=[0, 1],
            )

    def test_shared_problem_cache_constructs_once(self):
        factory = GaussianHierarchyFactory(dim=1, num_levels=2)
        layout = ProcessLayout.create(num_ranks=10, num_levels=2)
        config = RunConfiguration(
            factory=factory, layout=layout, cost_model=CostModel([1.0, 1.0]),
            num_samples=[10, 10], burnin=[1, 1], subsampling_rates=[0, 1],
        )
        cache = config.problems
        assert cache.problem(1) is cache.problem(1)
        assert list(cache.stats()) == [1]


class TestPhonebookMatchmaking:
    def test_forwards_request_once_sample_is_ready(self):
        config = make_config()
        world = VirtualWorld(latency=0.01)
        phonebook = PhonebookProcess(1, config)
        # a scripted "controller" registers on level 0, a scripted "requester"
        # asks for a level-0 sample before anything is available, then the
        # controller announces availability; the phonebook must then order the
        # controller (and only then) to serve the requester.
        controller = Script(
            5,
            actions=[
                (1, Tags.REGISTER, {"rank": 5, "level": 0}),
            ],
            listen_tags=(Tags.FETCH_SAMPLE,),
            listen_count=1,
        )
        requester = Script(
            6,
            actions=[(1, Tags.SAMPLE_REQUEST, {"level": 0, "requester": 6})],
        )
        announcer = Script(
            7,
            actions=[(1, Tags.SAMPLE_READY, {"rank": 5, "level": 0, "count": 1, "duration": 0.01})],
        )
        shutdown = Script(8, actions=[(1, Tags.SHUTDOWN, {})])
        for proc in (phonebook, controller, requester, announcer, shutdown):
            world.add_process(proc)
        world.run()
        assert len(controller.received) == 1
        fetch = controller.received[0]
        assert fetch.payload["requester"] == 6
        assert fetch.payload["level"] == 0

    def test_correction_requests_matched_with_count(self):
        config = make_config()
        world = VirtualWorld(latency=0.01)
        phonebook = PhonebookProcess(1, config)
        controller = Script(
            5,
            actions=[
                (1, Tags.REGISTER, {"rank": 5, "level": 1}),
                (1, Tags.CORRECTION_READY, {"rank": 5, "level": 1, "count": 3, "duration": 0.05}),
            ],
            listen_tags=(Tags.FETCH_CORRECTION,),
            listen_count=1,
        )
        collector = Script(
            6,
            actions=[(1, Tags.CORRECTION_REQUEST, {"level": 1, "requester": 6, "count": 5})],
        )
        shutdown = Script(8, actions=[(1, Tags.SHUTDOWN, {})])
        for proc in (phonebook, controller, collector, shutdown):
            world.add_process(proc)
        world.run()
        assert len(controller.received) == 1
        fetch = controller.received[0]
        # only 3 corrections were available, so only 3 may be fetched
        assert fetch.payload["count"] == 3
        assert fetch.payload["requester"] == 6

    def test_level_done_tracking(self):
        config = make_config()
        phonebook = PhonebookProcess(1, config)
        world = VirtualWorld()
        done = Script(5, actions=[(1, Tags.LEVEL_DONE, {"level": 0}), (1, Tags.SHUTDOWN, {})])
        world.add_process(phonebook)
        world.add_process(done)
        world.run()
        assert phonebook._level_done[0] is True
        assert phonebook._level_done[1] is False


class TestCollectorAndWorker:
    def test_collector_accumulates_until_target_and_reports(self):
        config = make_config()
        world = VirtualWorld(latency=0.01)
        collector = CollectorProcess(4, config)

        class FakeRootAndController(RankProcess):
            """Plays both the root (sends COLLECT) and a controller serving CORRECTIONS."""

            def __init__(self, rank):
                super().__init__(rank)
                self.done_payload = None

            def run(self):
                yield self.send(4, Tags.COLLECT, {"level": 1, "target": 7})
                while True:
                    msg = yield self.recv(Tags.CORRECTION_REQUEST, Tags.COLLECTOR_DONE)
                    if msg.tag == Tags.COLLECTOR_DONE:
                        self.done_payload = msg.payload
                        yield self.send(4, Tags.SHUTDOWN, {})
                        return
                    rows = min(msg.payload["count"], 3)
                    yield self.send(
                        4,
                        Tags.CORRECTIONS,
                        {"fine": np.ones((rows, 1)), "coarse": np.full((rows, 1), 0.5),
                         "level": 1},
                    )

        # Route collector requests directly back to the fake process by using
        # its rank as the phonebook rank.
        config.layout.phonebook_rank = 9
        config.layout.root_rank = 9
        fake = FakeRootAndController(9)
        world.add_process(collector)
        world.add_process(fake)
        world.run()
        assert fake.done_payload is not None
        collection: CorrectionCollection = fake.done_payload["collection"]
        assert len(collection) == 7
        np.testing.assert_allclose(collection.mean(), [0.5])

    def test_collector_reissues_request_after_controller_respawn(self):
        # The first request dies with a controller; only the PEER_RESTARTED
        # notice the driver injects after the respawn can unblock the collector.
        config = make_config()
        world = VirtualWorld(latency=0.01)
        collector = CollectorProcess(4, config)
        assert collector.peer_restart_message(5, "worker") is None
        notice_tag, notice = collector.peer_restart_message(5, "controller")
        assert notice_tag == Tags.PEER_RESTARTED

        class LossyPhonebook(RankProcess):
            """Root + phonebook + controller that loses the first request."""

            def __init__(self, rank):
                super().__init__(rank)
                self.requests = 0
                self.done_payload = None

            def run(self):
                yield self.send(4, Tags.COLLECT, {"level": 1, "target": 2})
                while True:
                    msg = yield self.recv(Tags.CORRECTION_REQUEST, Tags.COLLECTOR_DONE)
                    if msg.tag == Tags.COLLECTOR_DONE:
                        self.done_payload = msg.payload
                        yield self.send(4, Tags.SHUTDOWN, {})
                        return
                    self.requests += 1
                    if self.requests == 1:
                        yield self.send(4, notice_tag, notice)
                        continue
                    rows = msg.payload["count"]
                    yield self.send(
                        4,
                        Tags.CORRECTIONS,
                        {"fine": np.ones((rows, 1)), "coarse": np.full((rows, 1), 0.5),
                         "level": 1},
                    )

        config.layout.phonebook_rank = 9
        config.layout.root_rank = 9
        fake = LossyPhonebook(9)
        world.add_process(collector)
        world.add_process(fake)
        world.run()
        assert fake.requests == 2
        assert len(fake.done_payload["collection"]) == 2

    def test_worker_mirrors_evaluations(self):
        world = VirtualWorld()
        worker = WorkerProcess(3, controller_rank=2)

        class FakeController(RankProcess):
            def run(self):
                yield self.send(3, Tags.WORKER_ASSIGN, {"level": 1})
                for _ in range(4):
                    yield self.send(3, Tags.WORKER_EVAL, {"duration": 0.5, "kind": "model_eval", "level": 1})
                yield self.send(3, Tags.WORKER_SHUTDOWN, {})

        world.add_process(worker)
        world.add_process(FakeController(2))
        world.run()
        assert worker.evaluations == 4
        assert worker.level == 1
        assert world.trace.busy_time(3) == pytest.approx(2.0)


class _HandDriven:
    """Runs one controller generator by hand, with no world attached.

    :meth:`until_blocked` resumes the generator with a message (or ``None``)
    and interprets primitives until it blocks in a receive: sends are
    recorded, computes counted.  A controller that never blocks fails the
    test instead of looping forever.
    """

    MAX_ITEMS = 10_000

    def __init__(self, controller: ControllerProcess) -> None:
        self.controller = controller
        self.generator = controller.run()
        self.blocked_on: Receive | None = None

    def until_blocked(self, message: Message | None = None):
        sent, computes = [], 0
        value = message
        for _ in range(self.MAX_ITEMS):
            item = self.generator.send(value)
            value = None
            if isinstance(item, Send):
                sent.append(item)
            elif isinstance(item, Compute):
                computes += 1
            else:
                assert isinstance(item, Receive)
                self.blocked_on = item
                return sent, computes
        raise AssertionError("the controller never blocked")

    def deliver(self, tag: str, payload: dict):
        message = Message(source=1, dest=self.controller.rank, tag=tag, payload=payload)
        return self.until_blocked(message)


def _ready_counts(sent, tag):
    return [m.payload["count"] for m in sent if m.tag == tag]


class TestControllerDemand:
    """A level-0 controller steps only while its output can be taken."""

    def _started(self, correction_batch: int):
        config = make_config()
        config.correction_batch = correction_batch
        controller = ControllerProcess(5, config, worker_ranks=(), random_source=RandomSource(3))
        driven = _HandDriven(controller)
        driven.until_blocked()  # waiting for ASSIGN
        return config, controller, driven

    def test_corrections_lead_bounds_steps_and_announcements(self):
        config, controller, driven = self._started(correction_batch=10)
        lead = 2 * config.correction_batch
        sent, computes = driven.deliver(Tags.ASSIGN, {"level": 0})
        # burn-in, then exactly the correction lead: nobody fetched anything
        assert computes == config.burnin[0] + lead
        assert sum(_ready_counts(sent, Tags.CORRECTION_READY)) == lead
        assert Tags.FETCH_CORRECTION in driven.blocked_on.tags
        assert Tags.FETCH_SAMPLE in driven.blocked_on.tags

        # One fetch takes a batch: the rows ship, the lead moves forward by a
        # batch, and the chain refills it, announcing each new row, before
        # it blocks again.
        batch = config.correction_batch
        sent, computes = driven.deliver(
            Tags.FETCH_CORRECTION, {"requester": 4, "count": batch, "level": 0}
        )
        (corrections,) = [m for m in sent if m.tag == Tags.CORRECTIONS]
        assert corrections.dest == 4 and len(corrections.payload["fine"]) == batch
        assert sum(_ready_counts(sent, Tags.CORRECTION_READY)) == batch
        assert computes == batch

        # Without a fetch nothing more happens: a SAMPLE fetch is served from
        # the states published meanwhile and does not step the chain.
        sent, computes = driven.deliver(Tags.FETCH_SAMPLE, {"requester": 6, "level": 0})
        assert computes == 0
        assert [m.tag for m in sent] == [Tags.COARSE_SAMPLE]

    def test_sample_lead_bounds_steps_of_a_publishing_level(self):
        config, controller, driven = self._started(correction_batch=1)
        rate = config.publish_rate(0)
        sent, computes = driven.deliver(Tags.ASSIGN, {"level": 0})
        # the correction lead (2 rows) is shorter than the publishing lead:
        # the chain stops once SAMPLE_LEAD states wait for a finer chain
        assert computes <= config.burnin[0] + SAMPLE_LEAD * rate
        assert sum(_ready_counts(sent, Tags.SAMPLE_READY)) == SAMPLE_LEAD
        assert sum(_ready_counts(sent, Tags.CORRECTION_READY)) == 2 * config.correction_batch

        # a fetch takes one state: the chain steps until the lead is refilled
        sent, computes = driven.deliver(Tags.FETCH_SAMPLE, {"requester": 6, "level": 0})
        assert [m.tag for m in sent].count(Tags.COARSE_SAMPLE) == 1
        assert computes == rate
        assert sum(_ready_counts(sent, Tags.SAMPLE_READY)) == 1
        # no collector fetched: no row beyond the lead is announced
        assert _ready_counts(sent, Tags.CORRECTION_READY) == []

    def test_blocked_controller_leaves_on_reassign_and_shutdown(self):
        config, controller, driven = self._started(correction_batch=10)
        driven.deliver(Tags.ASSIGN, {"level": 0})
        sent, computes = driven.deliver(Tags.REASSIGN, {"level": 1})
        assert [m.tag for m in sent][:1] == [Tags.UNREGISTER]
        assert controller.assignment_history == [0, 1]
        with pytest.raises(StopIteration):
            driven.deliver(Tags.SHUTDOWN, {})
