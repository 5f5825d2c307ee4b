"""Tests for the simulated-MPI discrete-event substrate."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.simmpi import Message, RankProcess, VirtualWorld
from repro.parallel.trace import TraceRecorder


class Echo(RankProcess):
    role = "echo"

    def __init__(self, rank, peer, count):
        super().__init__(rank)
        self.peer = peer
        self.count = count
        self.received = []

    def run(self):
        for i in range(self.count):
            yield self.send(self.peer, "PING", {"i": i})
            msg = yield self.recv("PONG")
            self.received.append(msg.payload["i"])


class Responder(RankProcess):
    role = "responder"

    def __init__(self, rank, count):
        super().__init__(rank)
        self.count = count

    def run(self):
        for _ in range(self.count):
            msg = yield self.recv("PING")
            yield self.compute(1.0, kind="model_eval", level=0)
            yield self.send(msg.source, "PONG", {"i": msg.payload["i"]})


class TestVirtualWorld:
    def test_request_response_round_trips(self):
        world = VirtualWorld(latency=0.1)
        world.add_process(Echo(0, peer=1, count=5))
        world.add_process(Responder(1, count=5))
        world.run()
        assert world.unfinished_ranks() == []
        echo = world.processes[0]
        assert echo.received == [0, 1, 2, 3, 4]
        # 5 computes of 1s plus round-trip latencies
        assert world.now == pytest.approx(5 * (1.0 + 0.2), rel=0.05)
        assert world.messages_sent == 10

    def test_compute_advances_time_and_traces(self):
        class Worker(RankProcess):
            def run(self):
                yield self.compute(2.5, kind="model_eval", level=1)
                yield self.compute(1.5, kind="burnin", level=1)

        world = VirtualWorld()
        world.add_process(Worker(0))
        world.run()
        assert world.now == pytest.approx(4.0)
        events = world.trace.events()
        assert len(events) == 2
        assert events[0].kind == "model_eval" and events[0].duration == pytest.approx(2.5)
        assert world.trace.busy_time(0) == pytest.approx(4.0)

    def test_messages_are_fifo_per_pair(self):
        class Sender(RankProcess):
            def run(self):
                for i in range(10):
                    yield self.send(1, "DATA", i)

        class Receiver(RankProcess):
            def __init__(self, rank):
                super().__init__(rank)
                self.got = []

            def run(self):
                for _ in range(10):
                    msg = yield self.recv("DATA")
                    self.got.append(msg.payload)

        world = VirtualWorld()
        world.add_process(Sender(0))
        receiver = Receiver(1)
        world.add_process(receiver)
        world.run()
        assert receiver.got == list(range(10))

    def test_recv_matches_by_tag_and_source(self):
        class Mixed(RankProcess):
            def __init__(self, rank):
                super().__init__(rank)
                self.order = []

            def run(self):
                msg = yield self.recv("B")
                self.order.append(msg.tag)
                msg = yield self.recv("A")
                self.order.append(msg.tag)

        class Producer(RankProcess):
            def run(self):
                yield self.send(0, "A", None)
                yield self.send(0, "B", None)

        world = VirtualWorld()
        mixed = Mixed(0)
        world.add_process(mixed)
        world.add_process(Producer(1))
        world.run()
        assert mixed.order == ["B", "A"]

    def test_try_recv_and_pending_count(self):
        class Peeker(RankProcess):
            def __init__(self, rank):
                super().__init__(rank)
                self.seen = None
                self.pending_before = -1

            def run(self):
                # wait until something is delivered
                msg = yield self.recv("X")
                self.pending_before = self.pending_count("Y")
                self.seen = self.try_recv("Y")
                yield self.compute(0.0)

        class Sender(RankProcess):
            def run(self):
                yield self.send(0, "Y", 1)
                yield self.send(0, "X", 2)

        world = VirtualWorld()
        peeker = Peeker(0)
        world.add_process(peeker)
        world.add_process(Sender(1))
        world.run()
        assert peeker.pending_before == 1
        assert peeker.seen is not None and peeker.seen.payload == 1

    def test_deadlock_leaves_unfinished_ranks(self):
        class Waiter(RankProcess):
            def run(self):
                yield self.recv("NEVER")

        world = VirtualWorld()
        world.add_process(Waiter(0))
        world.run()
        assert world.unfinished_ranks() == [0]

    def test_duplicate_rank_rejected(self):
        world = VirtualWorld()
        world.add_process(Responder(0, 1))
        with pytest.raises(ValueError):
            world.add_process(Responder(0, 1))

    def test_determinism(self):
        def build():
            world = VirtualWorld(latency=0.05)
            world.add_process(Echo(0, peer=1, count=8))
            world.add_process(Responder(1, count=8))
            world.run()
            return world.now, world.messages_sent, world.events_processed

        assert build() == build()

    def test_summary_fields(self):
        world = VirtualWorld()
        world.add_process(Responder(0, 0))
        world.run()
        summary = world.summary()
        assert set(summary) == {"virtual_time", "num_ranks", "messages_sent", "events_processed"}

    @given(latency=st.floats(1e-4, 0.5), count=st.integers(1, 10))
    @settings(max_examples=15, deadline=None)
    def test_property_makespan_scales_with_latency_and_count(self, latency, count):
        world = VirtualWorld(latency=latency)
        world.add_process(Echo(0, peer=1, count=count))
        world.add_process(Responder(1, count=count))
        world.run()
        assert world.now == pytest.approx(count * (1.0 + 2 * latency), rel=1e-6)


class TestPublicNames:
    @pytest.mark.parametrize(
        "name", ["Message", "RankProcess", "Compute", "Send", "Receive"]
    )
    def test_simmpi_names_are_the_transport_classes(self, name):
        # one class per primitive: rank generators written against either
        # import path run unchanged on every transport
        import repro.parallel.simmpi as simmpi
        import repro.parallel.transport as transport

        assert name in simmpi.__all__
        assert getattr(simmpi, name) is getattr(transport, name)


class TestTraceRecorder:
    def test_utilization_and_gantt(self):
        trace = TraceRecorder()
        trace.record(0, 0.0, 2.0, "model_eval", level=0)
        trace.record(0, 2.0, 3.0, "wait")
        trace.record(1, 0.0, 3.0, "model_eval", level=1)
        assert trace.makespan == 3.0
        assert trace.busy_time(0) == pytest.approx(2.0)
        assert trace.utilization([0, 1]) == pytest.approx((2.0 / 3.0 + 1.0) / 2.0)
        rows = trace.gantt_rows()
        assert len(rows[0]) == 2
        per_level = trace.per_level_busy_time()
        assert per_level[0] == pytest.approx(2.0)
        assert per_level[1] == pytest.approx(3.0)

    def test_disabled_recorder_ignores_events(self):
        trace = TraceRecorder(enabled=False)
        trace.record(0, 0.0, 1.0, "model_eval")
        assert len(trace) == 0
        # Disabled tracing must be distinguishable from a genuinely idle
        # machine: utilization is NaN, not a plausible-looking 0.0.
        assert math.isnan(trace.utilization())

    def test_zero_length_intervals_ignored(self):
        trace = TraceRecorder()
        trace.record(0, 1.0, 1.0, "compute")
        assert len(trace) == 0

    def test_ascii_rendering(self):
        trace = TraceRecorder()
        trace.record(0, 0.0, 1.0, "model_eval")
        trace.record(1, 0.5, 1.0, "burnin")
        art = trace.render_ascii(width=20)
        assert "rank    0" in art and "#" in art and "o" in art
        assert TraceRecorder().render_ascii() == "(empty trace)"

    @pytest.mark.parametrize("seed", range(6))
    def test_one_pass_summaries_match_the_interval_loops(self, seed):
        # overlapping intervals, ties on (rank, start) and intervals narrower
        # than one column: the last interval painted over a cell wins
        rng = np.random.default_rng(seed)
        trace = TraceRecorder()
        kinds = ["model_eval", "burnin", "wait", "compute", "serialize"]
        for _ in range(int(rng.integers(1, 400))):
            if rng.random() < 0.5:
                start = float(rng.integers(0, 12)) * 0.5
                end = start + float(rng.integers(1, 4)) * 0.5
            else:
                start = float(rng.uniform(0.0, 6.0))
                end = start + float(rng.exponential(0.3))
            trace.record(int(rng.integers(0, 9)), start, end, str(rng.choice(kinds)))

        def render(width, symbols):
            span = trace.makespan
            lines = []
            for rank, intervals in sorted(trace.gantt_rows().items()):
                row = [" "] * width
                for start, end, kind, _level in intervals:
                    lo = int(start / span * (width - 1))
                    hi = max(lo + 1, int(end / span * (width - 1)))
                    for pos in range(lo, min(hi, width)):
                        row[pos] = symbols.get(kind, "?")
                lines.append(f"rank {rank:4d} |{''.join(row)}|")
            return "\n".join(lines)

        default = {"model_eval": "#", "burnin": "o", "wait": ".", "compute": "+"}
        for width in (1, 2, 7, 20, 80, 100):
            assert trace.render_ascii(width=width) == render(width, default)
        assert trace.render_ascii(30, {"wait": "w", "compute": "<>"}) == render(
            30, {"wait": "w", "compute": "<>"}
        )

        busy_kinds = {"model_eval", "burnin", "compute"}

        def busy(rank):
            return sum(
                e.duration for e in trace.events() if e.rank == rank and e.kind in busy_kinds
            )

        ranks = sorted({e.rank for e in trace.events()})
        expected = float(np.mean([busy(rank) / trace.makespan for rank in ranks]))
        assert trace.utilization() == expected
        assert trace.utilization([0, 3, 99]) == float(
            np.mean([busy(rank) / trace.makespan for rank in (0, 3, 99)])
        )
        for rank in ranks:
            assert trace.busy_time(rank) == busy(rank)
