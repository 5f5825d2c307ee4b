"""Discrete-event simulation engine driving the virtual ranks.

The world owns the event queue (a heap ordered by virtual time), the message
delivery fabric and the per-rank generators.  Processes run until they yield a
primitive:

* ``Compute`` schedules the process's resumption ``duration`` later and records
  a trace interval,
* ``Send`` enqueues a delivery event at ``now + latency`` — sends are treated
  as non-blocking (buffered),
* ``Receive`` either consumes a matching message already in the mailbox or
  blocks the process until one is delivered.

Events are plain tuples ``(time, seq, process, value, kind)`` that
:meth:`VirtualWorld.run` dispatches on ``kind``: resume (or start) a process
with ``value`` (the message it waited for, else ``None``), deliver the
message ``value``, or call ``value()`` (fault-injection watchdogs only).
No event allocates a closure.

Determinism: ties in time are broken by an increasing sequence number, and all
randomness lives in the processes' own NumPy generators, so a run is exactly
reproducible for a given seed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable

from repro.parallel.trace import TraceRecorder
from repro.parallel.transport import Compute, Message, RankProcess, Receive, Send, Transport

__all__ = ["VirtualWorld"]

# Event kinds; ``seq`` is unique, so heap order never compares past it.
_RESUME, _DELIVER, _CALL = range(3)


class VirtualWorld(Transport):
    """The simulated machine: ranks, messages and the virtual clock.

    Implements the :class:`~repro.parallel.transport.Transport` interface:
    messages are delivered straight into process mailboxes by the event loop,
    so the inherited no-op :meth:`poll` is correct, and ``now`` is the virtual
    clock.

    Parameters
    ----------
    latency:
        Message delivery latency in virtual seconds.
    trace:
        Optional :class:`TraceRecorder`; one is created when omitted.
    max_events:
        Safety valve against runaway simulations.
    """

    def __init__(
        self,
        latency: float = 1e-3,
        trace: TraceRecorder | None = None,
        max_events: int = 20_000_000,
    ) -> None:
        self.latency = float(latency)
        self.trace = trace if trace is not None else TraceRecorder()
        self.max_events = int(max_events)
        self.now = 0.0
        self._processes: dict[int, RankProcess] = {}
        self._generators: dict[int, object] = {}
        self._event_queue: list[tuple] = []
        self._sequence = itertools.count()
        self._events_processed = 0
        self._messages_sent = 0
        self._stopped = False

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of registered ranks."""
        return len(self._processes)

    @property
    def processes(self) -> dict[int, RankProcess]:
        """All registered processes by rank."""
        return dict(self._processes)

    @property
    def messages_sent(self) -> int:
        """Total number of messages posted."""
        return self._messages_sent

    @property
    def events_processed(self) -> int:
        """Total number of DES events processed."""
        return self._events_processed

    def add_process(self, process: RankProcess) -> None:
        """Register a rank process (ranks must be unique)."""
        if process.rank in self._processes:
            raise ValueError(f"rank {process.rank} already registered")
        process.world = self
        self._processes[process.rank] = process

    def stop(self) -> None:
        """Request an orderly stop of the event loop (used by the root on shutdown)."""
        self._stopped = True

    # ------------------------------------------------------------------
    def _schedule(self, time: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at virtual ``time`` (hook for fault-injection watchdogs)."""
        heapq.heappush(self._event_queue, (time, next(self._sequence), None, action, _CALL))

    def _post_message(self, message: Message) -> None:
        message.send_time = self.now
        message.delivery_time = self.now + self.latency
        self._messages_sent += 1
        heapq.heappush(
            self._event_queue,
            (message.delivery_time, next(self._sequence), None, message, _DELIVER),
        )

    def _deliver(self, message: Message) -> None:
        target = self._processes.get(message.dest)
        if target is None:
            return
        state = target._state
        if state.finished:
            return
        spec = state.waiting_on
        if spec is not None and RankProcess.matches(message, spec):
            state.waiting_on = None
            if self.now > state.blocked_since:
                self.trace.record(target.rank, state.blocked_since, self.now, "wait", None, "")
            heapq.heappush(
                self._event_queue, (self.now, next(self._sequence), target, message, _RESUME)
            )
        else:
            state.mailbox.append(message)

    # ------------------------------------------------------------------
    def _advance(self, process: RankProcess, value: Message | None) -> None:
        generator = self._generators.get(process.rank)
        if generator is None:
            return
        state = process._state
        try:
            # a fresh generator takes ``send(None)`` as its start
            item = generator.send(value)
            while True:
                kind = type(item)
                if kind is Send:
                    self._post_message(
                        Message(
                            source=process.rank,
                            dest=item.dest,
                            tag=item.tag,
                            payload=item.payload,
                        )
                    )
                    item = generator.send(None)
                elif kind is Compute:
                    start = self.now
                    end = start + max(0.0, item.duration)
                    self.trace.record(
                        process.rank, start, end, item.kind, item.level, item.label
                    )
                    heapq.heappush(
                        self._event_queue, (end, next(self._sequence), process, None, _RESUME)
                    )
                    return
                elif kind is Receive:
                    matched = RankProcess.match_in_mailbox(state.mailbox, item)
                    if matched is None:
                        state.waiting_on = item
                        state.blocked_since = self.now
                        return
                    state.mailbox.remove(matched)
                    item = generator.send(matched)
                else:
                    raise TypeError(
                        f"process {process.rank} yielded unsupported item {item!r}"
                    )
        except StopIteration:
            state.finished = True

    # ------------------------------------------------------------------
    def run(self) -> float:
        """Run the simulation until all processes finish or deadlock.

        Returns the final virtual time.
        """
        queue = self._event_queue
        for process in self._processes.values():
            self._generators[process.rank] = process.run()
            heapq.heappush(queue, (self.now, next(self._sequence), process, None, _RESUME))

        while queue and not self._stopped:
            time, _, process, value, kind = heapq.heappop(queue)
            if time > self.now:
                self.now = time
            if kind == _RESUME:
                self._advance(process, value)
            elif kind == _DELIVER:
                self._deliver(value)
            else:
                value()
            self._events_processed += 1
            if self._events_processed > self.max_events:
                raise RuntimeError(
                    f"simulation exceeded {self.max_events} events; likely a livelock"
                )
        return self.now

    # ------------------------------------------------------------------
    def unfinished_ranks(self) -> list[int]:
        """Ranks whose generator has not finished (useful to diagnose deadlocks)."""
        return [rank for rank, proc in self._processes.items() if not proc._state.finished]

    def summary(self) -> dict[str, float | int]:
        """Simulation-wide statistics."""
        return {
            "virtual_time": self.now,
            "num_ranks": self.size,
            "messages_sent": self._messages_sent,
            "events_processed": self._events_processed,
        }
