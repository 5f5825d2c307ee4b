"""Real-process transport for the parallel MLMCMC machine.

Runs every rank of the role machine (root, phonebook, collectors,
controllers, workers) on its own ``multiprocessing`` process.  The role
generators are *identical* to the ones the simulated backend drives — only
the interpretation of the primitives changes:

* ``Send`` encodes the message (:mod:`repro.parallel.wire`) and hands it to
  the rank's :class:`Link` at the next flush boundary,
* ``Receive`` blocks on the link (non-matching messages are parked in the
  process mailbox, preserving the non-overtaking FIFO-per-pair semantics of
  the simulated world),
* ``Compute`` no longer advances a virtual clock: the *real* time the
  generator spends until its next yield — which is where the chain step
  following the ``Compute`` executes — is measured with
  ``time.perf_counter()`` and recorded in the ordinary
  :class:`~repro.parallel.trace.TraceRecorder` under the ``Compute``'s
  kind/level/label.  Blocked receives are traced as ``"wait"`` intervals,
  exactly like the virtual world does.

Links and fabrics
-----------------

How messages travel is the only thing the two real-process backends
disagree on, and it sits behind two small contracts.  In the child,
:func:`_rank_main` — the one child entry point — drives its rank over a
:class:`Link` (ship encoded bodies, receive delivered bodies, report
``(rank, status, payload)`` tuples, close).  In the driver, the pump loop of
:meth:`MultiprocessWorld.run` talks to a :class:`Fabric` (the child's link
opener, bootstrap injection, the result queue, drain, settle, close).  This
module's pair is the OS-queue one (:class:`_QueueLink`,
:class:`_QueueFabric`): one persistent queue per rank, one batch blob
(:func:`~repro.parallel.wire.pack_bodies`) per destination per flush.
:mod:`repro.parallel.net` supplies the TCP hub pair.

A link moves frames on a background thread, which needs the GIL while the
rank's main thread runs chain steps.  Ranks keep CPython's default switch
interval: a controller steps only while its output can be taken (see
:class:`~repro.parallel.roles.controller.ControllerProcess`), and idles
blocked in a receive, which releases the GIL.

Each child rebuilds its own sampling problems (and evaluators) through its
copy of the :class:`~repro.core.factory.LevelProblems` cache; nothing holding
factorizations or open handles crosses a process boundary alive.  A finished
child ships its trace events and a role-specific
:meth:`~repro.parallel.transport.RankProcess.harvest` payload back to the
driver, which applies it to the driver-side twin, so result assembly runs
unchanged on every backend.

Supervision
-----------

:meth:`MultiprocessWorld.run` decides nothing about the ranks' lifecycle: it
pumps rank reports, child exits and ticks into a
:class:`~repro.parallel.fault.Supervisor` and carries out the actions it
answers with.  A rank's fabric store survives its death, so what is injected
or addressed to a dead incarnation reaches its replacement (at-least-once
delivery).  An injected :class:`~repro.parallel.chaos.FaultPlan` reaches only
each rank's *first* incarnation, so a kill rule cannot re-fire.
"""

from __future__ import annotations

import functools
import gc
import logging
import multiprocessing
# what the fork context's Queue(), its lock and Process.start() import on first
# use, loaded with this module so a run's first rank launch imports nothing
import multiprocessing.popen_fork  # noqa: F401
import multiprocessing.queues  # noqa: F401
import multiprocessing.synchronize  # noqa: F401
import queue as queue_module
import threading
import time
import traceback
from typing import Callable, Protocol

from repro.parallel.chaos import FaultPlan, RankChaos
from repro.parallel.fault import (
    TICK,
    Absorb,
    ChildExit,
    FailureReport,
    FaultToleranceConfig,
    Inject,
    RankReport,
    Reap,
    Respawn,
    Supervisor,
)
from repro.parallel.trace import TraceRecorder
from repro.parallel.transport import (
    Compute,
    Message,
    RankProcess,
    Receive,
    ReceiveTimeout,
    Send,
    Transport,
)
from repro.parallel.wire import (
    WIRE_SUMMARY_KEYS,
    WireCounters,
    decode_message,
    encode_message,
    iter_bodies,
    pack_bodies,
    peek_dest,
)

__all__ = ["MultiprocessWorld"]

logger = logging.getLogger(__name__)

#: rank used as the source of driver-injected bootstrap messages
DRIVER_RANK = -1

#: how long the shutdown waits for the children to exit after a clean run,
#: and after one that failed, in total over all children
CLEAN_JOIN_S = 10.0
DIRTY_JOIN_S = 1.0

#: process start method: fork where available (cheap, children inherit the
#: already-built factory), the platform default elsewhere — under spawn every
#: object handed to a rank must be picklable
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else None
)


class Link(Protocol):
    """Child-side channel of one rank: how its encoded messages travel.

    ``counters`` accumulates the endpoint's wire statistics; the link counts
    its own frames and bytes, the transport its encode/decode work.
    """

    counters: WireCounters

    def has_rank(self, rank: int) -> bool:
        """Whether ``rank`` is part of the machine (else a send is dropped)."""

    def ship(self, bodies: list[bytes]) -> None:
        """Send one flush's encoded message bodies, in order."""

    def receive(self, timeout: float | None) -> list:
        """The next delivered bodies; ``[]`` after ``timeout`` seconds (``0``
        polls, ``None`` blocks until something arrives)."""

    def report(self, item: tuple) -> None:
        """Send one ``(rank, status, payload)`` tuple to the driver."""

    def close(self) -> None:
        """Release the channel once the rank has reported."""


class Fabric(Protocol):
    """Driver side of one run's delivery fabric.

    ``result_queue.get(timeout=...)`` yields the ``(rank, status, payload)``
    tuples every link reports and raises ``queue.Empty`` on timeout;
    ``counters`` holds the driver's own wire statistics.
    """

    result_queue: object
    counters: WireCounters

    def opener(self, rank: int) -> Callable[[], Link]:
        """Picklable callable a child runs to open ``rank``'s link."""

    def inject(self, message: Message) -> None:
        """Deliver a driver message into its destination's *persistent* store,
        which survives the rank's death: its next incarnation reads it."""

    def drain(self) -> None:
        """Discard undelivered items; cheap and non-blocking (shutdown)."""

    def settle(self, rank: int) -> None:
        """Wait (bounded) until all an exited rank sent is on ``result_queue``."""

    def close(self) -> None:
        """Final teardown after the children are joined."""


class _QueueLink:
    """:class:`Link` over one OS queue per rank."""

    def __init__(self, rank: int, queues: dict[int, object], result_queue) -> None:
        self._queues = queues
        self._inbox = queues[rank]
        self._results = result_queue
        self.counters = WireCounters()

    def has_rank(self, rank: int) -> bool:
        return rank in self._queues

    def ship(self, bodies: list[bytes]) -> None:
        # One batch blob per destination keeps FIFO per pair: a flush's
        # bodies for one rank travel, in order, as one queue item.
        by_dest: dict[int, list[bytes]] = {}
        for body in bodies:
            by_dest.setdefault(peek_dest(body), []).append(body)
        counters = self.counters
        for dest, group in by_dest.items():
            if len(group) > 1:
                counters.coalesced_batches += 1
                counters.coalesced_messages += len(group)
            blob = pack_bodies(group)
            counters.frames_sent += 1
            counters.bytes_sent += len(blob)
            self._queues[dest].put(blob)

    def receive(self, timeout: float | None) -> list:
        try:
            blob = self._inbox.get(timeout=timeout)
        except queue_module.Empty:
            return []
        self.counters.frames_received += 1
        self.counters.bytes_received += len(blob)
        return list(iter_bodies(blob))

    def report(self, item: tuple) -> None:
        self._results.put(item)

    def close(self) -> None:
        pass  # the queues' feeder threads flush when the process exits


class _QueueFabric:
    """:class:`Fabric` of the multiprocess backend: persistent OS queues."""

    def __init__(self, ranks) -> None:
        self._queues = {rank: _CONTEXT.Queue() for rank in ranks}
        self.result_queue = _CONTEXT.Queue()
        self.counters = WireCounters()

    def opener(self, rank: int) -> Callable[[], Link]:
        return functools.partial(_QueueLink, rank, self._queues, self.result_queue)

    def inject(self, message: Message) -> None:
        blob = pack_bodies([encode_message(message, 0, self.counters)])
        self.counters.frames_sent += 1
        self.counters.bytes_sent += len(blob)
        self._queues[message.dest].put(blob)

    def drain(self) -> None:
        # Unread late messages keep queue feeder threads alive; drain them so
        # children can exit and join() cannot hang on a full pipe.
        for q in (*self._queues.values(), self.result_queue):
            while True:
                try:
                    q.get_nowait()
                except (queue_module.Empty, OSError):
                    break

    def settle(self, rank: int) -> None:
        pass  # a child exits only after its queue feeder flushed the pipe

    def close(self) -> None:
        pass


class _ProcessTransport(Transport):
    """Child-side runtime driving one rank's generator in real time."""

    def __init__(
        self,
        rank: int,
        link: Link,
        origin: float,
        trace_enabled: bool,
        receive_timeout_s: float | None = None,
        receive_poll_s: float = 1.0,
        chaos: RankChaos | None = None,
    ) -> None:
        self.rank = rank
        self.link = link
        self._origin = origin
        self.trace = TraceRecorder(enabled=trace_enabled)
        self.receive_timeout_s = receive_timeout_s
        self.receive_poll_s = receive_poll_s
        self.chaos = chaos
        self.counters = link.counters
        self.messages_sent = 0
        self.events_processed = 0
        #: sends addressed to a rank outside the machine (protocol bug telltale)
        self.messages_dropped = 0
        #: buffered sends awaiting the next flush boundary, in send order
        self._outbox: list[Message] = []

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Real seconds since the run's shared origin."""
        return time.perf_counter() - self._origin

    def poll(self, process: RankProcess) -> None:
        """Flush buffered sends, then drain delivered messages into the mailbox."""
        self.flush()
        mailbox = process._state.mailbox
        while True:
            bodies = self.link.receive(0)
            if not bodies:
                return
            mailbox.extend(self._decode(bodies))

    # ------------------------------------------------------------------
    def _post(self, message: Message) -> None:
        message.send_time = self.now
        if not self.link.has_rank(message.dest):
            # A send to a rank outside the machine would otherwise vanish
            # without a trace; count and log it so protocol bugs surface in
            # the run summary instead of as mysterious hangs.
            self.messages_dropped += 1
            logger.warning(
                "rank %d dropped message with tag %r: destination rank %d "
                "is not part of this machine",
                self.rank,
                message.tag,
                message.dest,
            )
            return
        if self.chaos is not None:
            # Chaos drop/delay decisions stay at enqueue time so a fault
            # plan's deterministic ordering is unchanged by coalescing.
            delivered, delay = self.chaos.outgoing(message)
            if not delivered:
                return
            if delay > 0.0:
                time.sleep(delay)
        self._outbox.append(message)
        self.messages_sent += 1

    def flush(self) -> None:
        """Encode every buffered send and ship them over the link in one go.

        Flush boundaries are the places the generator gives up control:
        entering a blocking receive, resuming after a ``Compute``, and every
        ``poll``.  Only messages buffered between those points coalesce, so
        FIFO-per-pair delivery order is preserved exactly.
        """
        if not self._outbox:
            return
        outbox, self._outbox = self._outbox, []
        counters = self.counters
        start = self.now
        self.link.ship([encode_message(message, 0, counters) for message in outbox])
        self.trace.record(self.rank, start, self.now, "serialize", None, "")

    def _decode(self, bodies) -> list[Message]:
        """Decode delivered bodies into messages stamped with their delivery."""
        messages = []
        for body in bodies:
            _seq, message = decode_message(body, self.counters)
            message.delivery_time = self.now
            messages.append(message)
        return messages

    def _blocking_receive(self, process: RankProcess, spec: Receive) -> Message:
        self.flush()
        state = process._state
        matched = RankProcess.match_in_mailbox(state.mailbox, spec)
        if matched is not None:
            state.mailbox.remove(matched)
            return matched
        blocked_since = self.now
        timeout = self.receive_timeout_s
        # The poll interval bounds how late a ReceiveTimeout can fire past
        # the configured deadline; it is injectable (FaultToleranceConfig.
        # receive_poll_s) so tests never wait out hard-coded sleeps.
        poll = None if timeout is None else self.receive_poll_s
        while True:
            bodies = self.link.receive(poll)
            if not bodies:
                waited = self.now - blocked_since
                if waited >= timeout:
                    # A peer that should have answered is probably dead; die
                    # loudly so the driver's recovery machinery sees us
                    # instead of blocking forever.
                    raise ReceiveTimeout(process.rank, spec, waited)
                continue
            result: Message | None = None
            for message in self._decode(bodies):
                if result is None and RankProcess.matches(message, spec):
                    result = message
                else:
                    state.mailbox.append(message)
            if result is not None:
                waited = self.now - blocked_since
                if waited > 0:
                    self.trace.record(
                        process.rank, blocked_since, self.now, "wait", None, ""
                    )
                return result

    # ------------------------------------------------------------------
    def drive(self, process: RankProcess) -> None:
        """Run the process generator to completion on this OS process."""
        process.world = self
        process.prepare_for_transport()
        state = process._state
        generator = process.run()

        def advance(value: Message | None):
            try:
                return generator.send(value)
            except StopIteration:
                state.finished = True
                return None

        try:
            item = next(generator)
        except StopIteration:
            state.finished = True
            return
        while item is not None:
            self.events_processed += 1
            if self.chaos is not None:
                # Ship buffered sends before the chaos hook so an injected
                # kill loses exactly the messages it would have lost before
                # coalescing existed (May os._exit or raise).
                self.flush()
                self.chaos.before_item(item)
            if isinstance(item, Compute):
                # The real work declared by a Compute happens when the
                # generator resumes (the chain step after the yield); flush
                # buffered sends so peers receive them while this rank
                # computes, then measure the span and trace it under the
                # Compute's labels.
                self.flush()
                start = self.now
                next_item = advance(None)
                self.trace.record(
                    process.rank, start, self.now, item.kind, item.level, item.label
                )
                item = next_item
            elif isinstance(item, Send):
                self._post(
                    Message(
                        source=process.rank,
                        dest=item.dest,
                        tag=item.tag,
                        payload=item.payload,
                    )
                )
                item = advance(None)
            elif isinstance(item, Receive):
                item = advance(self._blocking_receive(process, item))
            else:
                raise TypeError(
                    f"process {process.rank} yielded unsupported item {item!r}"
                )
        # The generator finished; ship anything still buffered (e.g. a final
        # report followed by StopIteration with no further flush boundary).
        self.flush()


def _rank_main(
    process: RankProcess,
    open_link: Callable[[], Link],
    origin: float,
    trace_enabled: bool,
    fault_tolerance: FaultToleranceConfig | None = None,
    fault_plan: FaultPlan | None = None,
) -> None:
    """Child entry point of both backends: drive one rank, report the outcome.

    ``open_link`` comes from the run's :meth:`Fabric.opener`; everything the
    rank sends, receives and reports goes through the link it opens.  Without
    ``fault_tolerance`` the rank sends no heartbeats and its receives block
    forever.
    """
    link = open_link()
    chaos = RankChaos(fault_plan, process.rank) if fault_plan is not None else None
    chaos = chaos or None  # a plan without faults for this rank costs nothing
    transport = _ProcessTransport(process.rank, link, origin, trace_enabled, chaos=chaos)
    ft = fault_tolerance
    if ft is not None:
        transport.receive_timeout_s = ft.receive_timeout_s
        transport.receive_poll_s = ft.receive_poll_s

    stop_heartbeat = threading.Event()
    if ft is not None:
        # One synchronous beat before any work: the driver learns this
        # incarnation is up (and gets its initial role metadata) even if a
        # chaos kill fires before the first interval elapses.
        link.report((process.rank, "heartbeat", dict(process.heartbeat_state())))

        def _beat() -> None:
            while not stop_heartbeat.wait(ft.heartbeat_interval_s):
                try:
                    link.report((process.rank, "heartbeat", dict(process.heartbeat_state())))
                except Exception:  # pragma: no cover - link torn down
                    return

        threading.Thread(target=_beat, name=f"repro-heartbeat-{process.rank}", daemon=True).start()

    try:
        transport.drive(process)
        stop_heartbeat.set()
        result = {
            "harvest": process.harvest(),
            "events": transport.trace.events(),
            "messages_sent": transport.messages_sent,
            "events_processed": transport.events_processed,
            "messages_dropped": transport.messages_dropped,
            "chaos_dropped": chaos.dropped if chaos is not None else 0,
            "wire": transport.counters.as_dict(),
        }
        link.report((process.rank, "ok", result))
    except BaseException:
        stop_heartbeat.set()
        try:
            link.report((process.rank, "error", traceback.format_exc()))
        except Exception:  # pragma: no cover - best effort
            pass
    finally:
        link.close()


def _take_reports(result_queue, timeout: float) -> list[RankReport]:
    """Every report queued within ``timeout`` seconds, without waiting further."""
    reports = []
    try:
        reports.append(RankReport(*result_queue.get(timeout=timeout)))
        while True:
            reports.append(RankReport(*result_queue.get(timeout=0)))
    except queue_module.Empty:
        pass
    return reports


class MultiprocessWorld:
    """The real machine: one OS process per rank, queue-based delivery.

    Mirrors the driver-facing surface of
    :class:`~repro.parallel.simmpi.world.VirtualWorld` (``add_process`` /
    ``run`` / ``trace`` / ``messages_sent`` / ``events_processed`` /
    ``unfinished_ranks``), so :class:`repro.parallel.ParallelMLMCMCSampler`
    assembles results identically on either backend.

    Parameters
    ----------
    trace:
        Optional :class:`TraceRecorder` (one is created when omitted).  Child
        processes record locally with real ``perf_counter`` timestamps against
        a shared origin; the events are merged here after the run.
    join_timeout:
        Hard deadline in real seconds for the whole run; on expiry children
        are terminated and the run degrades or raises naming the unfinished
        ranks (the analogue of the virtual world's deadlock diagnostics).
    fault_tolerance:
        Recovery policy (heartbeats, restarts, degradation); ``None``: the
        first rank death is final.
    fault_plan:
        Injected faults for this run (must be resolved against the layout);
        shipped into each rank's first incarnation only.
    """

    #: backend name used in run-failure messages
    backend = "multiprocess"

    def __init__(
        self,
        trace: TraceRecorder | None = None,
        join_timeout: float = 600.0,
        fault_tolerance: FaultToleranceConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        self.trace = trace if trace is not None else TraceRecorder()
        self.join_timeout = float(join_timeout)
        self.fault_tolerance = fault_tolerance
        if fault_plan is not None and not fault_plan.resolved:
            raise ValueError("fault plan must be resolved against the layout first")
        self.fault_plan = fault_plan
        #: populated when a fault-tolerant run observed any failures
        self.failure_report: FailureReport | None = None
        self.now = 0.0
        self._processes: dict[int, RankProcess] = {}
        #: messages posted and primitives interpreted across all ranks
        self.messages_sent = 0
        self.events_processed = 0
        #: sends addressed to ranks outside the machine (should be zero)
        self.messages_dropped = 0
        self._chaos_dropped = 0
        #: heartbeats the driver consumed (0 without fault tolerance)
        self.heartbeats_received = 0
        #: machine-wide wire counters, merged from every finished rank
        self._wire_totals = WireCounters()
        #: per-rank wire counter dicts (ranks that reported "ok")
        self._rank_wire: dict[int, dict[str, float]] = {}
        #: the last run's delivery fabric, clock origin and child processes
        self._fabric: Fabric | None = None
        self._origin = 0.0
        self._children: dict[int, object] = {}

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of registered ranks."""
        return len(self._processes)

    @property
    def processes(self) -> dict[int, RankProcess]:
        """All registered (driver-side) processes by rank."""
        return dict(self._processes)

    def add_process(self, process: RankProcess) -> None:
        """Register a rank process (ranks must be unique)."""
        if process.rank in self._processes:
            raise ValueError(f"rank {process.rank} already registered")
        self._processes[process.rank] = process

    def unfinished_ranks(self) -> list[int]:
        """Ranks that did not report a completed generator."""
        return [rank for rank, proc in self._processes.items() if not proc._state.finished]

    # ------------------------------------------------------------------
    def _open_fabric(self) -> Fabric:
        """The delivery fabric of one run (the socket backend's differs)."""
        return _QueueFabric(tuple(self._processes))

    def _spawn(self, rank: int, with_chaos: bool):
        """Start one incarnation of ``rank`` on a fresh OS process."""
        process = self._processes[rank]
        process.world = None  # children attach their own transport
        child = _CONTEXT.Process(
            target=_rank_main,
            args=(
                process,
                self._fabric.opener(rank),
                self._origin,
                self.trace.enabled,
                self.fault_tolerance,
                self.fault_plan if with_chaos else None,
            ),
            name=f"repro-rank-{rank}-{process.role}",
            daemon=True,
        )
        child.start()
        return child

    def _elapsed(self) -> float:
        return time.perf_counter() - self._origin

    def run(self) -> float:
        """Run all ranks on real processes; return the wall-clock seconds.

        Pumps rank reports, child exits and ticks into a
        :class:`~repro.parallel.fault.Supervisor` and carries out its actions.
        """
        self._origin = time.perf_counter()
        fabric = self._fabric = self._open_fabric()
        # The ranks are forked and share the driver's heap copy-on-write, and
        # a garbage collection writes to every object it walks: keep the
        # pre-run heap out of collection while ranks live, so neither the
        # driver's collections nor a rank's copy the pages they share.
        gc.freeze()
        try:
            self._children = {
                rank: self._spawn(rank, with_chaos=True) for rank in self._processes
            }
        except BaseException:
            gc.unfreeze()
            raise
        supervisor = Supervisor(
            self._processes, self.fault_tolerance, self.backend, self.join_timeout, self._elapsed()
        )
        try:
            while not supervisor.stopped:
                # Everything already queued goes in before the exit checks: a
                # dead rank's last heartbeats (its restart metadata) may still
                # sit behind other ranks' reports.
                wait = supervisor.wait_s(self._elapsed())
                for report in _take_reports(fabric.result_queue, wait):
                    self._carry_out(supervisor.on_event(report, self._elapsed()))
                for rank in supervisor.watched():
                    child = self._children[rank]
                    if child.exitcode is not None:
                        # Let everything the exited incarnation sent reach the
                        # result queue before the exit is judged.
                        fabric.settle(rank)
                        reports = tuple(_take_reports(fabric.result_queue, 0.0))
                        event = ChildExit(rank, child.exitcode, reports)
                        self._carry_out(supervisor.on_event(event, self._elapsed()))
                self._carry_out(supervisor.on_event(TICK, self._elapsed()))
        finally:
            self._shutdown(clean=supervisor.clean)
        self.now = self._elapsed()
        self.heartbeats_received = supervisor.heartbeats
        try:
            supervisor.outcome()
        finally:
            self.failure_report = supervisor.report
        return self.now

    def _carry_out(self, actions: list) -> None:
        """Carry out the supervisor's decisions (a ``Stop`` ends the pump loop)."""
        for action in actions:
            if isinstance(action, Absorb):
                self._absorb(action.rank, action.payload)
            elif isinstance(action, Reap):
                child = self._children[action.rank]
                child.join(timeout=0.2)
                if child.is_alive():
                    child.terminate()
                    child.join(timeout=1.0)
            elif isinstance(action, Inject):
                self._fabric.inject(Message(DRIVER_RANK, action.dest, action.tag, action.payload))
            elif isinstance(action, Respawn):
                # Chaos-free, so a deterministic kill rule cannot re-fire and
                # burn the whole budget on one rank.
                self._children[action.rank] = self._spawn(action.rank, with_chaos=False)

    def _absorb(self, rank: int, payload: dict | None) -> None:
        """Mark ``rank`` finished and apply its ``ok`` payload, if any."""
        process = self._processes[rank]
        process._state.finished = True
        if payload is None:
            return
        process.absorb(payload["harvest"])
        self.trace.extend(payload["events"])
        self.messages_sent += payload["messages_sent"]
        self.events_processed += payload["events_processed"]
        self.messages_dropped += payload.get("messages_dropped", 0)
        self._chaos_dropped += payload.get("chaos_dropped", 0)
        wire = payload.get("wire")
        if wire:
            self._wire_totals.add(wire)
            self._rank_wire[rank] = dict(wire)

    def _shutdown(self, clean: bool) -> None:
        """Join every child within one shared deadline, then tear down."""
        children = self._children.values()
        join_deadline = time.monotonic() + (CLEAN_JOIN_S if clean else DIRTY_JOIN_S)
        # Keep draining while children exit: a rank still flushing late
        # sends after one drain would otherwise block its exit on a full
        # pipe until the deadline.
        while True:
            self._fabric.drain()
            alive = [child for child in children if child.is_alive()]
            remaining = join_deadline - time.monotonic()
            if not alive or remaining <= 0:
                break
            alive[0].join(timeout=min(remaining, 0.05))
        lingering = [child for child in children if child.is_alive()]
        for child in lingering:
            child.terminate()
        for child in lingering:
            child.join(timeout=1.0)
        gc.unfreeze()
        self._fabric.close()

    # ------------------------------------------------------------------
    def wire_summary(self) -> dict[str, float]:
        """Machine-wide wire counters (all NaN when tracing is off).

        Same populated-or-NaN contract as trace utilization: the counters are
        always collected (they are nearly free), but they are only *reported*
        when the run was traced, so a summary consumer can rely on one switch.
        """
        if not self.trace.enabled:
            return {key: float("nan") for key in WIRE_SUMMARY_KEYS}
        totals = WireCounters(**self._wire_totals.as_dict())
        if self._fabric is not None:
            # the driver's own traffic: injections, and the hub's routing
            totals.add(self._fabric.counters.as_dict())
        return {key: float(value) for key, value in totals.as_dict().items()}

    def summary(self) -> dict[str, float | int]:
        """Run-wide statistics (same layout as the virtual world's).

        Extends the shared layout with byte accounting: machine totals plus
        per-rank ``rank{r}_bytes_sent`` / ``rank{r}_bytes_received`` entries,
        NaN when tracing is off or the rank never reported (same contract as
        :meth:`wire_summary`).
        """
        base: dict[str, float | int] = {
            "virtual_time": self.now,
            "num_ranks": self.size,
            "messages_sent": self.messages_sent,
            "events_processed": self.events_processed,
            "messages_dropped": self.messages_dropped,
            "chaos_dropped": self._chaos_dropped,
        }
        nan = float("nan")
        tracing = self.trace.enabled
        base["bytes_sent"] = float(self._wire_totals.bytes_sent) if tracing else nan
        base["bytes_received"] = float(self._wire_totals.bytes_received) if tracing else nan
        for rank in sorted(self._processes):
            wire = self._rank_wire.get(rank) if tracing else None
            for key in ("bytes_sent", "bytes_received"):
                base[f"rank{rank}_{key}"] = nan if wire is None else float(wire[key])
        return base
