"""Transport abstraction under the parallel MLMCMC machine.

The role processes (root, phonebook, collector, controller, worker) describe
their behaviour as generators yielding three *primitives* — :class:`Compute`,
:class:`Send`, :class:`Receive` — and never talk to a clock, a socket or a
queue directly.  Everything substrate-specific lives behind the
:class:`Transport` interface:

* the **simulated** backend (:class:`repro.parallel.simmpi.VirtualWorld`)
  interprets the primitives in a discrete-event simulation: ``Compute``
  advances a virtual clock, messages are delivered after a virtual latency,
  and a whole 128-rank machine runs deterministically inside one Python
  process,
* the **real-process** backends (:class:`repro.parallel.mp.MultiprocessWorld`
  and its TCP twin :class:`repro.parallel.net.SocketWorld`) run every rank's
  generator on its own OS process: ``Send``/``Receive`` move
  :mod:`repro.parallel.wire`-encoded messages over the rank's link, and the
  span of real work following a ``Compute`` is measured with
  ``time.perf_counter()``.

Both backends drive the *same* role generators — the statistical behaviour of
the machine is defined once, here and in :mod:`repro.parallel.roles`, and the
transports only decide where ranks live and what a second means.

One primitive is allocated per yield and one :class:`Message` per send, tens
of thousands per run, so all four are slotted dataclasses; a message carries
routing, tag, payload and the two timestamps, nothing else.

A transport must provide:

``now``
    The current time on the transport's clock (virtual seconds for the
    simulated backend, real seconds since the run started for the
    multiprocess backend).
``poll(process)``
    Move any already-delivered messages into the process's mailbox.  The
    non-blocking helpers (:meth:`RankProcess.try_recv`, :meth:`~RankProcess.drain`,
    :meth:`~RankProcess.pending_count`) call this before inspecting the
    mailbox; the simulated world delivers straight into mailboxes, so its
    ``poll`` is a no-op, while the real-process transports drain their link
    here.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Generator, Iterable

__all__ = [
    "Compute",
    "Message",
    "RankProcess",
    "Receive",
    "ReceiveTimeout",
    "Send",
    "Transport",
]


class ReceiveTimeout(RuntimeError):
    """A blocking receive waited longer than the transport allows.

    Raised inside a rank's host process by the multiprocess transport when a
    ``Receive`` has been pending longer than the configured
    ``receive_timeout_s`` — the symptom of a dead peer.  The simulated
    backend never raises it (a drained event heap already exposes deadlock
    deterministically).
    """

    def __init__(self, rank: int, spec: "Receive", waited_s: float) -> None:
        tags = ", ".join(spec.tags) if spec.tags else "<any>"
        super().__init__(
            f"rank {rank} waited {waited_s:.1f}s for tags [{tags}] with no message"
        )
        self.rank = rank
        self.spec = spec
        self.waited_s = waited_s


@dataclass(slots=True)
class Message:
    """A point-to-point message.

    Attributes
    ----------
    source, dest:
        Sending and receiving rank.
    tag:
        String tag used for matching receives (the role protocols define a
        small vocabulary of tags, e.g. ``"SAMPLE_REQUEST"``).
    payload:
        Arbitrary Python object (picklable, so the multiprocess transport can
        move it across OS process boundaries).
    send_time, delivery_time:
        Timestamps on the transport's clock, filled in when the message is
        posted/delivered.
    """

    source: int
    dest: int
    tag: str
    payload: Any = None
    send_time: float = 0.0
    delivery_time: float = 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message({self.source}->{self.dest}, tag={self.tag!r}, "
            f"t={self.delivery_time:.3f})"
        )


@dataclass(slots=True)
class Compute:
    """Advance the process's clock by one unit of model work.

    The simulated backend advances virtual time by ``duration``; the
    multiprocess backend ignores ``duration`` and instead measures (and
    traces) the *real* time the generator spends until its next yield — which
    is where the chain step following the ``Compute`` runs.
    """

    duration: float
    kind: str = "compute"
    level: int | None = None
    label: str = ""


@dataclass(slots=True)
class Send:
    """Post a message to another rank (non-blocking, buffered)."""

    dest: int
    tag: str
    payload: Any = None


@dataclass(slots=True)
class Receive:
    """Block until a message carrying one of ``tags`` (any tag if empty) arrives."""

    tags: tuple[str, ...] = ()
    source: int | None = None


@dataclass
class _ProcessState:
    """Bookkeeping attached to each process by its transport."""

    mailbox: deque[Message] = field(default_factory=deque)
    waiting_on: Receive | None = None
    finished: bool = False
    blocked_since: float = 0.0


class Transport:
    """Base class of the substrates a :class:`RankProcess` can run on.

    Concrete transports (``VirtualWorld``, the multiprocess per-rank runtime)
    attach themselves to a process as ``process.world`` and must expose a
    ``now`` attribute/property on their clock; :meth:`poll` defaults to a
    no-op for transports that deliver straight into process mailboxes.
    """

    #: current time on the transport's clock (seconds)
    now: float = 0.0

    def poll(self, process: "RankProcess") -> None:
        """Move already-delivered messages into ``process``'s mailbox."""

    def flush(self) -> None:
        """Ship any sends the transport buffered for coalescing.

        Transports that batch outbound messages (the real-process backends)
        override this; the contract is that a flush happens at every point
        the generator gives up control — entering a blocking receive,
        resuming after a ``Compute``, every ``poll`` and generator
        completion — so buffering never changes FIFO-per-pair delivery
        order, only how many messages share a frame.
        """


class RankProcess:
    """Base class for all ranks (root, phonebook, controller, ...).

    The behaviour generator returned by :meth:`run` yields primitives:

    ``yield self.compute(duration, kind="model_eval", level=1)``
        one unit of model work (advances the transport's clock),

    ``yield self.send(dest, "TAG", payload)``
        posts a message,

    ``message = yield self.recv("TAG_A", "TAG_B")``
        blocks until a message with one of the given tags arrives (FIFO per
        source, non-overtaking), and evaluates to that message.

    Helper :meth:`try_recv` drains already-delivered messages without
    blocking, which roles use to serve requests opportunistically between
    chain steps.
    """

    #: role name used in traces and summaries; subclasses override.
    role = "process"

    #: whether a dead rank of this role can be respawned in place by the
    #: real-process backends' :class:`~repro.parallel.fault.Supervisor` (root
    #: and phonebook hold non-reconstructible protocol state and stay False).
    restartable = False

    def __init__(self, rank: int) -> None:
        self.rank = int(rank)
        self.world: Transport | None = None  # set by the transport on attach
        self._state = _ProcessState()

    # -- primitives ---------------------------------------------------------
    def compute(
        self, duration: float, kind: str = "compute", level: int | None = None, label: str = ""
    ) -> Compute:
        """Primitive: one unit of model work (model evaluations, burn-in, ...)."""
        return Compute(duration=float(duration), kind=kind, level=level, label=label)

    def send(self, dest: int, tag: str, payload: Any = None) -> Send:
        """Primitive: post a message."""
        return Send(dest=int(dest), tag=str(tag), payload=payload)

    def recv(self, *tags: str, source: int | None = None) -> Receive:
        """Primitive: block for a message with one of ``tags``."""
        return Receive(tags=tuple(tags), source=source)

    # -- non-blocking helpers ------------------------------------------------
    def _poll(self) -> None:
        """Let the transport move delivered messages into the mailbox."""
        if self.world is not None:
            self.world.poll(self)

    def try_recv(self, *tags: str, source: int | None = None) -> Message | None:
        """Pop an already-delivered matching message, or ``None``."""
        self._poll()
        mailbox = self._state.mailbox
        if not mailbox:
            return None
        for idx, message in enumerate(mailbox):
            if tags and message.tag not in tags:
                continue
            if source is not None and message.source != source:
                continue
            del mailbox[idx]
            return message
        return None

    def drain(self, *tags: str) -> list[Message]:
        """Pop all already-delivered messages matching ``tags``."""
        drained = []
        while True:
            message = self.try_recv(*tags)
            if message is None:
                return drained
            drained.append(message)

    def pending_count(self, *tags: str) -> int:
        """Number of delivered-but-unconsumed messages matching ``tags``."""
        self._poll()
        if not tags:
            return len(self._state.mailbox)
        return sum(1 for m in self._state.mailbox if m.tag in tags)

    # -- transport hooks ----------------------------------------------------
    @property
    def now(self) -> float:
        """Current time on the attached transport's clock."""
        return self.world.now if self.world is not None else 0.0

    def run(self) -> Generator[Compute | Send | Receive, Message | None, None]:
        """Behaviour generator; subclasses must override."""
        raise NotImplementedError
        yield  # pragma: no cover

    def describe(self) -> dict[str, Any]:
        """Role description used in summaries / traces."""
        return {"rank": self.rank, "role": self.role}

    # -- fault tolerance hooks ----------------------------------------------
    def heartbeat_state(self) -> dict[str, Any]:
        """Small picklable progress summary shipped with each heartbeat.

        The multiprocess transport attaches this to the heartbeats a rank's
        host process emits; the driver keeps the latest copy per rank and
        feeds it to :meth:`restart_message` when the rank has to be
        respawned.  Must stay cheap — it is called from the heartbeat thread.
        """
        return {}

    def restart_message(self, heartbeat_meta: dict[str, Any]) -> tuple[str, Any] | None:
        """Bootstrap ``(tag, payload)`` to inject into a respawned rank's queue.

        A freshly respawned rank starts its generator from the beginning and
        blocks on its initial receive; roles that are normally started by a
        message from another rank (controllers wait for ``ASSIGN``,
        collectors for ``COLLECT``) reconstruct that message here from the
        rank's last heartbeat metadata.  ``None`` means no bootstrap needed.
        """
        return None

    def peer_restart_message(self, rank: int, role: str) -> tuple[str, Any] | None:
        """Notice ``(tag, payload)`` to inject when *another* rank was respawned.

        A dead incarnation takes with it the requests it had consumed but
        not answered yet (and any sends still buffered in its outbox), so
        roles that wait on answers from ``role`` re-issue their outstanding
        request on this notice.  ``None`` means no notice needed.
        """
        return None

    # -- state shipping (multiprocess transport) ----------------------------
    def prepare_for_transport(self) -> None:
        """Hook run on the rank's host process before the generator starts.

        Roles that accumulate statistics in shared objects (e.g. the
        controllers' problem caches) snapshot a baseline here so
        :meth:`harvest` ships only what *this* run produced.
        """

    def harvest(self) -> dict[str, Any]:
        """Picklable role state to ship back to the driver after the run.

        The multiprocess transport calls this on the child process once the
        generator finishes and applies the result to the driver-side twin via
        :meth:`absorb`.  The default ships nothing; roles whose results the
        driver reads (collected corrections, rebalance logs, per-level sample
        counts) override it.
        """
        return {}

    def absorb(self, harvest: dict[str, Any]) -> None:
        """Apply a :meth:`harvest` payload to this (driver-side) instance."""
        for key, value in harvest.items():
            setattr(self, key, value)

    # -- matching -----------------------------------------------------------
    @staticmethod
    def matches(message: Message, spec: Receive) -> bool:
        """Whether ``message`` satisfies a receive specification."""
        if spec.tags and message.tag not in spec.tags:
            return False
        if spec.source is not None and message.source != spec.source:
            return False
        return True

    @staticmethod
    def match_in_mailbox(mailbox: Iterable[Message], spec: Receive) -> Message | None:
        """First matching message in a mailbox (FIFO)."""
        for message in mailbox:
            if RankProcess.matches(message, spec):
                return message
        return None
