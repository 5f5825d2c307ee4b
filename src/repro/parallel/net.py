"""TCP socket transport for the parallel MLMCMC machine.

Runs the *unchanged* role generators (root, phonebook, collectors,
controllers, workers) on separate processes, connected by TCP instead of OS
queues.  Only the delivery fabric differs from :mod:`repro.parallel.mp`: the
child runs the same :func:`~repro.parallel.mp._rank_main` over a
:class:`_HubClient` link, and the driver runs the same supervise loop over a
:class:`_Hub` fabric, so chaos injection, receive timeouts, tracing and
heartbeats behave identically on both real-process backends.

Wire format
-----------

Every frame is length-prefixed and versioned::

    | magic ``RMLM`` (4) | version u16 | kind u8 | pad u8 | body length u32 |

followed by ``body length`` bytes of payload, all integers big-endian.  A
peer speaking a different protocol version (or not speaking the protocol at
all) is rejected loudly with :class:`ProtocolVersionError` /
:class:`WireProtocolError` — never silently misparsed.  A connection that
dies mid-frame raises :class:`TruncatedFrameError`.

``MESSAGE`` frames carry one :class:`~repro.parallel.transport.Message` as an
explicit binary envelope (sequence number, source, dest, tag, timestamps)
followed by the :mod:`repro.parallel.wire` payload codec — ndarray payloads
travel out-of-band as typed header + raw buffer, everything else as a pickle
inside a version-checked frame.  ``BATCH`` frames (protocol v2) coalesce
several such message bodies into one length-prefixed blob, amortizing frame
headers and syscalls; ACK/replay bookkeeping stays per inner message (each
body keeps its own sequence number).  ``HEARTBEAT`` and ``RESULT`` frames
carry the same ``(rank, status, payload)`` tuples the multiprocess backend
puts on its result queue.

Acknowledgements are *cumulative*: a child tracks the highest sequence number
it consumed (delivery into its transport is FIFO, so consumption is monotone
per link) and flushes one ACK frame at its next idle boundary; the hub drops
every retained body up to and including that sequence number.  One ACK
syscall then covers a whole burst instead of one per message.

Bootstrap (rendezvous)
----------------------

The driver's :class:`_Hub` listens on ``host:port`` (``port=0`` picks an
ephemeral port, the localhost smoke default).  Each rank dials in with
bounded exponential backoff (:func:`connect_with_backoff`), sends ``HELLO``
(its rank id), and waits for ``WELCOME``; a dropped or refused connection
triggers another backoff round, a protocol-version mismatch aborts
immediately.  All rank-to-rank traffic is routed hub-and-spoke: a child
frames its ``Send`` to the hub, the hub forwards it down the destination
rank's connection.

Failure semantics
-----------------

The hub keeps a per-rank *persistent* delivery state that survives rank
death, mirroring the multiprocess backend's OS queues (at-least-once
delivery):

* outbound messages get per-rank sequence numbers; a child acknowledges a
  message only when its transport actually consumes it,
* when a rank's connection drops, delivered-but-unacknowledged messages are
  requeued ahead of the backlog and replayed to the next incarnation that
  says ``HELLO`` — so fetch orders addressed to a dead incarnation are
  served by its replacement,
* heartbeats ride the same connection and feed the *unchanged*
  :mod:`repro.parallel.fault` machinery (crash/hang detection, respawn with
  backoff, restart budget, degradation with a
  :class:`~repro.parallel.fault.FailureReport`).

Launching
---------

:class:`SocketWorld` starts one process per rank on this machine exactly as
the multiprocess backend does — the localhost topology (``127.0.0.1``, N
processes, one ephemeral hub port).  Launching ranks on other hosts is not
provided.
"""

from __future__ import annotations

import functools
import logging
import pickle
import queue as queue_module
import socket
import struct
import threading
import time
from collections import OrderedDict, deque
from typing import Callable

from repro.parallel.mp import MultiprocessWorld
from repro.parallel.transport import Message
from repro.parallel.wire import (
    TruncatedFrameError,
    WireCounters,
    WireProtocolError,
    decode_message,
    encode_message,
    iter_bodies,
    pack_bodies,
    patch_seq,
    peek_dest,
    peek_seq,
)

__all__ = [
    "MAGIC",
    "PROTOCOL_VERSION",
    "WireProtocolError",
    "TruncatedFrameError",
    "ProtocolVersionError",
    "encode_frame",
    "decode_frame",
    "encode_message",
    "decode_message",
    "read_frame",
    "write_frame",
    "connect_with_backoff",
    "SocketWorld",
]

logger = logging.getLogger(__name__)

#: first bytes of every frame; anything else on the socket is not our protocol
MAGIC = b"RMLM"
#: bumped on any incompatible change to framing or envelopes
#: (v2: out-of-band ndarray payload codec + BATCH frames + cumulative ACKs)
PROTOCOL_VERSION = 2

#: magic, protocol version, frame kind, pad, body length (big-endian)
_HEADER = struct.Struct("!4sHBxI")
HEADER_SIZE = _HEADER.size

FRAME_HELLO = 1
FRAME_WELCOME = 2
FRAME_MESSAGE = 3
FRAME_ACK = 4
FRAME_HEARTBEAT = 5
FRAME_RESULT = 6
FRAME_BATCH = 7
_FRAME_KINDS = frozenset(
    (
        FRAME_HELLO,
        FRAME_WELCOME,
        FRAME_MESSAGE,
        FRAME_ACK,
        FRAME_HEARTBEAT,
        FRAME_RESULT,
        FRAME_BATCH,
    )
)

#: sanity bound: a length field beyond this is a corrupt or hostile header
MAX_FRAME_BODY = 1 << 30

#: soft cap on the bodies coalesced into a single BATCH frame
MAX_BATCH_BYTES = 1 << 23

#: HELLO / WELCOME body: the rank id
_HELLO = struct.Struct("!i")
#: ACK body: the highest consumed sequence number (cumulative)
_ACK = struct.Struct("!q")

#: how long a finished rank waits for the hub's EOF before closing anyway
_CLOSE_DRAIN_S = 5.0


class ProtocolVersionError(WireProtocolError):
    """The peer speaks a different protocol version; never retried."""


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------


def _check_header(magic: bytes, version: int, kind: int, length: int) -> None:
    if magic != MAGIC:
        raise WireProtocolError(
            f"bad frame magic {magic!r} (expected {MAGIC!r}): "
            "peer is not speaking the repro wire protocol"
        )
    if version != PROTOCOL_VERSION:
        raise ProtocolVersionError(
            f"peer speaks wire protocol v{version}, this build speaks "
            f"v{PROTOCOL_VERSION}; refusing to guess at compatibility"
        )
    if kind not in _FRAME_KINDS:
        raise WireProtocolError(f"unknown frame kind {kind}")
    if length > MAX_FRAME_BODY:
        raise WireProtocolError(
            f"frame announces a {length}-byte body (sanity bound {MAX_FRAME_BODY})"
        )


def encode_frame(kind: int, body: bytes) -> bytes:
    """One complete frame: versioned header + body."""
    if kind not in _FRAME_KINDS:
        raise WireProtocolError(f"unknown frame kind {kind}")
    if len(body) > MAX_FRAME_BODY:
        raise WireProtocolError(f"frame body of {len(body)} bytes exceeds sanity bound")
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, len(body)) + body


def decode_frame(data: bytes) -> tuple[int, bytes]:
    """Decode one complete frame from a byte string (inverse of encode).

    Raises :class:`TruncatedFrameError` when ``data`` stops mid-header or
    mid-body, and the usual header errors for bad magic/version/kind.
    """
    if len(data) < HEADER_SIZE:
        raise TruncatedFrameError(
            f"frame truncated inside the header ({len(data)}/{HEADER_SIZE} bytes)"
        )
    magic, version, kind, length = _HEADER.unpack_from(data)
    _check_header(magic, version, kind, length)
    body = data[HEADER_SIZE : HEADER_SIZE + length]
    if len(body) < length:
        raise TruncatedFrameError(
            f"frame truncated inside the body ({len(body)}/{length} bytes)"
        )
    return kind, body


def _recv_exact(sock: socket.socket, count: int, already: bytes = b"") -> bytes:
    buf = bytearray(already)
    while len(buf) < count:
        chunk = sock.recv(count - len(buf))
        if not chunk:
            raise TruncatedFrameError(
                f"connection closed mid-frame ({len(buf)}/{count} bytes)"
            )
        buf += chunk
    return bytes(buf)


def read_frame(sock: socket.socket) -> tuple[int, bytes] | None:
    """Read one frame off a socket; ``None`` on clean EOF at a boundary."""
    first = sock.recv(1)
    if not first:
        return None
    header = _recv_exact(sock, HEADER_SIZE, already=first)
    magic, version, kind, length = _HEADER.unpack(header)
    _check_header(magic, version, kind, length)
    body = _recv_exact(sock, length) if length else b""
    return kind, body


def write_frame(sock: socket.socket, kind: int, body: bytes) -> None:
    """Write one complete frame onto a socket."""
    sock.sendall(encode_frame(kind, body))


# ----------------------------------------------------------------------
# bootstrap
# ----------------------------------------------------------------------


def connect_with_backoff(
    address: tuple[str, int],
    hello: int | None = None,
    attempts: int = 10,
    base_delay: float = 0.05,
    max_delay: float = 2.0,
    attempt_timeout_s: float = 10.0,
) -> socket.socket:
    """Dial ``address`` with bounded exponential backoff.

    With ``hello`` (a rank id) the HELLO/WELCOME rendezvous handshake is part
    of each attempt: a listener that accepts and then drops the connection
    before ``WELCOME`` — a hub still starting up, or a flaky first accept —
    costs one backoff round instead of a hang or a crash.  Connection refusal
    and truncation are retried; a protocol-version mismatch or bad magic is
    raised immediately (retrying cannot fix a version skew).

    Raises :class:`ConnectionError` once the attempt budget is spent.
    """
    delay = base_delay
    last_error: Exception | None = None
    for attempt in range(max(1, attempts)):
        if attempt:
            time.sleep(delay)
            delay = min(delay * 2.0, max_delay)
        try:
            sock = socket.create_connection(address, timeout=attempt_timeout_s)
        except OSError as error:
            last_error = error
            continue
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if hello is not None:
                write_frame(sock, FRAME_HELLO, _HELLO.pack(hello))
                frame = read_frame(sock)
                if frame is None or frame[0] != FRAME_WELCOME:
                    raise TruncatedFrameError(
                        "listener dropped the connection before WELCOME"
                    )
            sock.settimeout(None)
            return sock
        except (TruncatedFrameError, OSError) as error:
            sock.close()
            last_error = error
        except WireProtocolError:
            # bad magic / version mismatch: loud, immediate, non-retryable
            sock.close()
            raise
    raise ConnectionError(
        f"could not register with hub at {address[0]}:{address[1]} after "
        f"{attempts} attempt(s); last error: {last_error}"
    )


# ----------------------------------------------------------------------
# child side: the link over one hub connection
# ----------------------------------------------------------------------


class _HubClient:
    """:class:`~repro.parallel.mp.Link` over one rank's connection to the hub.

    A reader thread queues the bodies of each delivered MESSAGE / BATCH frame;
    they stay encoded until the transport decodes them.  Handing bodies to the
    transport consumes them and advances the cumulative ACK watermark:
    anything delivered to an incarnation that died before consuming it is
    replayed to the replacement (at-least-once, mirroring the persistent OS
    queues of the multiprocess backend).
    """

    def __init__(self, rank: int, address: tuple[str, int], ranks) -> None:
        self._ranks = frozenset(ranks)
        self._sock = connect_with_backoff(address, hello=rank)
        self._write_lock = threading.Lock()
        self.counters = WireCounters()
        self._inbox: queue_module.Queue = queue_module.Queue()
        self._consumed_seq = -1
        self._acked_seq = -1
        self._reader = threading.Thread(
            target=self._read_loop, name=f"repro-net-inbox-{rank}", daemon=True
        )
        self._reader.start()

    def _read_loop(self) -> None:
        try:
            while True:
                frame = read_frame(self._sock)
                if frame is None:
                    return
                kind, body = frame
                if kind == FRAME_MESSAGE:
                    bodies = [body]
                elif kind == FRAME_BATCH:
                    bodies = list(iter_bodies(body))
                else:
                    continue  # the hub sends nothing else after WELCOME
                self.counters.frames_received += 1
                self.counters.bytes_received += HEADER_SIZE + len(body)
                self._inbox.put(bodies)
        except (OSError, WireProtocolError):
            # Connection gone: the generator will hit a receive timeout (or a
            # failed send) and the driver's failure detection takes it from
            # there — nothing useful to do inside the child.
            return

    def _send(self, frame: bytes) -> None:
        with self._write_lock:
            self._sock.sendall(frame)

    def has_rank(self, rank: int) -> bool:
        return rank in self._ranks

    def ship(self, bodies: list[bytes]) -> None:
        """One MESSAGE frame, or one BATCH for a whole flush (any destinations)."""
        if len(bodies) == 1:
            frame = encode_frame(FRAME_MESSAGE, bytes(bodies[0]))
        else:
            frame = encode_frame(FRAME_BATCH, pack_bodies(bodies))
            self.counters.coalesced_batches += 1
            self.counters.coalesced_messages += len(bodies)
        self.counters.frames_sent += 1
        self.counters.bytes_sent += len(frame)
        self._send(frame)

    def receive(self, timeout: float | None) -> list:
        if self._inbox.empty() and self._consumed_seq > self._acked_seq:
            # Idle boundary: about to wait, so let the hub retire everything
            # consumed so far with one ACK frame.  While a burst is still
            # queued the watermark just advances — one ACK covers the burst.
            self._acked_seq = self._consumed_seq
            self._send(encode_frame(FRAME_ACK, _ACK.pack(self._acked_seq)))
        try:
            bodies = self._inbox.get(timeout=timeout)
        except queue_module.Empty:
            return []
        # Delivery is FIFO per link, so the last body carries the highest seq.
        self._consumed_seq = max(self._consumed_seq, peek_seq(bodies[-1]))
        return bodies

    def report(self, item: tuple) -> None:
        kind = FRAME_HEARTBEAT if item[1] == "heartbeat" else FRAME_RESULT
        self._send(
            encode_frame(kind, pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
        )

    def close(self) -> None:
        """Graceful close: send FIN, drain until the hub's EOF, release.

        Closing with unread bytes in the receive buffer (late messages this
        rank never consumed) makes the kernel send RST instead of FIN, and a
        hub that receives RST may discard frames it has not read yet — this
        rank's RESULT among them.  So only the write side is shut down; the
        reader keeps draining until the hub, having read up to the FIN,
        closes its end.
        """
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            pass
        self._reader.join(timeout=_CLOSE_DRAIN_S)
        self._sock.close()


# ----------------------------------------------------------------------
# driver side: rendezvous hub + router
# ----------------------------------------------------------------------


class _RankLink:
    """Driver-side delivery state of one rank; survives incarnations.

    The hub retains *encoded bodies* (mutable so sequence numbers can be
    patched in place), never decoded payloads: routing needs only the
    envelope's ``dest`` field, so rank-to-rank traffic crosses the hub
    without a single pickle round-trip.
    """

    __slots__ = (
        "rank", "lock", "conn", "conn_id", "reader", "next_seq", "unacked", "pending"
    )

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.lock = threading.Lock()
        #: the connection the hub *writes* to; its reader thread owns (and
        #: eventually closes) the socket itself
        self.conn: socket.socket | None = None
        #: bumped per registered connection so a stale reader can tell it was replaced
        self.conn_id = 0
        #: reader thread of the latest registered connection
        self.reader: threading.Thread | None = None
        self.next_seq = 0
        #: seq → encoded body, written to a connection but not yet consumed
        self.unacked: OrderedDict[int, bytearray] = OrderedDict()
        #: backlog with no connection to carry it (or behind a replay)
        self.pending: deque[bytearray] = deque()


class _Hub:
    """Rendezvous listener + hub-and-spoke router: the socket backend's fabric.

    Implements :class:`~repro.parallel.mp.Fabric`.  Owns the per-rank
    persistent delivery state (see :class:`_RankLink`) and forwards
    ``HEARTBEAT``/``RESULT`` frames into ``result_queue`` as the same
    ``(rank, status, payload)`` tuples the multiprocess result queue carries,
    so the supervise loop consumes either backend identically.
    """

    def __init__(self, ranks, host: str, port: int) -> None:
        self._links = {rank: _RankLink(rank) for rank in ranks}
        self.result_queue: queue_module.Queue = queue_module.Queue()
        self._listener = socket.create_server(
            (host, port), backlog=max(8, len(self._links))
        )
        addr = self._listener.getsockname()
        self.address: tuple[str, int] = (addr[0], addr[1])
        self._closed = threading.Event()
        self._threads: list[threading.Thread] = []
        #: every registered connection, so teardown can wake its reader
        self._conns: list[socket.socket] = []
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-net-accept", daemon=True
        )
        #: messages routed through the hub (both directions of every pair)
        self.messages_routed = 0
        #: messages replayed to replacement incarnations
        self.replays = 0
        #: driver-side wire counters (merged into the world's wire_summary)
        self.counters = WireCounters()
        self._accept_thread.start()

    def opener(self, rank: int) -> Callable[[], _HubClient]:
        return functools.partial(_HubClient, rank, self.address, tuple(self._links))

    @property
    def closed(self) -> bool:
        return self._closed.is_set()

    # -- rendezvous ----------------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            try:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(10.0)
                frame = read_frame(conn)
                if frame is None:
                    conn.close()
                    continue
                kind, body = frame
                if kind != FRAME_HELLO:
                    raise WireProtocolError(f"expected HELLO, got frame kind {kind}")
                (rank,) = _HELLO.unpack(body)
                link = self._links.get(rank)
                if link is None:
                    raise WireProtocolError(f"HELLO from unknown rank {rank}")
                write_frame(conn, FRAME_WELCOME, _HELLO.pack(rank))
                conn.settimeout(None)
            except (OSError, WireProtocolError) as error:
                logger.warning("hub rejected a connection: %s", error)
                try:
                    conn.close()
                except OSError:
                    pass
                continue
            self._register(link, conn)

    def _register(self, link: _RankLink, conn: socket.socket) -> None:
        # A replacement may say HELLO before the old connection EOF'd (the
        # usual case right after a kill).  The hub just stops writing to the
        # corpse; its reader still drains whatever the dead incarnation sent
        # and closes it at EOF.
        with link.lock:
            link.conn_id += 1
            conn_id = link.conn_id
            link.conn = conn
            self._requeue_unacked_locked(link)
            self._flush_locked(link)
        self._conns.append(conn)
        thread = threading.Thread(
            target=self._serve_rank,
            args=(link, conn, conn_id),
            name=f"repro-net-rank-{link.rank}",
            daemon=True,
        )
        link.reader = thread
        thread.start()
        self._threads.append(thread)

    def settle(self, rank: int, timeout: float = 1.0) -> None:
        """Wait (bounded) until the reader of ``rank``'s latest connection hit EOF.

        Called once the rank's process has exited: afterwards every frame the
        dead incarnation sent — its last heartbeat above all — has been
        routed or handed to the result sink.
        """
        link = self._links.get(rank)
        if link is not None and link.reader is not None:
            link.reader.join(timeout=timeout)

    # -- delivery (all three helpers expect link.lock held) ------------
    def _requeue_unacked_locked(self, link: _RankLink) -> None:
        # Delivered-but-unconsumed bodies must precede the backlog so the
        # replacement sees the same FIFO-per-pair order the dead incarnation
        # would have (they get fresh sequence numbers on the next flush).
        if link.unacked:
            self.replays += len(link.unacked)
            link.pending.extendleft(reversed(list(link.unacked.values())))
            link.unacked.clear()

    def _disconnect_locked(self, link: _RankLink) -> None:
        # Only stop *writing*: closing here would pull the socket out from
        # under the connection's reader thread, and the rank's last frames
        # (its RESULT among them) may still sit unread in the receive buffer
        # behind a failed forward.  The reader closes the socket at EOF.
        link.conn = None
        self._requeue_unacked_locked(link)

    def _flush_locked(self, link: _RankLink) -> None:
        while link.pending and link.conn is not None:
            # Drain the backlog in chunks: sequence numbers are patched into
            # each body, then one MESSAGE (single body) or BATCH (several)
            # frame carries the chunk — one syscall for a whole burst.
            chunk: list[bytearray] = []
            seqs: list[int] = []
            size = 0
            while link.pending and size < MAX_BATCH_BYTES:
                body = link.pending.popleft()
                seq = link.next_seq
                link.next_seq += 1
                patch_seq(body, seq)
                chunk.append(body)
                seqs.append(seq)
                size += len(body)
            if len(chunk) == 1:
                frame = encode_frame(FRAME_MESSAGE, bytes(chunk[0]))
            else:
                frame = encode_frame(FRAME_BATCH, pack_bodies(chunk))
                self.counters.coalesced_batches += 1
                self.counters.coalesced_messages += len(chunk)
            try:
                link.conn.sendall(frame)
            except OSError:
                # Put the chunk back in order; it will be re-sequenced (and
                # replayed) for the next incarnation.
                link.pending.extendleft(reversed(chunk))
                self._disconnect_locked(link)
                return
            self.counters.frames_sent += 1
            self.counters.bytes_sent += len(frame)
            for seq, body in zip(seqs, chunk):
                link.unacked[seq] = body

    def inject(self, message: Message) -> None:
        """Route one driver message to its destination.

        The hub's per-rank buffers are the persistent store: a bootstrap
        injected while the rank is down is replayed to the replacement
        incarnation in order.
        """
        self._route_bodies([bytearray(encode_message(message, 0, self.counters))])

    def _route_bodies(self, bodies) -> None:
        """Route encoded bodies by their envelope ``dest``, one flush per link."""
        touched: dict[int, tuple[_RankLink, list[bytearray]]] = {}
        for body in bodies:
            body = body if isinstance(body, bytearray) else bytearray(body)
            dest = peek_dest(body)
            link = self._links.get(dest)
            if link is None:
                logger.warning(
                    "hub dropped a message: destination rank %d is not part "
                    "of this machine",
                    dest,
                )
                continue
            touched.setdefault(dest, (link, []))[1].append(body)
        for link, items in touched.values():
            with link.lock:
                link.pending.extend(items)
                self._flush_locked(link)
                self.messages_routed += len(items)

    # -- per-connection reader -----------------------------------------
    def _serve_rank(self, link: _RankLink, conn: socket.socket, conn_id: int) -> None:
        try:
            while True:
                frame = read_frame(conn)
                if frame is None:
                    break
                kind, body = frame
                if kind == FRAME_MESSAGE:
                    self.counters.frames_received += 1
                    self.counters.bytes_received += HEADER_SIZE + len(body)
                    self._route_bodies([body])
                elif kind == FRAME_BATCH:
                    self.counters.frames_received += 1
                    self.counters.bytes_received += HEADER_SIZE + len(body)
                    self._route_bodies(iter_bodies(body))
                elif kind == FRAME_ACK:
                    # Cumulative: retire everything up to the watermark.
                    (seq,) = _ACK.unpack(body)
                    with link.lock:
                        while link.unacked and next(iter(link.unacked)) <= seq:
                            link.unacked.popitem(last=False)
                elif kind in (FRAME_HEARTBEAT, FRAME_RESULT):
                    self.result_queue.put(pickle.loads(body))
                else:
                    raise WireProtocolError(
                        f"unexpected frame kind {kind} from rank {link.rank}"
                    )
        except (OSError, WireProtocolError) as error:
            if not self._closed.is_set():
                logger.debug("hub reader for rank %d stopped: %s", link.rank, error)
        finally:
            with link.lock:
                if link.conn_id == conn_id:
                    self._disconnect_locked(link)
            try:
                conn.close()
            except OSError:
                pass

    # -- teardown -------------------------------------------------------
    def drain(self) -> None:
        pass  # undelivered bodies die with the hub

    def close(self) -> None:
        """Stop accepting, close every connection, join the service threads."""
        if self._closed.is_set():
            return
        self._closed.set()
        for link in self._links.values():
            with link.lock:
                link.conn = None
        # ``close()`` alone does not wake a thread blocked in ``accept`` or
        # ``recv`` on Linux; ``shutdown`` does, so the accept thread and every
        # reader return and close their own sockets.
        for sock in (self._listener, *self._conns):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        deadline = time.monotonic() + 2.0
        for thread in (*self._threads, self._accept_thread):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
        for sock in (self._listener, *self._conns):
            sock.close()


class SocketWorld(MultiprocessWorld):
    """The networked machine: one process per rank, TCP hub delivery.

    Driver-facing surface (``add_process`` / ``run`` / ``trace`` /
    ``summary`` / ``failure_report`` …) is identical to
    :class:`MultiprocessWorld`; only the fabric differs: a :class:`_Hub`
    rendezvous listener instead of OS queues, so the supervise/recovery loop
    runs unchanged on ``(rank, status, payload)`` tuples arriving over TCP.

    Parameters beyond :class:`MultiprocessWorld`'s:

    host, port:
        Hub bind address.  The defaults (``127.0.0.1``, ephemeral port) are
        the localhost topology.
    """

    backend = "socket"

    def __init__(
        self,
        trace=None,
        host: str = "127.0.0.1",
        port: int = 0,
        join_timeout: float = 600.0,
        fault_tolerance=None,
        fault_plan=None,
    ) -> None:
        super().__init__(
            trace=trace,
            join_timeout=join_timeout,
            fault_tolerance=fault_tolerance,
            fault_plan=fault_plan,
        )
        self.host = str(host)
        self.port = int(port)

    @property
    def _hub(self) -> _Hub | None:
        """The last run's hub (tests assert clean shutdown through it)."""
        return self._fabric

    def _open_fabric(self) -> _Hub:
        return _Hub(tuple(self._processes), self.host, self.port)
