"""Zero-copy message codec shared by the real-process transports.

Every message the multiprocess and socket backends move between ranks used to
round-trip its whole payload through :mod:`pickle`.  For the parallel MLMCMC
machine that is almost always the wrong tool: the bulk of the traffic is
numpy ndarrays (proposal states, QOI vectors, paired correction batches), and
pickling them buys nothing over shipping the raw buffer next to a typed
header.  This module provides the shared fast path:

**Out-of-band ndarray framing** — :func:`encode_payload` walks the payload
(tuples, lists, dicts), pulls every eligible ndarray out into a typed binary
block (dtype string, memory order, shape, byte length, raw buffer) and
pickles only the remaining *skeleton* with small placeholders where the
arrays were.  :func:`decode_payload` reconstructs each array with
``np.frombuffer`` over a slice of the received buffer — zero copies, zero
pickle involvement for array bytes.  Decoded arrays are read-only views;
receivers must treat payloads as immutable (the simulated backend shares
payload *objects* across ranks, so mutation was always a protocol bug).
Arrays with object or otherwise non-portable dtypes, and any payload without
arrays, fall back to the plain pickle envelope unchanged.

**Message envelope** — :func:`encode_message` / :func:`decode_message` frame
one :class:`~repro.parallel.transport.Message` as explicit big-endian struct
fields (sequence number, routing, tag, timestamps) followed by the encoded
payload, so a router can read the destination (:func:`peek_dest`) or stamp a
sequence number (:func:`patch_seq`) without touching payload bytes at all.

**Batch frames** — :func:`pack_bodies` / :func:`iter_bodies` concatenate
several encoded messages into one blob (``u32 count`` then length-prefixed
bodies), the coalescing unit of both transports: the body of a socket
``BATCH`` frame, and the item a multiprocess flush puts on a rank's queue.

All counters of the fast path (bytes, frames, coalescing, out-of-band
arrays, serialization time) accumulate in a
:class:`WireCounters`, which the transports surface through world summaries
and :class:`~repro.parallel.trace.TraceRecorder` ``"serialize"`` intervals.
"""

from __future__ import annotations

import pickle
import struct
import time
from dataclasses import dataclass, fields
from typing import Any, Iterable, Iterator

import numpy as np

from repro.parallel.transport import Message

__all__ = [
    "WIRE_CODEC_VERSION",
    "WIRE_SUMMARY_KEYS",
    "WireProtocolError",
    "TruncatedFrameError",
    "WireCounters",
    "encode_payload",
    "decode_payload",
    "encode_message",
    "decode_message",
    "peek_seq",
    "peek_dest",
    "patch_seq",
    "pack_bodies",
    "iter_bodies",
    "payload_array_nbytes",
]

#: bumped on any incompatible change to the payload codec layout
WIRE_CODEC_VERSION = 1

#: payload carries only the pickle envelope
_MODE_PICKLE = 0
#: payload carries out-of-band array blocks + a pickled skeleton
_MODE_OOB = 1

#: codec version, mode
_PREAMBLE = struct.Struct("!BB")
#: number of out-of-band array blocks / bodies in a batch
_COUNT = struct.Struct("!I")
#: one array dimension / raw-buffer byte length
_U64 = struct.Struct("!Q")
#: dtype-string length, memory order (0=C, 1=F), ndim
_BLOCK_HEAD = struct.Struct("!BBB")
#: message envelope: seq, source, dest, tag length, send_time, delivery_time
_ENVELOPE = struct.Struct("!qiiIdd")
#: length prefix of one body inside a batch blob
_BODY_LEN = struct.Struct("!I")


class WireProtocolError(RuntimeError):
    """The peer sent bytes that are not a valid protocol frame."""


class TruncatedFrameError(WireProtocolError):
    """The connection ended (or the buffer ran out) mid-frame."""


@dataclass
class WireCounters:
    """Accumulated fast-path statistics of one transport endpoint."""

    bytes_sent: int = 0
    bytes_received: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    messages_encoded: int = 0
    messages_decoded: int = 0
    coalesced_batches: int = 0
    coalesced_messages: int = 0
    oob_arrays: int = 0
    oob_bytes: int = 0
    #: always 0: the shared-memory lane is gone, but the benchmark's per-layer
    #: metrics still read the ``wire_shm_messages`` summary key
    shm_messages: int = 0
    serialize_s: float = 0.0
    deserialize_s: float = 0.0

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def add(self, other: dict[str, float]) -> None:
        for key, value in other.items():
            setattr(self, key, getattr(self, key) + value)


#: canonical key set of every wire summary (world and result level)
WIRE_SUMMARY_KEYS = tuple(f.name for f in fields(WireCounters))


# ----------------------------------------------------------------------
# payload codec: out-of-band ndarray blocks + pickled skeleton
# ----------------------------------------------------------------------


class _ArraySlot:
    """Placeholder left in the pickled skeleton where an array was."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __reduce__(self):
        return (_ArraySlot, (self.index,))


def _oob_eligible(array: np.ndarray) -> bool:
    """Whether an array's buffer can travel out-of-band.

    Object dtypes hold references (pickle must walk them) and structured /
    exotic dtypes do not survive a dtype-string round trip; both fall back to
    the pickle envelope.
    """
    dtype = array.dtype
    if dtype.hasobject:
        return False
    try:
        return np.dtype(dtype.str) == dtype
    except TypeError:  # pragma: no cover - defensive
        return False


def _extract_arrays(obj: Any, blocks: list[np.ndarray]) -> Any:
    if type(obj) is np.ndarray and _oob_eligible(obj):
        blocks.append(obj)
        return _ArraySlot(len(blocks) - 1)
    kind = type(obj)
    if kind is tuple:
        return tuple(_extract_arrays(value, blocks) for value in obj)
    if kind is list:
        return [_extract_arrays(value, blocks) for value in obj]
    if kind is dict:
        return {key: _extract_arrays(value, blocks) for key, value in obj.items()}
    return obj


def _restore_arrays(obj: Any, arrays: list[np.ndarray]) -> Any:
    if type(obj) is _ArraySlot:
        if not 0 <= obj.index < len(arrays):
            raise WireProtocolError(
                f"payload skeleton references array block {obj.index}, but only "
                f"{len(arrays)} block(s) were framed"
            )
        return arrays[obj.index]
    kind = type(obj)
    if kind is tuple:
        return tuple(_restore_arrays(value, arrays) for value in obj)
    if kind is list:
        return [_restore_arrays(value, arrays) for value in obj]
    if kind is dict:
        return {key: _restore_arrays(value, arrays) for key, value in obj.items()}
    return obj


def payload_array_nbytes(obj: Any) -> int:
    """Total bytes of out-of-band-eligible arrays inside ``obj`` (cheap scan)."""
    total = 0
    stack = [obj]
    while stack:
        item = stack.pop()
        kind = type(item)
        if kind is np.ndarray:
            if _oob_eligible(item):
                total += item.nbytes
        elif kind is tuple or kind is list:
            stack.extend(item)
        elif kind is dict:
            stack.extend(item.values())
    return total


def encode_payload(obj: Any, counters: WireCounters | None = None) -> bytes:
    """Serialize a payload object; array buffers travel out-of-band."""
    blocks: list[np.ndarray] = []
    skeleton = _extract_arrays(obj, blocks)
    if not blocks:
        return _PREAMBLE.pack(WIRE_CODEC_VERSION, _MODE_PICKLE) + pickle.dumps(
            obj, protocol=pickle.HIGHEST_PROTOCOL
        )
    parts = [
        _PREAMBLE.pack(WIRE_CODEC_VERSION, _MODE_OOB),
        _COUNT.pack(len(blocks)),
    ]
    for array in blocks:
        fortran = array.ndim > 1 and array.flags.f_contiguous and not array.flags.c_contiguous
        raw = array.tobytes(order="F" if fortran else "C")
        dtype_str = array.dtype.str.encode("ascii")
        parts.append(_BLOCK_HEAD.pack(len(dtype_str), 1 if fortran else 0, array.ndim))
        parts.append(dtype_str)
        for dim in array.shape:
            parts.append(_U64.pack(dim))
        parts.append(_U64.pack(len(raw)))
        parts.append(raw)
        if counters is not None:
            counters.oob_arrays += 1
            counters.oob_bytes += len(raw)
    parts.append(pickle.dumps(skeleton, protocol=pickle.HIGHEST_PROTOCOL))
    return b"".join(parts)


def decode_payload(buf: bytes | bytearray | memoryview) -> Any:
    """Inverse of :func:`encode_payload`.

    Arrays are reconstructed as read-only ``np.frombuffer`` views over the
    received buffer — zero-copy.  Truncated buffers raise
    :class:`TruncatedFrameError`; internally inconsistent (skewed) array
    headers raise :class:`WireProtocolError`.
    """
    view = memoryview(buf)
    if view.nbytes < _PREAMBLE.size:
        raise TruncatedFrameError(
            f"payload truncated inside the codec preamble ({view.nbytes} bytes)"
        )
    version, mode = _PREAMBLE.unpack_from(view, 0)
    if version != WIRE_CODEC_VERSION:
        raise WireProtocolError(
            f"payload codec version {version} (this build reads "
            f"v{WIRE_CODEC_VERSION}); refusing to guess at compatibility"
        )
    offset = _PREAMBLE.size
    if mode == _MODE_PICKLE:
        return pickle.loads(view[offset:])
    if mode != _MODE_OOB:
        raise WireProtocolError(f"unknown payload codec mode {mode}")
    if view.nbytes < offset + _COUNT.size:
        raise TruncatedFrameError("payload truncated before the array count")
    (narrays,) = _COUNT.unpack_from(view, offset)
    offset += _COUNT.size
    arrays: list[np.ndarray] = []
    for index in range(narrays):
        if view.nbytes < offset + _BLOCK_HEAD.size:
            raise TruncatedFrameError(
                f"payload truncated inside the header of array block {index}"
            )
        dtype_len, order, ndim = _BLOCK_HEAD.unpack_from(view, offset)
        offset += _BLOCK_HEAD.size
        if view.nbytes < offset + dtype_len + (ndim + 1) * _U64.size:
            raise TruncatedFrameError(
                f"payload truncated inside the header of array block {index}"
            )
        dtype_str = bytes(view[offset : offset + dtype_len]).decode("ascii")
        offset += dtype_len
        try:
            dtype = np.dtype(dtype_str)
        except TypeError as exc:
            raise WireProtocolError(
                f"array block {index} announces invalid dtype {dtype_str!r}"
            ) from exc
        shape = []
        for _ in range(ndim):
            (dim,) = _U64.unpack_from(view, offset)
            shape.append(dim)
            offset += _U64.size
        (nbytes,) = _U64.unpack_from(view, offset)
        offset += _U64.size
        count = 1
        for dim in shape:
            count *= dim
        expected = count * dtype.itemsize
        if nbytes != expected:
            raise WireProtocolError(
                f"array block {index} header is skewed: shape {tuple(shape)} of "
                f"{dtype} needs {expected} bytes, header announces {nbytes}"
            )
        if view.nbytes < offset + nbytes:
            raise TruncatedFrameError(
                f"payload truncated inside the buffer of array block {index} "
                f"({view.nbytes - offset}/{nbytes} bytes)"
            )
        raw = view[offset : offset + nbytes]
        offset += nbytes
        array = np.frombuffer(raw, dtype=dtype)
        array = array.reshape(tuple(shape), order="F" if order == 1 else "C")
        arrays.append(array)
    skeleton = pickle.loads(view[offset:])
    return _restore_arrays(skeleton, arrays)


# ----------------------------------------------------------------------
# message envelope
# ----------------------------------------------------------------------


def encode_message(
    message: Message, seq: int = 0, counters: WireCounters | None = None
) -> bytes:
    """Serialize one :class:`Message`: explicit envelope + encoded payload.

    The envelope (sequence number, routing, tag, timestamps) is plain
    big-endian struct fields so a router can forward — or stamp a sequence
    number into — the body without decoding the payload.
    """
    start = time.perf_counter() if counters is not None else 0.0
    tag = message.tag.encode("utf-8")
    payload = encode_payload((message.payload, message.metadata), counters)
    body = (
        _ENVELOPE.pack(
            seq,
            message.source,
            message.dest,
            len(tag),
            message.send_time,
            message.delivery_time,
        )
        + tag
        + payload
    )
    if counters is not None:
        counters.messages_encoded += 1
        counters.serialize_s += time.perf_counter() - start
    return body


def decode_message(
    body: bytes | bytearray | memoryview, counters: WireCounters | None = None
) -> tuple[int, Message]:
    """Inverse of :func:`encode_message`; returns ``(seq, message)``."""
    start = time.perf_counter() if counters is not None else 0.0
    view = memoryview(body)
    if view.nbytes < _ENVELOPE.size:
        raise TruncatedFrameError(
            f"message envelope truncated ({view.nbytes}/{_ENVELOPE.size} bytes)"
        )
    seq, source, dest, tag_len, send_time, delivery_time = _ENVELOPE.unpack_from(view, 0)
    if view.nbytes < _ENVELOPE.size + tag_len:
        raise TruncatedFrameError("message envelope truncated inside the tag")
    tag = bytes(view[_ENVELOPE.size : _ENVELOPE.size + tag_len]).decode("utf-8")
    payload, metadata = decode_payload(view[_ENVELOPE.size + tag_len :])
    if counters is not None:
        counters.messages_decoded += 1
        counters.deserialize_s += time.perf_counter() - start
    return seq, Message(
        source=source,
        dest=dest,
        tag=tag,
        payload=payload,
        send_time=send_time,
        delivery_time=delivery_time,
        metadata=metadata,
    )


def peek_seq(body: bytes | bytearray | memoryview) -> int:
    """Sequence number of an encoded message, without decoding the payload."""
    if memoryview(body).nbytes < _ENVELOPE.size:
        raise TruncatedFrameError("message envelope truncated before the seq field")
    return struct.unpack_from("!q", body, 0)[0]


def peek_dest(body: bytes | bytearray | memoryview) -> int:
    """Destination rank of an encoded message, without decoding the payload."""
    if memoryview(body).nbytes < _ENVELOPE.size:
        raise TruncatedFrameError("message envelope truncated before the dest field")
    return struct.unpack_from("!i", body, 12)[0]


def patch_seq(body: bytearray, seq: int) -> None:
    """Stamp a sequence number into an encoded message in place."""
    struct.pack_into("!q", body, 0, seq)


# ----------------------------------------------------------------------
# batch frames
# ----------------------------------------------------------------------


def pack_bodies(bodies: Iterable[bytes | bytearray]) -> bytes:
    """Concatenate encoded messages into one batch blob."""
    bodies = list(bodies)
    parts = [_COUNT.pack(len(bodies))]
    for body in bodies:
        parts.append(_BODY_LEN.pack(len(body)))
        parts.append(bytes(body))
    return b"".join(parts)


def iter_bodies(blob: bytes | bytearray | memoryview) -> Iterator[memoryview]:
    """Yield the encoded messages of a batch blob as zero-copy views."""
    view = memoryview(blob)
    if view.nbytes < _COUNT.size:
        raise TruncatedFrameError("batch blob truncated before the body count")
    (count,) = _COUNT.unpack_from(view, 0)
    offset = _COUNT.size
    for index in range(count):
        if view.nbytes < offset + _BODY_LEN.size:
            raise TruncatedFrameError(
                f"batch blob truncated before the length of body {index}"
            )
        (length,) = _BODY_LEN.unpack_from(view, offset)
        offset += _BODY_LEN.size
        if view.nbytes < offset + length:
            raise TruncatedFrameError(
                f"batch blob truncated inside body {index} "
                f"({view.nbytes - offset}/{length} bytes)"
            )
        yield view[offset : offset + length]
        offset += length
