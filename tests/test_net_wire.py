"""Wire format and bootstrap of the socket transport (`repro.parallel.net`).

Framing must be *boringly* strict: every `Message` variant round-trips
bitwise (zero-length payloads, large ndarrays, timestamps), while truncated
frames, foreign magic and mismatched protocol versions are rejected loudly —
never silently misparsed.  The rendezvous bootstrap must survive a listener
that drops the first connection (backoff + retry) and must *not* retry a
protocol-version mismatch.
"""

from __future__ import annotations

import socket
import struct
import threading

import numpy as np
import pytest

from conftest import free_localhost_port
from repro.parallel.net import (
    FRAME_HELLO,
    FRAME_MESSAGE,
    FRAME_WELCOME,
    HEADER_SIZE,
    MAGIC,
    PROTOCOL_VERSION,
    ProtocolVersionError,
    TruncatedFrameError,
    WireProtocolError,
    _HELLO,
    connect_with_backoff,
    decode_frame,
    decode_message,
    encode_frame,
    encode_message,
    read_frame,
    write_frame,
)
from repro.parallel.transport import Message


def roundtrip(message: Message, seq: int = 0) -> tuple[int, Message]:
    kind, body = decode_frame(encode_frame(FRAME_MESSAGE, encode_message(message, seq)))
    assert kind == FRAME_MESSAGE
    return decode_message(body)


# ----------------------------------------------------------------------------
class TestMessageRoundTrip:
    def test_plain_payload(self):
        original = Message(source=3, dest=7, tag="SAMPLE_REQUEST", payload={"n": 4})
        seq, decoded = roundtrip(original, seq=42)
        assert seq == 42
        assert decoded.source == 3 and decoded.dest == 7
        assert decoded.tag == "SAMPLE_REQUEST"
        assert decoded.payload == {"n": 4}

    def test_zero_length_payload_and_empty_tag(self):
        original = Message(source=0, dest=1, tag="", payload=None)
        _, decoded = roundtrip(original)
        assert decoded.tag == ""
        assert decoded.payload is None

    def test_large_ndarray_payload_is_bitwise_preserved(self):
        rng = np.random.default_rng(0)
        array = rng.standard_normal((512, 257))  # ~1 MB, larger than any recv chunk
        original = Message(source=1, dest=2, tag="CORRECTION_BATCH", payload=array)
        _, decoded = roundtrip(original)
        np.testing.assert_array_equal(decoded.payload, array)
        assert decoded.payload.dtype == array.dtype

    def test_timestamps_and_negative_ranks_survive(self):
        # DRIVER_RANK injections use source=-1; the envelope must carry it.
        original = Message(
            source=-1,
            dest=5,
            tag="COLLECT",
            payload=(0, 60),
            send_time=1.25,
            delivery_time=2.5,
        )
        _, decoded = roundtrip(original)
        assert decoded.source == -1
        assert decoded.send_time == 1.25 and decoded.delivery_time == 2.5

    def test_every_role_protocol_tag_roundtrips(self):
        from repro.parallel.roles.protocol import Tags

        tags = [
            value
            for name, value in vars(Tags).items()
            if not name.startswith("_") and isinstance(value, str)
        ]
        assert tags, "tag vocabulary went missing"
        for i, tag in enumerate(tags):
            seq, decoded = roundtrip(
                Message(source=1, dest=2, tag=tag, payload=i), seq=i
            )
            assert (seq, decoded.tag, decoded.payload) == (i, tag, i)


# ----------------------------------------------------------------------------
class TestFrameRejection:
    def test_truncated_header_rejected(self):
        frame = encode_frame(FRAME_MESSAGE, b"abc")
        with pytest.raises(TruncatedFrameError, match="header"):
            decode_frame(frame[: HEADER_SIZE - 2])

    def test_truncated_body_rejected(self):
        frame = encode_frame(FRAME_MESSAGE, b"x" * 100)
        with pytest.raises(TruncatedFrameError, match="body"):
            decode_frame(frame[:-1])

    def test_truncated_envelope_rejected(self):
        with pytest.raises(TruncatedFrameError, match="envelope"):
            decode_message(b"\x00\x01")

    def test_bad_magic_rejected(self):
        frame = bytearray(encode_frame(FRAME_MESSAGE, b""))
        frame[:4] = b"HTTP"
        with pytest.raises(WireProtocolError, match="magic"):
            decode_frame(bytes(frame))

    def test_version_mismatch_rejected_with_both_versions_named(self):
        header = struct.Struct("!4sHBxI").pack(MAGIC, PROTOCOL_VERSION + 1, 3, 0)
        with pytest.raises(ProtocolVersionError) as excinfo:
            decode_frame(header)
        assert f"v{PROTOCOL_VERSION + 1}" in str(excinfo.value)
        assert f"v{PROTOCOL_VERSION}" in str(excinfo.value)

    def test_unknown_frame_kind_rejected(self):
        header = struct.Struct("!4sHBxI").pack(MAGIC, PROTOCOL_VERSION, 99, 0)
        with pytest.raises(WireProtocolError, match="kind"):
            decode_frame(header)

    def test_absurd_length_rejected_before_any_allocation(self):
        header = struct.Struct("!4sHBxI").pack(MAGIC, PROTOCOL_VERSION, 3, 2**31)
        with pytest.raises(WireProtocolError, match="sanity"):
            decode_frame(header)


# ----------------------------------------------------------------------------
class TestSocketFraming:
    def test_frames_survive_a_real_socket_pair(self):
        server, client = socket.socketpair()
        try:
            message = Message(
                source=2, dest=4, tag="EVAL", payload=np.arange(10_000, dtype=float)
            )
            write_frame(client, FRAME_MESSAGE, encode_message(message, seq=9))
            kind, body = read_frame(server)
            assert kind == FRAME_MESSAGE
            seq, decoded = decode_message(body)
            assert seq == 9
            np.testing.assert_array_equal(decoded.payload, message.payload)
        finally:
            server.close()
            client.close()

    def test_clean_eof_at_boundary_is_none_mid_frame_raises(self):
        server, client = socket.socketpair()
        try:
            client.close()
            assert read_frame(server) is None
        finally:
            server.close()

        server, client = socket.socketpair()
        try:
            frame = encode_frame(FRAME_MESSAGE, b"x" * 64)
            client.sendall(frame[:10])
            client.close()
            with pytest.raises(TruncatedFrameError):
                read_frame(server)
        finally:
            server.close()


# ----------------------------------------------------------------------------
class TestConnectWithBackoff:
    def test_listener_dropping_first_connection_is_retried(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        accepted = []

        def serve():
            # Drop the first dial before WELCOME, complete the second.
            first, _ = listener.accept()
            first.close()
            second, _ = listener.accept()
            frame = read_frame(second)
            assert frame is not None and frame[0] == FRAME_HELLO
            (rank,) = _HELLO.unpack(frame[1])
            accepted.append(rank)
            write_frame(second, FRAME_WELCOME, _HELLO.pack(rank))
            second.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        sock = connect_with_backoff(
            ("127.0.0.1", port), hello=6, attempts=5, base_delay=0.01
        )
        sock.close()
        thread.join(timeout=5.0)
        listener.close()
        assert accepted == [6]

    def test_unreachable_address_exhausts_budget_with_connection_error(self):
        port = free_localhost_port()  # allocated then released: nobody listens
        with pytest.raises(ConnectionError, match="after 2 attempt"):
            connect_with_backoff(
                ("127.0.0.1", port), hello=0, attempts=2, base_delay=0.01
            )

    def test_version_mismatch_is_not_retried(self):
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        dials = []

        def serve():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                dials.append(1)
                read_frame(conn)
                # answer with a frame from a future protocol version
                conn.sendall(
                    struct.Struct("!4sHBxI").pack(
                        MAGIC, PROTOCOL_VERSION + 7, FRAME_WELCOME, 0
                    )
                )
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        with pytest.raises(ProtocolVersionError):
            connect_with_backoff(
                ("127.0.0.1", port), hello=0, attempts=5, base_delay=0.01
            )
        listener.close()
        thread.join(timeout=5.0)
        assert len(dials) == 1, "a version skew must fail fast, not burn retries"


# ----------------------------------------------------------------------------
# payload codec: out-of-band ndarray framing (repro.parallel.wire)
# ----------------------------------------------------------------------------

from repro.parallel.wire import (  # noqa: E402  (grouped with the suite they test)
    WIRE_CODEC_VERSION,
    WireCounters,
    _ArraySlot,
    decode_payload,
    encode_payload,
    iter_bodies,
    pack_bodies,
    patch_seq,
    payload_array_nbytes,
    peek_dest,
    peek_seq,
)


def payload_roundtrip(obj):
    return decode_payload(encode_payload(obj))


class TestPayloadCodecRoundTrip:
    def test_zero_d_array(self):
        decoded = payload_roundtrip(np.array(3.5))
        assert decoded.shape == ()
        assert decoded.dtype == np.float64
        assert decoded == 3.5

    def test_empty_array(self):
        decoded = payload_roundtrip(np.empty((0, 5), dtype=np.float32))
        assert decoded.shape == (0, 5)
        assert decoded.dtype == np.float32

    def test_fortran_ordered_array_bitwise(self):
        array = np.asfortranarray(np.arange(35.0).reshape(7, 5))
        assert array.flags.f_contiguous and not array.flags.c_contiguous
        decoded = payload_roundtrip(array)
        np.testing.assert_array_equal(decoded, array)
        assert decoded.flags.f_contiguous

    def test_non_contiguous_array_bitwise(self):
        base = np.arange(120.0).reshape(10, 12)
        sliced = base[::2, ::3]
        assert not sliced.flags.c_contiguous
        decoded = payload_roundtrip(sliced)
        np.testing.assert_array_equal(decoded, sliced)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_megabyte_array_bitwise(self, dtype):
        rng = np.random.default_rng(3)
        array = rng.standard_normal(1_100_000 // np.dtype(dtype).itemsize).astype(dtype)
        decoded = payload_roundtrip(array)
        np.testing.assert_array_equal(decoded, array)
        assert decoded.dtype == dtype

    def test_nested_tuple_payload_bitwise(self):
        payload = (
            np.arange(6, dtype=np.int64),
            [np.ones((2, 3), dtype=np.float32), "label"],
            {"qoi": np.linspace(0.0, 1.0, 17), "count": 4},
        )
        decoded = payload_roundtrip(payload)
        np.testing.assert_array_equal(decoded[0], payload[0])
        np.testing.assert_array_equal(decoded[1][0], payload[1][0])
        assert decoded[1][1] == "label"
        np.testing.assert_array_equal(decoded[2]["qoi"], payload[2]["qoi"])
        assert decoded[2]["count"] == 4

    def test_arrayless_payload_stays_in_pickle_mode(self):
        buf = encode_payload({"n": 4, "tags": ["a", "b"]})
        assert buf[1] == 0  # _MODE_PICKLE
        assert decode_payload(buf) == {"n": 4, "tags": ["a", "b"]}

    def test_object_dtype_falls_back_to_pickle(self):
        array = np.array([{"a": 1}, None], dtype=object)
        buf = encode_payload(array)
        assert buf[1] == 0  # _MODE_PICKLE: object buffers cannot go out-of-band
        decoded = decode_payload(buf)
        assert decoded[0] == {"a": 1} and decoded[1] is None

    def test_decoded_arrays_are_readonly_views(self):
        decoded = payload_roundtrip(np.arange(5.0))
        assert not decoded.flags.writeable
        with pytest.raises(ValueError):
            decoded[0] = 99.0

    def test_counters_track_oob_traffic(self):
        counters = WireCounters()
        array = np.arange(64, dtype=np.float64)
        encode_payload((array, array.astype(np.float32)), counters)
        assert counters.oob_arrays == 2
        assert counters.oob_bytes == array.nbytes + array.nbytes // 2

    def test_payload_array_nbytes_scans_containers(self):
        array = np.zeros(100, dtype=np.float64)
        assert payload_array_nbytes({"a": [array, (array,)]}) == 2 * array.nbytes
        assert payload_array_nbytes("no arrays here") == 0


class TestPayloadCodecRejection:
    def test_truncated_preamble_rejected(self):
        with pytest.raises(TruncatedFrameError, match="preamble"):
            decode_payload(b"\x01")

    def test_codec_version_mismatch_rejected(self):
        buf = bytearray(encode_payload(np.arange(3.0)))
        buf[0] = WIRE_CODEC_VERSION + 1
        with pytest.raises(WireProtocolError, match="codec version"):
            decode_payload(bytes(buf))

    def test_unknown_mode_rejected(self):
        buf = bytearray(encode_payload(np.arange(3.0)))
        buf[1] = 9
        with pytest.raises(WireProtocolError, match="mode"):
            decode_payload(bytes(buf))

    def test_skewed_array_header_rejected(self):
        # one 1-D float64 array: nbytes field sits right after the preamble
        # (2), count (4), block head (3), dtype string ('<f8', 3) and the one
        # shape dimension (8) — corrupt it so shape and byte count disagree.
        buf = bytearray(encode_payload(np.arange(4.0)))
        offset = 2 + 4 + 3 + 3 + 8
        struct.pack_into("!Q", buf, offset, 4 * 8 + 8)
        with pytest.raises(WireProtocolError, match="skewed"):
            decode_payload(bytes(buf))

    def test_truncated_array_buffer_rejected(self):
        buf = encode_payload(np.arange(4.0))
        with pytest.raises(TruncatedFrameError, match="array block"):
            decode_payload(buf[: 2 + 4 + 3 + 3 + 8 + 8 + 11])

    def test_slot_out_of_range_rejected(self):
        # a skeleton referencing a block that was never framed must fail
        # loudly, not dereference garbage
        buf = encode_payload((np.arange(3.0), _ArraySlot(5)))
        with pytest.raises(WireProtocolError, match="block"):
            decode_payload(buf)


class TestEnvelopeHelpers:
    def test_peek_and_patch_seq_without_payload_decode(self):
        message = Message(source=2, dest=9, tag="COLLECT", payload=np.arange(8.0))
        body = bytearray(encode_message(message, seq=7))
        assert peek_seq(body) == 7
        assert peek_dest(body) == 9
        patch_seq(body, 123456)
        seq, decoded = decode_message(bytes(body))
        assert seq == 123456
        np.testing.assert_array_equal(decoded.payload, message.payload)

    def test_peek_on_truncated_envelope_rejected(self):
        with pytest.raises(TruncatedFrameError):
            peek_seq(b"\x00\x01")
        with pytest.raises(TruncatedFrameError):
            peek_dest(b"\x00\x01")

    def test_batch_blob_roundtrips_bitwise(self):
        bodies = [
            encode_message(Message(source=0, dest=r, tag=f"T{r}", payload=r), seq=r)
            for r in range(3)
        ]
        unpacked = list(iter_bodies(pack_bodies(bodies)))
        assert [bytes(b) for b in unpacked] == bodies
        for r, body in enumerate(unpacked):
            seq, decoded = decode_message(body)
            assert (seq, decoded.dest, decoded.tag, decoded.payload) == (r, r, f"T{r}", r)

    def test_truncated_batch_blob_rejected(self):
        blob = pack_bodies(
            [encode_message(Message(source=0, dest=1, tag="X", payload="y"))]
        )
        with pytest.raises(TruncatedFrameError):
            list(iter_bodies(blob[:-3]))
        with pytest.raises(TruncatedFrameError):
            list(iter_bodies(blob[:2]))
