"""Framing-protocol conformance: every split of the stream must parse.

TCP gives no message boundaries, so :class:`FrameDecoder` must reassemble
frames correctly under *every* possible chunking of the byte stream —
that's a property, so it's property-tested.  The header checks (magic,
kind, declared length) must fire before a payload is buffered, and the
socket wrappers must map EOF onto :class:`ConnectionClosed` with the
mid-frame bit set exactly when the stream died inside a frame.
"""

from __future__ import annotations

import socket
import struct
import threading

import pytest
from hypothesis import given, settings, strategies as st

import repro.parallel.framing as framing
from repro.parallel.framing import (HEADER_BYTES, MAGIC, NONCE_BYTES,
                                    ConnectionClosed, FrameDecoder,
                                    FrameError, FrameKind, encode_frame,
                                    read_frame, send_frame,
                                    server_handshake, worker_handshake)

_KINDS = st.sampled_from(FrameKind.ALL)
_PAYLOADS = st.binary(max_size=256)


def _chunked(data: bytes, cut_points) -> list:
    """Split ``data`` at the given sorted cut offsets."""
    pieces = []
    previous = 0
    for cut in sorted(cut_points):
        pieces.append(data[previous:cut])
        previous = cut
    pieces.append(data[previous:])
    return pieces


# ------------------------------------------------------------- round trips
class TestDecoderRoundTrip:
    @given(kind=_KINDS, payload=_PAYLOADS)
    def test_single_frame_whole(self, kind, payload):
        frames = FrameDecoder().feed(encode_frame(kind, payload))
        assert frames == [(kind, payload)]

    @given(kind=_KINDS, payload=_PAYLOADS, data=st.data())
    def test_single_frame_any_chunking(self, kind, payload, data):
        wire = encode_frame(kind, payload)
        cuts = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(wire)), max_size=8))
        decoder = FrameDecoder()
        frames = []
        for piece in _chunked(wire, cuts):
            frames.extend(decoder.feed(piece))
        assert frames == [(kind, payload)]
        # nothing is left buffered: a fresh frame decodes on its own
        assert decoder.feed(encode_frame(FrameKind.BYE, b"")) == [(FrameKind.BYE, b"")]

    @given(messages=st.lists(st.tuples(_KINDS, _PAYLOADS), max_size=6),
           data=st.data())
    def test_many_frames_any_chunking(self, messages, data):
        wire = b"".join(encode_frame(kind, payload)
                        for kind, payload in messages)
        cuts = data.draw(st.lists(
            st.integers(min_value=0, max_value=len(wire)), max_size=10))
        decoder = FrameDecoder()
        frames = []
        for piece in _chunked(wire, cuts):
            frames.extend(decoder.feed(piece))
        assert frames == messages
        # nothing is left buffered: a fresh frame decodes on its own
        assert decoder.feed(encode_frame(FrameKind.BYE, b"")) == [(FrameKind.BYE, b"")]

    @settings(max_examples=25)
    @given(payload=_PAYLOADS)
    def test_byte_at_a_time(self, payload):
        decoder = FrameDecoder()
        frames = []
        for offset, byte in enumerate(encode_frame(FrameKind.TASK, payload)):
            assert not frames  # nothing complete until the last byte
            frames.extend(decoder.feed(bytes([byte])))
        assert frames == [(FrameKind.TASK, payload)]

    def test_partial_frame_stays_pending(self):
        decoder = FrameDecoder()
        wire = encode_frame(FrameKind.BLOB, b"x" * 64)
        assert decoder.feed(wire[:-1]) == []
        assert decoder.feed(wire[-1:]) == [(FrameKind.BLOB, b"x" * 64)]


# ------------------------------------------------------------ header checks
class TestHeaderValidation:
    def test_bad_magic_rejected(self):
        wire = b"NOPE" + encode_frame(FrameKind.TASK, b"payload")[4:]
        with pytest.raises(FrameError, match="magic"):
            FrameDecoder().feed(wire)

    def test_unknown_kind_rejected(self):
        wire = struct.pack(">4sBQ", MAGIC, 99, 0)
        with pytest.raises(FrameError, match="kind"):
            FrameDecoder().feed(wire)

    def test_oversized_length_rejected_before_payload(self):
        # the header alone must trigger the error — no payload is buffered
        wire = struct.pack(">4sBQ", MAGIC, FrameKind.BLOB, 1 << 40)
        decoder = FrameDecoder(max_frame_bytes=1 << 20)
        with pytest.raises(FrameError, match="exceeds"):
            decoder.feed(wire)

    def test_encode_refuses_oversized_payload(self):
        with pytest.raises(FrameError, match="exceeds"):
            encode_frame(FrameKind.BLOB, b"x" * 128, max_frame_bytes=64)

    def test_encode_refuses_unknown_kind(self):
        with pytest.raises(FrameError, match="kind"):
            encode_frame(42, b"")

    @given(junk=st.binary(min_size=HEADER_BYTES, max_size=64))
    def test_random_junk_never_parses_silently(self, junk):
        # random bytes either fail loudly or stay pending — a full frame
        # only ever comes out if the junk really was a valid frame prefix
        decoder = FrameDecoder()
        try:
            frames = decoder.feed(junk)
        except FrameError:
            return
        for kind, payload in frames:
            assert kind in FrameKind.ALL


# ------------------------------------------------------------ socket layer
class TestSocketWrappers:
    def test_send_read_round_trip(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, FrameKind.RESULT, b"hello")
            assert read_frame(right) == (FrameKind.RESULT, b"hello")
        finally:
            left.close()
            right.close()

    def test_clean_eof_between_frames(self):
        left, right = socket.socketpair()
        try:
            send_frame(left, FrameKind.BYE, b"")
            left.close()
            assert read_frame(right) == (FrameKind.BYE, b"")
            with pytest.raises(ConnectionClosed) as closed:
                read_frame(right)
            assert closed.value.partial is False
        finally:
            right.close()

    def test_abrupt_eof_mid_frame(self):
        left, right = socket.socketpair()
        try:
            wire = encode_frame(FrameKind.BLOB, b"y" * 1024)
            left.sendall(wire[:HEADER_BYTES + 100])
            left.close()
            with pytest.raises(ConnectionClosed) as closed:
                read_frame(right)
            assert closed.value.partial is True
        finally:
            right.close()

    def test_abrupt_eof_mid_header(self):
        left, right = socket.socketpair()
        try:
            left.sendall(encode_frame(FrameKind.TASK, b"z")[:5])
            left.close()
            with pytest.raises(ConnectionClosed) as closed:
                read_frame(right)
            assert closed.value.partial is True
        finally:
            right.close()

    def test_read_frame_enforces_max_bytes(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">4sBQ", MAGIC, FrameKind.BLOB, 1 << 40))
            with pytest.raises(FrameError, match="exceeds"):
                read_frame(right, max_frame_bytes=1 << 20)
        finally:
            left.close()
            right.close()

    def test_large_frame_crosses_in_pieces(self):
        # bigger than any single recv: exercises the reassembly loop
        payload = bytes(range(256)) * 4096  # 1 MiB
        left, right = socket.socketpair()
        try:
            writer = threading.Thread(
                target=send_frame, args=(left, FrameKind.BLOB, payload))
            writer.start()
            kind, received = read_frame(right)
            writer.join()
            assert kind == FrameKind.BLOB
            assert received == payload
        finally:
            left.close()
            right.close()


# -------------------------------------------------------------- handshake
class TestHandshake:
    """Mutual challenge-response: both sides verify, token stays secret."""

    def _run(self, worker_token, server_token):
        """Both handshake halves over a socketpair; their outcomes."""
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        outcome = {}

        def worker_side():
            try:
                worker_handshake(left, worker_token)
                outcome["worker"] = "ok"
            except Exception as exc:
                outcome["worker"] = exc
            finally:
                left.close()

        thread = threading.Thread(target=worker_side)
        thread.start()
        try:
            outcome["pid"] = server_handshake(right, server_token)
            outcome["server"] = "ok"
        except Exception as exc:
            outcome["server"] = exc
        finally:
            thread.join(timeout=5)
            right.close()
        return outcome

    def test_matching_tokens_authenticate_both_sides(self):
        import os
        outcome = self._run("sesame", "sesame")
        assert outcome["worker"] == "ok"
        assert outcome["server"] == "ok"
        assert outcome["pid"] == os.getpid()

    def test_token_mismatch_fails_on_the_worker_side_first(self):
        # the worker verifies the executor's proof before answering: a
        # connecting party without the token gets rejected, not served
        outcome = self._run("right", "wrong")
        assert isinstance(outcome["worker"], FrameError)
        assert "authentication" in str(outcome["worker"])
        assert outcome["server"] != "ok"

    def test_server_rejects_a_forged_proof(self):
        # an attacker who answers the challenge without the token (any
        # guessed MAC) must not authenticate
        left, right = socket.socketpair()
        left.settimeout(5.0)
        right.settimeout(5.0)
        outcome = {}

        def attacker():
            send_frame(left, FrameKind.HELLO,
                       b"\x00" * NONCE_BYTES + struct.pack(">Q", 1234))
            kind, _ = read_frame(left)
            assert kind == FrameKind.WELCOME
            send_frame(left, FrameKind.AUTH, b"\x00" * 32)

        thread = threading.Thread(target=attacker)
        thread.start()
        try:
            with pytest.raises(FrameError, match="authentication"):
                server_handshake(right, "the-real-token")
        finally:
            thread.join(timeout=5)
            left.close()
            right.close()

    def test_server_rejects_a_malformed_hello_without_unpickling(self):
        # pre-auth payloads are validated as fixed-length raw bytes;
        # arbitrary (e.g. pickled) HELLO payloads are refused outright
        left, right = socket.socketpair()
        right.settimeout(5.0)
        try:
            send_frame(left, FrameKind.HELLO, b"not a nonce")
            with pytest.raises(FrameError, match="malformed HELLO"):
                server_handshake(right, "token")
        finally:
            left.close()
            right.close()

    def test_token_never_crosses_the_wire(self, monkeypatch):
        token = "hunter2-super-secret"
        recorded = []
        real_send = framing.send_frame

        def sniffing_send(sock, kind, payload):
            recorded.append(payload)
            real_send(sock, kind, payload)

        monkeypatch.setattr(framing, "send_frame", sniffing_send)
        outcome = self._run(token, token)
        assert outcome["worker"] == "ok" and outcome["server"] == "ok"
        assert len(recorded) == 3  # HELLO, WELCOME, AUTH
        for payload in recorded:
            assert token.encode() not in payload
