"""Length-prefixed binary framing for the distributed socket backend.

Every message on a :class:`~repro.parallel.distributed.SocketExecutor`
connection is one *frame*: a fixed 13-byte header followed by an opaque
payload.  The header is ``magic (4s) | kind (B) | length (Q)`` in network
byte order; the magic pins the protocol (a peer speaking anything else
fails immediately instead of mis-framing), the kind tags what the payload
means (see :class:`FrameKind`), and the length is the exact payload byte
count.  Framing is deliberately dumb — no compression, no checksums, no
negotiation — because everything riding it (pickles, broadcast segment
bytes, codec wire blocks) is already a self-describing byte string.

The module is pure bytes-in/bytes-out so it can be tested exhaustively
without a socket: :func:`encode_frame` produces a frame, and
:class:`FrameDecoder` consumes an arbitrarily-chunked byte stream and
yields complete ``(kind, payload)`` pairs — TCP gives no message
boundaries, so the decoder must be (and is, property-tested) correct under
every possible split of the stream.  :func:`read_frame`/:func:`send_frame`
are the thin blocking-socket wrappers the executor and worker use, and
:func:`worker_handshake`/:func:`server_handshake` implement the mutual
challenge-response that gates every connection (see the handshake section
below).

Oversized frames are a protocol error, not an allocation: the decoder
checks the declared length against ``max_frame_bytes`` *before* buffering
the payload, so a corrupt (or hostile) header cannot ask the receiver to
allocate gigabytes.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from typing import List, Optional, Tuple

#: protocol magic: any connection not starting every frame with these four
#: bytes is not a repro peer (or the stream lost sync) — fail fast
MAGIC = b"RPF1"

_HEADER = struct.Struct(">4sBQ")
HEADER_BYTES = _HEADER.size

#: frames larger than this are refused on both send and receive; generous
#: enough for a full session broadcast (dataset blocks + pickled skeleton)
#: while still catching corrupt headers before they become allocations
MAX_FRAME_BYTES = 1 << 31


class FrameKind:
    """Frame type tags of the worker protocol (one byte on the wire).

    ``HELLO``/``WELCOME``/``AUTH`` are the mutual challenge-response
    handshake (:func:`worker_handshake`/:func:`server_handshake`): the
    worker opens with a nonce, the executor answers with its own nonce
    plus an HMAC proof of the shared token, and the worker closes with
    its proof — so each side verifies the other before any pickled
    payload is accepted, and the token itself never crosses the wire.
    ``TASK`` carries one pickled ``(task_id, fn, payload)``; the worker
    answers with exactly one ``RESULT`` or ``FAILED`` for it,
    interleaving any number of ``FETCH``/``BLOB`` exchanges before that
    to pull broadcast segments it has not cached (content-addressed by
    digest, so a segment is fetched once per worker per publication).
    ``BYE`` is a clean shutdown in either direction.
    """

    HELLO = 1
    WELCOME = 2
    TASK = 3
    RESULT = 4
    FAILED = 5
    FETCH = 6
    BLOB = 7
    BYE = 8
    AUTH = 9

    #: every tag a conforming peer may put on the wire
    ALL = (HELLO, WELCOME, TASK, RESULT, FAILED, FETCH, BLOB, BYE, AUTH)


class FrameError(Exception):
    """A malformed frame: bad magic, unknown kind, or oversized length."""


class ConnectionClosed(Exception):
    """The peer went away (clean EOF or mid-frame truncation).

    ``partial`` distinguishes a socket that closed between frames (an
    orderly, if unannounced, departure) from one that died mid-frame
    (a killed worker, a cut cable): supervision treats both as a lost
    worker, but logs want the difference.
    """

    def __init__(self, message: str, *, partial: bool = False) -> None:
        super().__init__(message)
        self.partial = partial


def encode_frame(kind: int, payload: bytes,
                 max_frame_bytes: int = MAX_FRAME_BYTES) -> bytes:
    """One wire-ready frame: header + payload."""
    if kind not in FrameKind.ALL:
        raise FrameError(f"unknown frame kind {kind!r}")
    if len(payload) > max_frame_bytes:
        raise FrameError(f"frame payload of {len(payload)} bytes exceeds "
                         f"the {max_frame_bytes}-byte limit")
    return _HEADER.pack(MAGIC, kind, len(payload)) + payload


class FrameDecoder:
    """Incremental frame parser over an arbitrarily-chunked byte stream.

    ``feed(data)`` buffers ``data`` and returns every frame completed by
    it, in order — zero, one or many; a frame split across any number of
    feeds is reassembled exactly.  The decoder validates the header as
    soon as the 13 header bytes are available, so bad magic and oversized
    lengths surface before their payloads are ever buffered.
    """

    def __init__(self, max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()
        self._need: Optional[Tuple[int, int]] = None  # (kind, payload length)

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        self._buffer.extend(data)
        frames: List[Tuple[int, bytes]] = []
        while True:
            if self._need is None:
                if len(self._buffer) < HEADER_BYTES:
                    return frames
                magic, kind, length = _HEADER.unpack_from(self._buffer)
                if magic != MAGIC:
                    raise FrameError(
                        f"bad frame magic {bytes(magic)!r} (expected "
                        f"{MAGIC!r}) — peer is not speaking this protocol")
                if kind not in FrameKind.ALL:
                    raise FrameError(f"unknown frame kind {kind}")
                if length > self.max_frame_bytes:
                    raise FrameError(
                        f"declared frame length {length} exceeds the "
                        f"{self.max_frame_bytes}-byte limit")
                del self._buffer[:HEADER_BYTES]
                self._need = (kind, length)
            kind, length = self._need
            if len(self._buffer) < length:
                return frames
            payload = bytes(self._buffer[:length])
            del self._buffer[:length]
            self._need = None
            frames.append((kind, payload))


def send_frame(sock, kind: int, payload: bytes) -> None:
    """Write one frame to a blocking socket."""
    sock.sendall(encode_frame(kind, payload))


def _recv_exactly(sock, count: int, *, anything_read: bool) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            partial = anything_read or bool(chunks)
            raise ConnectionClosed(
                "peer closed the connection mid-frame" if partial
                else "peer closed the connection", partial=partial)
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def read_frame(sock, max_frame_bytes: int = MAX_FRAME_BYTES
               ) -> Tuple[int, bytes]:
    """Read exactly one frame from a blocking socket.

    Raises :class:`ConnectionClosed` on EOF — ``partial=False`` when the
    stream ended cleanly between frames, ``partial=True`` when it died
    inside one — and :class:`FrameError` on a malformed header.
    """
    header = _recv_exactly(sock, HEADER_BYTES, anything_read=False)
    magic, kind, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r} (expected {MAGIC!r})")
    if kind not in FrameKind.ALL:
        raise FrameError(f"unknown frame kind {kind}")
    if length > max_frame_bytes:
        raise FrameError(f"declared frame length {length} exceeds the "
                         f"{max_frame_bytes}-byte limit")
    payload = _recv_exactly(sock, length, anything_read=True) if length \
        else b""
    return kind, payload


# --------------------------------------------------------------- handshake
#
# Mutual HMAC-SHA256 challenge-response over the shared token.  Design
# constraints, in order:
#
# * the token must never appear on the wire (an eavesdropper — or anyone
#   who connects to a ``--listen`` daemon and reads its first frame —
#   learns nothing that lets them authenticate);
# * NOTHING from an unauthenticated peer is ever unpickled: every
#   handshake payload is fixed-length raw bytes, validated by length and
#   verified with a constant-time comparison before the peer is trusted;
# * each side proves itself to the other.  The worker always speaks
#   first regardless of which side dialed, so one frame flow covers both
#   deployment shapes — and the ``--listen`` daemon in particular admits
#   no TASK frame until the connecting executor has proven the token.
#
# Frame flow:      worker                               executor
#                  HELLO(worker_nonce + pid)        ->
#                                                   <- WELCOME(server_nonce
#                                                        + MAC_s)
#                  AUTH(MAC_w)                      ->
#
# with MAC_s = HMAC(token, "server" label | worker_nonce | server_nonce)
# and  MAC_w = HMAC(token, "worker" label | server_nonce | worker_nonce).
# Each proof binds both nonces under a direction-distinct label, so a
# transcript cannot be replayed into another session and a peer's proof
# cannot be reflected back at it.

#: how long connection establishment / authentication may take per peer
HANDSHAKE_TIMEOUT = 15.0

NONCE_BYTES = 32
_MAC_BYTES = hashlib.sha256().digest_size
_PID = struct.Struct(">Q")
_SERVER_LABEL = b"repro-socket-server-v1"
_WORKER_LABEL = b"repro-socket-worker-v1"


def _proof(token: str, label: bytes, *nonces: bytes) -> bytes:
    mac = hmac.new(token.encode("utf-8"), digestmod=hashlib.sha256)
    mac.update(label)
    for nonce in nonces:
        mac.update(nonce)
    return mac.digest()


def worker_handshake(sock, token: str,
                     max_frame_bytes: int = MAX_FRAME_BYTES) -> None:
    """Worker side: prove the token and verify the executor's proof.

    Raises :class:`FrameError` if the peer's WELCOME is malformed or its
    proof does not verify — i.e. the connecting party does not hold the
    token and must not be served a single task.
    """
    worker_nonce = os.urandom(NONCE_BYTES)
    send_frame(sock, FrameKind.HELLO,
               worker_nonce + _PID.pack(os.getpid()))
    kind, payload = read_frame(sock, max_frame_bytes)
    if kind != FrameKind.WELCOME \
            or len(payload) != NONCE_BYTES + _MAC_BYTES:
        raise FrameError("malformed WELCOME during handshake")
    server_nonce = payload[:NONCE_BYTES]
    expected = _proof(token, _SERVER_LABEL, worker_nonce, server_nonce)
    if not hmac.compare_digest(payload[NONCE_BYTES:], expected):
        raise FrameError("executor failed authentication (token mismatch)")
    send_frame(sock, FrameKind.AUTH,
               _proof(token, _WORKER_LABEL, server_nonce, worker_nonce))


def server_handshake(sock, token: str,
                     max_frame_bytes: int = MAX_FRAME_BYTES) -> int:
    """Executor side: challenge the worker, verify its proof.

    Returns the remote worker's pid.  Raises :class:`FrameError` when
    the peer is malformed or fails verification; nothing the peer sent
    has been unpickled either way.
    """
    kind, payload = read_frame(sock, max_frame_bytes)
    if kind != FrameKind.HELLO \
            or len(payload) != NONCE_BYTES + _PID.size:
        raise FrameError("malformed HELLO during handshake")
    worker_nonce = payload[:NONCE_BYTES]
    (remote_pid,) = _PID.unpack(payload[NONCE_BYTES:])
    server_nonce = os.urandom(NONCE_BYTES)
    send_frame(sock, FrameKind.WELCOME, server_nonce + _proof(
        token, _SERVER_LABEL, worker_nonce, server_nonce))
    kind, payload = read_frame(sock, max_frame_bytes)
    if kind != FrameKind.AUTH or len(payload) != _MAC_BYTES:
        raise FrameError("malformed AUTH during handshake")
    expected = _proof(token, _WORKER_LABEL, server_nonce, worker_nonce)
    if not hmac.compare_digest(payload, expected):
        raise FrameError("worker failed authentication (token mismatch)")
    return remote_pid
