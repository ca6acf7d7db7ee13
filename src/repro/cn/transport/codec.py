"""Length-prefixed frame codec: pickle protocol 5 + CRC32.

Wire format of one frame::

    MAGIC "CNF1" | u32 nsegs
    nsegs x descriptor: u8 kind | u64 length | u32 crc32
    nsegs x stream payload (in descriptor order)

Segment 0 is the pickle *body*; segments 1.. are the out-of-band
``PickleBuffer`` segments protocol 5 peeled off large contiguous blobs
(numpy arrays land here without ever being copied into the pickle
stream).  Each segment's CRC32 is the same integrity primitive the data
plane uses for ``Message.seal()`` -- a frame corrupted in flight fails
its checksum at decode and is rejected (:class:`FrameCorrupt`) instead
of poisoning a worker.

One segment kind, ``inline`` (0): ``length`` raw bytes follow in the
stream.  On decode they are read into fresh buffers and handed to
``pickle.loads(buffers=...)``, so numpy arrays alias the received
buffers directly: zero-copy on the receive side.

Sizing reuses :func:`repro.cn.job.payload_nbytes` (the data-plane
accounting helper): payloads it sizes below ``OOB_THRESHOLD`` are
pickled without the buffer-callback machinery, keeping tiny control
frames single-segment.

The format is written in one place and parsed in one place:
:func:`_frame` lays a frame out as the parts to write and :func:`_read`
pulls one from a ``read_exact(n)`` callable.  :class:`SocketEndpoint`
``sendall``s the parts and reads with a ``recv_into`` loop;
:func:`pack_frame` / :func:`unpack_frame` join them and slice a buffer
-- so a frame corrupted in a test meets the parser the proc wire runs.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import zlib
from typing import Any, Callable, Optional

from ..errors import FrameCorrupt, FrameTruncated, TransportError
from ..job import payload_nbytes

__all__ = [
    "SocketEndpoint",
    "loopback_pair",
    "pack_frame",
    "unpack_frame",
]

MAGIC = b"CNF1"
_HEADER = struct.Struct("!4sI")  # magic, segment count
_SEGMENT = struct.Struct("!BQI")  # kind, length, crc32
_KIND_INLINE = 0

#: refuse absurd frames instead of attempting a huge allocation on a
#: corrupted length field (1 GiB per segment is far beyond any workload)
MAX_SEGMENT = 1 << 30
MAX_SEGMENTS = 1 << 16


#: payloads the data-plane sizer can prove smaller than this are pickled
#: in-band (single segment, no buffer bookkeeping)
OOB_THRESHOLD = 2048


def _frame(obj: Any) -> list[Any]:
    """One frame as the parts to write, in order: the header with every
    descriptor, then each segment -- the pickle body first, then one byte
    view per out-of-band buffer."""
    sized = payload_nbytes(obj)
    if sized is not None and sized < OOB_THRESHOLD:
        segments: list[Any] = [pickle.dumps(obj, protocol=5)]
    else:
        buffers: list[pickle.PickleBuffer] = []
        body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        segments = [body, *(memoryview(b.raw()).cast("B") for b in buffers)]
    head = [_HEADER.pack(MAGIC, len(segments))]
    head += [_SEGMENT.pack(_KIND_INLINE, len(s), zlib.crc32(s)) for s in segments]
    return [b"".join(head), *segments]


def _read(read_exact: Callable[[int], Optional[Any]]) -> Optional[tuple[Any, int]]:
    """Pull one frame through *read_exact*; returns ``(obj, consumed)``,
    or None on a clean end-of-stream before the frame's first byte.

    ``read_exact(n)`` returns exactly *n* bytes as a buffer, None when
    the stream ended before the first of them, and raises
    :class:`FrameTruncated` when it ended among them.  Inline segments
    are handed to ``pickle.loads(buffers=...)`` as they were read, so
    numpy arrays alias them: zero-copy on the receive side.  A bad
    magic, count, kind, length or CRC32 raises :class:`FrameCorrupt`.
    """
    head = read_exact(_HEADER.size)
    if head is None:
        return None
    magic, nsegs = _HEADER.unpack(head)
    if magic != MAGIC:
        raise FrameCorrupt(f"bad frame magic {bytes(magic)!r}")
    if nsegs < 1 or nsegs > MAX_SEGMENTS:
        raise FrameCorrupt(f"implausible segment count {nsegs}")
    raw = read_exact(nsegs * _SEGMENT.size)
    if raw is None:
        raise FrameTruncated("stream ended before the segment descriptors")
    consumed = _HEADER.size + len(raw)
    descriptors = list(_SEGMENT.iter_unpack(raw))
    for kind, length, _crc in descriptors:
        if kind != _KIND_INLINE:
            raise FrameCorrupt(f"unknown segment kind {kind}")
        if length > MAX_SEGMENT:
            raise FrameCorrupt(f"implausible segment length {length}")
    buffers: list[Any] = []
    for _kind, length, crc in descriptors:
        segment = read_exact(length)
        if segment is None:
            raise FrameTruncated("stream ended before a segment payload")
        if zlib.crc32(segment) != crc:
            raise FrameCorrupt("segment failed its CRC32 integrity check")
        consumed += length
        buffers.append(memoryview(segment))
    return pickle.loads(buffers[0], buffers=buffers[1:]), consumed


def pack_frame(obj: Any) -> bytes:
    """One full frame as bytes."""
    return b"".join(_frame(obj))


def unpack_frame(data: Any) -> tuple[Any, int]:
    """Decode the frame at the start of a bytes-like; returns ``(obj,
    consumed)``.  Inline segments are *views* into *data*."""
    view = memoryview(data).cast("B")
    offset = 0

    def read_exact(n: int) -> Optional[memoryview]:
        nonlocal offset
        chunk = view[offset : offset + n]
        if len(chunk) < n:
            if not chunk:
                return None
            raise FrameTruncated(f"frame ended mid-read ({len(chunk)}/{n} bytes)")
        offset += n
        return chunk

    frame = _read(read_exact)
    if frame is None:
        raise FrameTruncated("no frame: the buffer is empty")
    return frame


def _read_exact(sock: Any, n: int) -> Optional[bytearray]:
    """Read exactly *n* bytes; None on EOF at offset 0, raises
    :class:`FrameTruncated` on EOF mid-read."""
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        try:
            chunk = sock.recv_into(view[got:], n - got)
        except (OSError, ValueError) as exc:
            if got == 0:
                return None  # peer closed between frames
            raise FrameTruncated(f"stream error mid-frame: {exc}") from exc
        if chunk == 0:
            if got == 0:
                return None
            raise FrameTruncated(f"stream ended mid-frame ({got}/{n} bytes)")
        got += chunk
    return buf


class SocketEndpoint:
    """One bidirectional frame channel over a stream socket (the proc
    backend's wire, or the other half of a :func:`loopback_pair`).

    ``send`` is thread-safe (task pumps, RPC replies, and control frames
    interleave); ``recv`` has a single reader, the side's demux loop.
    Payloads must survive the codec: anything process-local (locks, open
    files, lambdas) is a bug at the call site, which the conclint CC404
    pass flags statically.
    """

    def __init__(self, sock: Any) -> None:
        self._sock = sock
        self._send_lock = threading.Lock()
        self._closed = False
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, obj: Any) -> None:
        """Frame and write one object; raises TransportError when closed."""
        parts = _frame(obj)
        size = sum(map(len, parts))
        with self._send_lock:
            if self._closed:
                raise TransportError("endpoint is closed")
            try:
                for part in parts:
                    self._sock.sendall(part)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc
            self.frames_sent += 1
            self.bytes_sent += size

    def recv(self) -> Optional[Any]:
        """Next decoded frame, or None on clean end-of-stream."""
        frame = _read(lambda n: _read_exact(self._sock, n))
        if frame is None:
            return None
        self.frames_received += 1
        self.bytes_received += frame[1]
        return frame[0]

    def close(self) -> None:
        with self._send_lock:
            if self._closed:
                return
            self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass

    def stats(self) -> dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


def loopback_pair() -> tuple[SocketEndpoint, SocketEndpoint]:
    """A connected pair of endpoints in one process: the production
    endpoint over ``socket.socketpair()``, so a loopback runs the wire's
    own writer and parser."""
    left, right = socket.socketpair()
    return SocketEndpoint(left), SocketEndpoint(right)
