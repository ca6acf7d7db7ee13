"""Length-prefixed frame codec: pickle protocol 5 + CRC32 + SharedMemory.

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

Two segment kinds:

* ``inline`` (0) -- ``length`` raw bytes follow in the stream.  On
  decode they are read into fresh buffers and handed to
  ``pickle.loads(buffers=...)``, so numpy arrays alias the received
  buffers directly: zero-copy on the receive side.
* ``shm`` (1) -- the stream carries only a SharedMemory segment *name*;
  ``length``/``crc`` describe the bytes parked in the segment.  Buffers
  at or above ``shm_threshold`` ride this path so multi-megabyte blocks
  skip the socket's small transfer window.  The receiver copies out,
  verifies, and unlinks; the sender sweeps any segment the receiver
  never consumed (worker death) at close.

Sizing reuses :func:`repro.cn.job.payload_nbytes` (the data-plane
accounting helper): payloads it sizes below ``OOB_THRESHOLD`` are
pickled without the buffer-callback machinery, keeping tiny control
frames single-segment.

The format is written in one place and parsed in one place:
:func:`_write` hands a frame to a ``write(bytes-like)`` callable and
:func:`_read` pulls one from a ``read_exact(n)`` callable.
:class:`SocketEndpoint` passes its socket's ``sendall`` and a
``recv_into`` loop; :func:`pack_frame` / :func:`unpack_frame` pass a
list's ``append`` and slices of a buffer -- so a frame corrupted in a
test meets the parser the proc wire runs.
"""

from __future__ import annotations

import pickle
import secrets
import socket
import struct
import threading
import zlib
from typing import Any, Callable, Optional

from ..errors import FrameCorrupt, FrameTruncated, TransportError
from ..job import payload_nbytes
from .base import Endpoint

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
_KIND_SHM = 1

#: refuse absurd frames instead of attempting a huge allocation on a
#: corrupted length field (1 GiB per segment is far beyond any workload)
MAX_SEGMENT = 1 << 30
MAX_SEGMENTS = 1 << 16


#: payloads the data-plane sizer can prove smaller than this are pickled
#: in-band (single segment, no buffer bookkeeping)
OOB_THRESHOLD = 2048


def _segments_for(
    obj: Any, shm_threshold: Optional[int]
) -> tuple[list[tuple[int, Any, int, int]], list[str]]:
    """Frame *obj* into ``(kind, stream_payload, length, crc)`` segments.

    Returns the segments plus the names of any SharedMemory segments
    created (so the sender can sweep unconsumed ones at close).
    """
    sized = payload_nbytes(obj)
    raw_buffers: list[Any] = []
    if sized is not None and sized < OOB_THRESHOLD:
        body = pickle.dumps(obj, protocol=5)
    else:
        buffers: list[pickle.PickleBuffer] = []
        body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        raw_buffers = [b.raw() for b in buffers]
    segments: list[tuple[int, Any, int, int]] = [
        (_KIND_INLINE, body, len(body), zlib.crc32(body))
    ]
    shm_names: list[str] = []
    for raw in raw_buffers:
        view = memoryview(raw).cast("B")
        length = view.nbytes
        crc = zlib.crc32(view)
        if shm_threshold is not None and length >= shm_threshold:
            name = _spill_to_shm(view)
            shm_names.append(name)
            segments.append((_KIND_SHM, name.encode("ascii"), length, crc))
        else:
            segments.append((_KIND_INLINE, view, length, crc))
    return segments, shm_names


def _spill_to_shm(view: memoryview) -> str:
    from multiprocessing import shared_memory

    name = f"cnf_{secrets.token_hex(8)}"
    seg = shared_memory.SharedMemory(name=name, create=True, size=view.nbytes)
    try:
        seg.buf[: view.nbytes] = view
    finally:
        seg.close()
    # Ownership transfers to the receiver (it unlinks after copying out),
    # so withdraw the segment from this side's resource tracker -- the
    # tracker is shared with forked workers and would warn about the
    # receiver's unlink at exit.  The endpoint's close-time sweep covers
    # segments a dead receiver never consumed.
    try:
        from multiprocessing import resource_tracker

        resource_tracker.unregister(seg._name, "shared_memory")  # conclint: waive CC402 -- stdlib tracker key is the private posix name; no public accessor exists
    except Exception:  # noqa: BLE001  # conclint: waive CC302 -- tracker bookkeeping is best-effort; a failed unregister only risks a spurious warning
        pass
    return name


def _consume_shm(name: str, length: int, crc: int) -> bytearray:
    """Copy a spilled segment out of shared memory, verify, unlink."""
    from multiprocessing import shared_memory

    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        raise FrameTruncated(f"shared-memory segment {name!r} vanished") from None
    try:
        data = bytearray(seg.buf[:length])
    finally:
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:  # another reader raced the unlink
            pass
    if zlib.crc32(data) != crc:
        raise FrameCorrupt(f"shared-memory segment {name!r} failed its CRC32")
    return data


def _sweep_shm(names: set[str]) -> None:
    """Best-effort unlink of segments the receiver never consumed."""
    from multiprocessing import shared_memory

    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue  # consumed normally
        seg.close()
        try:
            seg.unlink()
        except FileNotFoundError:
            pass


_SHM_NAME_LEN = len("cnf_") + 16  # "cnf_" + token_hex(8)


def _write(write: Callable[[Any], Any], segments: list) -> int:
    """Hand one frame to *write*: the header and descriptors in one call,
    then each stream payload in its own; returns the bytes written."""
    head = [_HEADER.pack(MAGIC, len(segments))]
    head += [_SEGMENT.pack(kind, length, crc) for kind, _, length, crc in segments]
    prefix = b"".join(head)
    write(prefix)
    written = len(prefix)
    for _kind, payload, _length, _crc in segments:
        write(payload)
        written += len(payload)
    return written


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
        if kind not in (_KIND_INLINE, _KIND_SHM):
            raise FrameCorrupt(f"unknown segment kind {kind}")
        if length > MAX_SEGMENT:
            raise FrameCorrupt(f"implausible segment length {length}")
    buffers: list[Any] = []
    for kind, length, crc in descriptors:
        if kind == _KIND_INLINE:
            segment = read_exact(length)
            if segment is None:
                raise FrameTruncated("stream ended before a segment payload")
            if zlib.crc32(segment) != crc:
                raise FrameCorrupt("segment failed its CRC32 integrity check")
            consumed += length
        else:
            # shm descriptor: the stream payload is the fixed-format ascii
            # segment name ("cnf_" + 16 hex); length/crc describe the
            # bytes parked inside the segment itself
            name = read_exact(_SHM_NAME_LEN)
            if name is None:
                raise FrameTruncated("stream ended before a shm segment name")
            segment = _consume_shm(bytes(name).decode("ascii"), length, crc)
            consumed += _SHM_NAME_LEN
        buffers.append(memoryview(segment))
    return pickle.loads(buffers[0], buffers=buffers[1:]), consumed


def pack_frame(obj: Any, *, shm_threshold: Optional[int] = None) -> bytes:
    """One full frame as bytes."""
    segments, _ = _segments_for(obj, shm_threshold)
    parts: list[Any] = []
    _write(parts.append, segments)
    return b"".join(parts)


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


class SocketEndpoint(Endpoint):
    """Frame channel over a stream socket (the proc backend's wire).

    ``send`` is thread-safe (task pumps, RPC replies, and control frames
    interleave); ``recv`` is called only by the side's demux loop.
    """

    def __init__(self, sock: Any, *, shm_threshold: Optional[int] = None) -> None:
        self._sock = sock
        self._shm_threshold = shm_threshold
        self._send_lock = threading.Lock()
        self._closed = False
        #: shm segments shipped but possibly never consumed by the peer
        self._outstanding_shm: set[str] = set()
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, obj: Any) -> None:
        segments, shm_names = _segments_for(obj, self._shm_threshold)
        with self._send_lock:
            if self._closed:
                _sweep_shm(set(shm_names))
                raise TransportError("endpoint is closed")
            self._outstanding_shm.update(shm_names)
            try:
                sent = _write(self._sock.sendall, segments)
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc
            self.frames_sent += 1
            self.bytes_sent += sent

    def recv(self) -> Optional[Any]:
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
            sweep = set(self._outstanding_shm)
            self._outstanding_shm.clear()
        _sweep_shm(sweep)
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
