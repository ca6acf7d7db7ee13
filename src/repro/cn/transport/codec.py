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
"""

from __future__ import annotations

import io
import pickle
import secrets
import struct
import threading
import zlib
from typing import Any, Optional

from ..errors import FrameCorrupt, FrameTruncated, TransportError
from ..job import payload_nbytes
from .base import Endpoint

__all__ = [
    "FrameCodec",
    "SocketEndpoint",
    "LoopbackEndpoint",
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


class FrameCodec:
    """Pickle-protocol-5 codec with out-of-band buffer extraction."""

    def encode(self, obj: Any) -> tuple[bytes, list[Any]]:
        """Serialize *obj* to ``(body, out_of_band_buffers)``."""
        sized = payload_nbytes(obj)
        if sized is not None and sized < OOB_THRESHOLD:
            return pickle.dumps(obj, protocol=5), []
        buffers: list[pickle.PickleBuffer] = []
        body = pickle.dumps(obj, protocol=5, buffer_callback=buffers.append)
        return body, [b.raw() for b in buffers]

    def decode(self, body: Any, buffers: list[Any]) -> Any:
        """Rebuild the object from its body and out-of-band buffers."""
        return pickle.loads(body, buffers=buffers)


def _segments_for(
    obj: Any, codec: FrameCodec, shm_threshold: Optional[int]
) -> tuple[list[tuple[int, bytes, int, int]], list[str]]:
    """Frame *obj* into ``(kind, stream_payload, length, crc)`` segments.

    Returns the segments plus the names of any SharedMemory segments
    created (so the sender can sweep unconsumed ones at close).
    """
    body, raw_buffers = codec.encode(obj)
    segments: list[tuple[int, bytes, int, int]] = [
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


def pack_frame(
    obj: Any, codec: Optional[FrameCodec] = None, *, shm_threshold: Optional[int] = None
) -> bytes:
    """One full frame as bytes (test/loopback convenience)."""
    codec = codec if codec is not None else FrameCodec()
    segments, _ = _segments_for(obj, codec, shm_threshold)
    out = io.BytesIO()
    out.write(_HEADER.pack(MAGIC, len(segments)))
    for kind, payload, length, crc in segments:
        out.write(_SEGMENT.pack(kind, length, crc))
    for kind, payload, _length, _crc in segments:
        out.write(payload)
    return out.getvalue()


def unpack_frame(
    data: Any, codec: Optional[FrameCodec] = None
) -> tuple[Any, int]:
    """Decode one frame from a bytes-like; returns ``(obj, consumed)``.

    Inline segments are *views* into *data* handed straight to
    ``pickle.loads(buffers=...)`` -- the zero-copy receive path.
    Truncation raises :class:`FrameTruncated`; a CRC32 or magic mismatch
    raises :class:`FrameCorrupt`.
    """
    codec = codec if codec is not None else FrameCodec()
    view = memoryview(data).cast("B")
    if view.nbytes < _HEADER.size:
        raise FrameTruncated("frame shorter than its fixed header")
    magic, nsegs = _HEADER.unpack_from(view, 0)
    if magic != MAGIC:
        raise FrameCorrupt(f"bad frame magic {bytes(magic)!r}")
    if nsegs < 1 or nsegs > MAX_SEGMENTS:
        raise FrameCorrupt(f"implausible segment count {nsegs}")
    offset = _HEADER.size
    descriptors = []
    for _ in range(nsegs):
        if view.nbytes < offset + _SEGMENT.size:
            raise FrameTruncated("frame ended inside a segment descriptor")
        kind, length, crc = _SEGMENT.unpack_from(view, offset)
        offset += _SEGMENT.size
        if kind not in (_KIND_INLINE, _KIND_SHM):
            raise FrameCorrupt(f"unknown segment kind {kind}")
        if length > MAX_SEGMENT:
            raise FrameCorrupt(f"implausible segment length {length}")
        descriptors.append((kind, length, crc))
    buffers: list[Any] = []
    for kind, length, crc in descriptors:
        if kind == _KIND_INLINE:
            if view.nbytes < offset + length:
                raise FrameTruncated("frame ended inside a segment payload")
            segment = view[offset : offset + length]
            offset += length
        else:
            # shm descriptor: the stream payload is the fixed-format ascii
            # segment name ("cnf_" + 16 hex); length/crc describe the
            # bytes parked inside the segment itself
            if view.nbytes < offset + _SHM_NAME_LEN:
                raise FrameTruncated("frame ended inside a shm segment name")
            name = bytes(view[offset : offset + _SHM_NAME_LEN]).decode("ascii")
            offset += _SHM_NAME_LEN
            segment = memoryview(_consume_shm(name, length, crc))
        if kind == _KIND_INLINE and zlib.crc32(segment) != crc:
            raise FrameCorrupt("segment failed its CRC32 integrity check")
        buffers.append(segment)
    body, oob = buffers[0], buffers[1:]
    return codec.decode(body, oob), offset


_SHM_NAME_LEN = len("cnf_") + 16  # "cnf_" + token_hex(8)


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

    def __init__(
        self,
        sock: Any,
        *,
        codec: Optional[FrameCodec] = None,
        shm_threshold: Optional[int] = None,
    ) -> None:
        self._sock = sock
        self._codec = codec if codec is not None else FrameCodec()
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
        segments, shm_names = _segments_for(obj, self._codec, self._shm_threshold)
        header = io.BytesIO()
        header.write(_HEADER.pack(MAGIC, len(segments)))
        for kind, _payload, length, crc in segments:
            header.write(_SEGMENT.pack(kind, length, crc))
        with self._send_lock:
            if self._closed:
                _sweep_shm(set(shm_names))
                raise TransportError("endpoint is closed")
            self._outstanding_shm.update(shm_names)
            try:
                self._sock.sendall(header.getvalue())
                sent = header.tell()
                for kind, payload, length, _crc in segments:
                    self._sock.sendall(payload)
                    sent += len(payload) if kind == _KIND_SHM else length
            except OSError as exc:
                raise TransportError(f"send failed: {exc}") from exc
            self.frames_sent += 1
            self.bytes_sent += sent

    def recv(self) -> Optional[Any]:
        head = _read_exact(self._sock, _HEADER.size)
        if head is None:
            return None
        magic, nsegs = _HEADER.unpack(bytes(head))
        if magic != MAGIC:
            raise FrameCorrupt(f"bad frame magic {bytes(magic)!r}")
        if nsegs < 1 or nsegs > MAX_SEGMENTS:
            raise FrameCorrupt(f"implausible segment count {nsegs}")
        raw = _read_exact(self._sock, nsegs * _SEGMENT.size)
        if raw is None:
            raise FrameTruncated("stream ended before segment descriptors")
        descriptors = [
            _SEGMENT.unpack_from(raw, i * _SEGMENT.size) for i in range(nsegs)
        ]
        received = _HEADER.size + len(raw)
        buffers: list[Any] = []
        for kind, length, crc in descriptors:
            if kind == _KIND_INLINE:
                if length > MAX_SEGMENT:
                    raise FrameCorrupt(f"implausible segment length {length}")
                segment = _read_exact(self._sock, length)
                if segment is None:
                    raise FrameTruncated("stream ended before a segment payload")
                if zlib.crc32(segment) != crc:
                    raise FrameCorrupt("segment failed its CRC32 integrity check")
                received += length
                buffers.append(memoryview(segment))
            elif kind == _KIND_SHM:
                namebuf = _read_exact(self._sock, _SHM_NAME_LEN)
                if namebuf is None:
                    raise FrameTruncated("stream ended before a shm segment name")
                name = bytes(namebuf).decode("ascii")
                buffers.append(memoryview(_consume_shm(name, length, crc)))
                received += _SHM_NAME_LEN
            else:
                raise FrameCorrupt(f"unknown segment kind {kind}")
        self.frames_received += 1
        self.bytes_received += received
        body, oob = buffers[0], buffers[1:]
        return self._codec.decode(body, oob)

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


class LoopbackEndpoint(Endpoint):
    """In-memory endpoint pair running frames through the full codec.

    Every frame is packed to bytes and unpacked on the other side, so a
    loopback exercises exactly the serialization constraints of the real
    wire -- which makes it the codec's test harness and a second,
    independent implementation of the :class:`Endpoint` interface.
    """

    def __init__(self, *, codec: Optional[FrameCodec] = None) -> None:
        import collections

        self._codec = codec if codec is not None else FrameCodec()
        self._inbox: "collections.deque[bytes]" = collections.deque()
        self._cond = threading.Condition()
        self._closed = False
        self.peer: Optional["LoopbackEndpoint"] = None
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0

    def send(self, obj: Any) -> None:
        peer = self.peer
        if peer is None:
            raise TransportError("loopback endpoint is not paired")
        frame = pack_frame(obj, self._codec)
        with peer._cond:  # conclint: waive CC402 -- peer is the same class; a loopback pair is one object in two halves
            if self._closed or peer._closed:  # conclint: waive CC402 -- same-class pair state
                raise TransportError("endpoint is closed")
            peer._inbox.append(frame)  # conclint: waive CC402 -- same-class pair state
            peer._cond.notify()  # conclint: waive CC402 -- same-class pair state
        self.frames_sent += 1
        self.bytes_sent += len(frame)

    def recv(self) -> Optional[Any]:
        with self._cond:
            while not self._inbox:
                if self._closed:
                    return None
                self._cond.wait()
            frame = self._inbox.popleft()
        obj, consumed = unpack_frame(frame, self._codec)
        self.frames_received += 1
        self.bytes_received += consumed
        return obj

    def close(self) -> None:
        for side in (self, self.peer):
            if side is None:
                continue
            with side._cond:  # conclint: waive CC402 -- closing both halves of the same-class pair
                side._closed = True  # conclint: waive CC402 -- same-class pair state
                side._cond.notify_all()  # conclint: waive CC402 -- same-class pair state

    def stats(self) -> dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
        }


def loopback_pair(
    codec: Optional[FrameCodec] = None,
) -> tuple[LoopbackEndpoint, LoopbackEndpoint]:
    """A connected pair of in-memory endpoints."""
    a = LoopbackEndpoint(codec=codec)
    b = LoopbackEndpoint(codec=codec)
    a.peer, b.peer = b, a
    return a, b
