"""Frame codec properties: round-trips, integrity rejection, zero-copy.

The wire contract the proc backend stands on: anything the data plane
ships must come back equal after ``pack_frame``/``unpack_frame``, large
buffers must ride out-of-band without a sender-side copy, and a frame
damaged in flight must be *rejected* (FrameCorrupt/FrameTruncated), not
delivered wrong.  ``unpack_frame`` and ``SocketEndpoint.recv`` are one
parser over two byte sources, and ``TestRejection`` runs every damaged
frame through both.
"""

import socket
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn.errors import FrameCorrupt, FrameTruncated, TransportError
from repro.cn.transport.codec import (
    _HEADER,
    _SEGMENT,
    SocketEndpoint,
    loopback_pair,
    pack_frame,
    unpack_frame,
)


def roundtrip(obj):
    frame = pack_frame(obj)
    decoded, consumed = unpack_frame(frame)
    assert consumed == len(frame)
    return decoded


# -- hypothesis round-trips ----------------------------------------------------

_primitives = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=200),
)

_payloads = st.recursive(
    _primitives,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.tuples(children, children),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=20,
)


class TestRoundTrips:
    @given(obj=_payloads)
    @settings(max_examples=60, deadline=None)
    def test_nested_containers_roundtrip(self, obj):
        assert roundtrip(obj) == obj

    @given(data=st.binary(min_size=0, max_size=8192))
    @settings(max_examples=30, deadline=None)
    def test_bytes_all_sizes_roundtrip(self, data):
        # crosses the oob_threshold both ways
        assert roundtrip(data) == data

    @given(
        shape=st.tuples(
            st.integers(min_value=0, max_value=17),
            st.integers(min_value=1, max_value=13),
        ),
        dtype=st.sampled_from(["f8", "f4", "i8", "u1"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_numpy_arrays_roundtrip(self, shape, dtype):
        rows, cols = shape
        arr = np.arange(rows * cols, dtype=dtype).reshape(rows, cols)
        out = roundtrip(arr)
        assert out.dtype == arr.dtype and out.shape == arr.shape
        assert np.array_equal(out, arr)

    def test_mixed_message_shaped_payload(self):
        payload = (
            "exec",
            {
                "task": "w0",
                "params": [1, 2.5, "x", b"\x00\xff"],
                "block": np.ones((64, 64)),
                "peers": {"w1", "w2"},
            },
        )
        out = roundtrip(payload)
        assert out[0] == "exec"
        assert out[1]["peers"] == {"w1", "w2"}
        assert np.array_equal(out[1]["block"], np.ones((64, 64)))

    def test_exception_roundtrip(self):
        exc = ValueError("shape mismatch", (3, 4))
        out = roundtrip(exc)
        assert isinstance(out, ValueError) and out.args == exc.args

    def test_small_payload_stays_single_segment(self):
        frame = pack_frame({"op": "stop"})
        _magic, nsegs = _HEADER.unpack_from(frame, 0)
        assert nsegs == 1

    def test_large_array_goes_out_of_band(self):
        arr = np.zeros(4096, dtype=np.float64)
        frame = pack_frame(arr)
        _magic, nsegs = _HEADER.unpack_from(frame, 0)
        assert nsegs >= 2  # body + at least one OOB buffer segment


class TestZeroCopy:
    def test_decoded_array_aliases_the_frame_buffer(self):
        # Decode from a mutable buffer, then mutate that buffer: a
        # zero-copy receive path must see the change through the array.
        arr = np.full(4096, 7, dtype=np.uint8)
        frame = bytearray(pack_frame(arr))
        out, _ = unpack_frame(frame)
        assert np.array_equal(out, arr)
        # the array's 4096-byte payload is a unique run of 7s in the frame
        start = bytes(frame).index(b"\x07" * 4096)
        frame[start] = 9
        assert out[0] == 9  # aliased, not copied


def from_socket(frame):
    """The same bytes arriving on the proc wire, then the peer closing."""
    left, right = socket.socketpair()
    endpoint = SocketEndpoint(right)
    try:
        left.sendall(frame)
        left.close()
        return endpoint.recv()
    finally:
        endpoint.close()


def assert_rejected(frame, *errors):
    """Out of a buffer and off the wire alike."""
    for decode in (unpack_frame, from_socket):
        with pytest.raises(errors):
            decode(frame)


class TestRejection:
    def test_truncated_header(self):
        assert len(pack_frame(b"x" * 64)) > 3
        assert_rejected(pack_frame(b"x" * 64)[:3], FrameTruncated)

    def test_truncated_descriptor(self):
        frame = pack_frame(b"x" * 64)
        assert_rejected(frame[: _HEADER.size + 2], FrameTruncated)

    def test_truncated_payload(self):
        frame = pack_frame(b"x" * 64)
        assert_rejected(frame[:-5], FrameTruncated)

    def test_bad_magic(self):
        frame = bytearray(pack_frame({"a": 1}))
        frame[:4] = b"XXXX"
        assert_rejected(frame, FrameCorrupt)

    @given(pos=st.integers(min_value=0, max_value=63), delta=st.integers(1, 255))
    @settings(max_examples=40, deadline=None)
    def test_any_payload_byte_flip_is_rejected(self, pos, delta):
        frame = bytearray(pack_frame(b"A" * 64))
        offset = len(frame) - 64 + pos  # inside the pickled body's tail bytes
        frame[offset] = (frame[offset] + delta) % 256
        assert_rejected(frame, FrameCorrupt, FrameTruncated)

    def test_implausible_segment_count_rejected(self):
        frame = bytearray(pack_frame({"a": 1}))
        frame[4:8] = struct.pack("!I", 1 << 20)
        assert_rejected(frame, FrameCorrupt)

    def test_implausible_segment_length_rejected(self):
        frame = bytearray(pack_frame({"a": 1}))
        # descriptor 0 starts after the header: kind u8, then length u64
        struct.pack_into("!Q", frame, _HEADER.size + 1, 1 << 40)
        assert_rejected(frame, FrameCorrupt)

    def test_kind_byte_other_than_inline_rejected(self):
        # kind 1 was the SharedMemory spill; inline (0) is the only kind
        arr = np.arange(4096, dtype=np.uint8)
        frame = bytearray(pack_frame(arr))
        assert frame[_HEADER.size + _SEGMENT.size] == 0  # the OOB segment's
        frame[_HEADER.size + _SEGMENT.size] = 1
        assert_rejected(frame, FrameCorrupt)
        frame = bytearray(pack_frame({"a": 1}))
        frame[_HEADER.size] = 1  # the body's
        assert_rejected(frame, FrameCorrupt)


class TestLoopbackEndpoint:
    """``loopback_pair`` is the production endpoint over a socketpair."""

    def test_pair_carries_frames_both_ways(self):
        a, b = loopback_pair()
        a.send({"n": 1})
        b.send({"n": 2})
        assert b.recv() == {"n": 1}
        assert a.recv() == {"n": 2}
        assert a.stats()["frames_sent"] == 1
        assert a.stats()["frames_received"] == 1
        assert a.stats()["bytes_sent"] > 0

    def test_numpy_payload_through_pair(self):
        a, b = loopback_pair()
        arr = np.random.default_rng(7).standard_normal((32, 32))
        a.send(("block", arr))
        op, out = b.recv()
        assert op == "block" and np.array_equal(out, arr)

    def test_close_wakes_receiver_and_fails_sender(self):
        a, b = loopback_pair()
        got = []
        t = threading.Thread(target=lambda: got.append(b.recv()))
        t.start()
        a.close()
        t.join(timeout=5)
        assert got == [None]
        with pytest.raises(TransportError):
            a.send({"late": True})


class TestSocketEndpoint:
    def _pair(self, **kw):
        left, right = socket.socketpair()
        return SocketEndpoint(left, **kw), SocketEndpoint(right, **kw)

    def test_frames_cross_a_real_socket(self):
        a, b = self._pair()
        try:
            arr = np.arange(10000, dtype=np.float64)
            a.send(("exec", {"block": arr}))
            op, payload = b.recv()
            assert op == "exec"
            assert np.array_equal(payload["block"], arr)
            assert b.stats()["bytes_received"] == a.stats()["bytes_sent"]
        finally:
            a.close()
            b.close()

    def test_interleaved_sends_from_threads_stay_framed(self):
        a, b = self._pair()
        try:
            n_threads, per_thread = 4, 25
            threads = [
                threading.Thread(
                    target=lambda t=t: [
                        a.send({"t": t, "i": i, "pad": bytes(3000)})
                        for i in range(per_thread)
                    ]
                )
                for t in range(n_threads)
            ]
            for t in threads:
                t.start()
            got = [b.recv() for _ in range(n_threads * per_thread)]
            for t in threads:
                t.join()
            seen = {(m["t"], m["i"]) for m in got}
            assert len(seen) == n_threads * per_thread
        finally:
            a.close()
            b.close()

    def test_peer_close_between_frames_is_clean_eof(self):
        a, b = self._pair()
        a.send({"n": 1})
        assert b.recv() == {"n": 1}
        a.close()
        assert b.recv() is None
        b.close()

    def test_mid_frame_cut_is_truncation(self):
        left, right = socket.socketpair()
        b = SocketEndpoint(right)
        frame = pack_frame({"big": bytes(100000)})
        left.sendall(frame[: len(frame) // 2])
        left.close()
        with pytest.raises(FrameTruncated):
            b.recv()
        b.close()

    def test_corrupt_stream_is_rejected(self):
        left, right = socket.socketpair()
        b = SocketEndpoint(right)
        frame = bytearray(pack_frame({"big": b"B" * 4096}))
        frame[-100] ^= 0xFF
        left.sendall(frame)
        left.close()
        with pytest.raises((FrameCorrupt, FrameTruncated)):
            b.recv()
        b.close()

    def test_send_after_close_raises(self):
        a, b = self._pair()
        a.close()
        with pytest.raises(TransportError):
            a.send({})
        b.close()
