"""The proc backend's worker process: task execution outside the GIL.

One worker process runs per cluster node.  The coordinator keeps the
whole control plane -- placement, retries, deadlines, the delivery
ledger, the journal -- and ships only the *execution* of task attempts
here, over a socket speaking the frame codec.  The worker:

* receives ``exec`` frames, unpickles the task class, and runs the
  attempt on a local thread with a :class:`RemoteTaskContext` whose
  messaging/tuple-space/checkpoint surface proxies back over the wire
  (a checkpoint leaves as a one-way ``checkpoint`` frame: ordered before
  every later send of the attempt and before its outcome, not
  acknowledged);
* receives ``msg`` frames (the coordinator pumps the attempt's hosted
  queue over) into a local :class:`~repro.cn.queues.MessageQueue`, so
  ``recv_matching`` and friends behave exactly as in-process;
* answers cancellation (``queue-closed``) by closing the local queue,
  which unblocks the task with the same ``ShutdownError`` it would see
  in-process;
* reports the attempt's outcome -- result or exception (class name +
  remote traceback) -- in a single ``outcome`` frame.

Workers are forked, so they inherit the coordinator's loaded modules,
task registry, and staged application state.  Locks captured mid-flight
by the fork are re-armed at startup (:func:`register_fork_reset`), and
anything the fork snapshot is missing can be pulled lazily through the
generic blob RPC (:func:`fetch_blob`).
"""

from __future__ import annotations

import pickle
import threading
import traceback
from typing import Any, Callable, Optional

from ...analysis.conc.runtime import uninstall_verifier
from ..errors import ShutdownError, TransportError
from ..queues import MessageQueue
from ..task import TaskContext, run_attempt
from .codec import SocketEndpoint

__all__ = [
    "worker_main",
    "WorkerRuntime",
    "RemoteTaskContext",
    "register_fork_reset",
    "fetch_blob",
]

#: callables run at worker startup to re-arm state a fork may have
#: captured in an unusable condition (e.g. a lock held by another
#: coordinator thread at fork time); modules owning such state register
#: a reset at import
_FORK_RESETS: list[Callable[[], None]] = []

#: the running worker's runtime; None in the coordinator process
_ACTIVE: Optional["WorkerRuntime"] = None


def register_fork_reset(fn: Callable[[], None]) -> None:
    """Register *fn* to run when a forked worker process starts."""
    _FORK_RESETS.append(fn)


def fetch_blob(namespace: str, key: str) -> Any:
    """Pull a named blob from the coordinator over the worker's RPC
    channel.  Raises KeyError outside a worker, or when the coordinator
    has no resolver for *namespace*/*key* -- callers treat it as a plain
    cache miss."""
    runtime = _ACTIVE
    if runtime is None:
        raise KeyError(key)
    return runtime.rpc(None, "blob", namespace, key)


class _RemoteCounter:
    """Counter stand-in forwarding increments as metric frames: the
    registry ``Counter``'s surface, whose values are merged
    coordinator-side, so a local read sees nothing."""

    __slots__ = ("_runtime", "_exec_id", "_name", "_labels")

    def __init__(
        self, runtime: "WorkerRuntime", exec_id: str, name: str, labels: dict
    ) -> None:
        self._runtime = runtime
        self._exec_id = exec_id
        self._name = name
        self._labels = labels

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._runtime.send_metric(self._exec_id, self._name, self._labels, amount)

    @property
    def value(self) -> float:
        return 0.0


class RemoteTupleSpace:
    """The job tuple space, proxied over the wire as blocking RPCs.

    Blocking semantics are preserved: ``in_``/``rd`` park the *worker*
    task thread while the coordinator-side operation blocks on the real
    space; a timeout there raises the same ``MessageTimeout`` here.
    """

    def __init__(self, runtime: "WorkerRuntime", exec_id: str) -> None:
        self._runtime = runtime
        self._exec_id = exec_id

    def _call(self, op: str, *args: Any) -> Any:
        return self._runtime.rpc(self._exec_id, op, *args)

    def out(self, t) -> None:
        self._call("tuple_out", tuple(t))

    def in_(self, pattern, timeout: Optional[float] = None) -> tuple:
        return tuple(self._call("tuple_in", tuple(pattern), timeout))

    def rd(self, pattern, timeout: Optional[float] = None) -> tuple:
        return tuple(self._call("tuple_rd", tuple(pattern), timeout))

    def inp(self, pattern) -> Optional[tuple]:
        found = self._call("tuple_inp", tuple(pattern))
        return None if found is None else tuple(found)

    def rdp(self, pattern) -> Optional[tuple]:
        found = self._call("tuple_rdp", tuple(pattern))
        return None if found is None else tuple(found)

    def count(self, pattern=None) -> int:
        return self._call("tuple_count", None if pattern is None else tuple(pattern))

    def snapshot(self) -> list[tuple]:
        return [tuple(t) for t in self._call("tuple_snapshot")]


class RemoteTaskContext(TaskContext):
    """A TaskContext whose runtime surface crosses the wire.

    Subclasses the real context so the entire messaging API (``send``,
    ``multicast``, ``send_many``, ``broadcast``, selective receive,
    checkpoint, restore) runs the exact in-process code paths -- only
    the injected ``route_many`` / ``tuple_space`` / checkpoint
    callables differ.  Telemetry is forwarded as metric
    frames and merged into the coordinator registry under this node's
    namespace.
    """

    def __init__(self, runtime: "WorkerRuntime", exec_id: str, **kwargs: Any) -> None:
        self._runtime = runtime
        self._exec_id = exec_id
        super().__init__(**kwargs)

    def counter(self, name: str, **labels: Any) -> Any:
        return _RemoteCounter(self._runtime, self._exec_id, name, labels)

    def event(self, name: str, **attrs: Any) -> None:
        self._runtime.send_event(self._exec_id, name, attrs)


class _Exec:
    """One attempt running in this worker."""

    def __init__(self, exec_id: str, queue: MessageQueue) -> None:
        self.exec_id = exec_id
        self.queue = queue
        self.context: Optional[RemoteTaskContext] = None


class WorkerRuntime:
    """The worker's frame loop plus its executing attempts."""

    def __init__(self, endpoint: SocketEndpoint, node: str) -> None:
        self.endpoint = endpoint
        self.node = node
        self._execs: dict[str, _Exec] = {}
        self._lock = threading.Lock()
        self._rpc_seq = 0
        self._rpc_waits: dict[int, list] = {}  # rpc_id -> [Event, ok, value]
        self._stopping = False
        #: metric/event frames buffered for coalescing; flushed whenever
        #: the buffer reaches :attr:`flush_threshold` frames, and always
        #: before the attempt's outcome frame (so the coordinator's
        #: registry observes every metric an outcome implies) and at
        #: shutdown.  Telemetry frames are fire-and-forget, so delaying
        #: them is safe; rpc/outcome/route/checkpoint frames are never
        #: buffered.
        self._frame_buffer: list[tuple[str, dict]] = []
        self.flush_threshold = 32
        self._handlers: dict[str, Callable[[dict], None]] = {
            "exec": self._start_exec,
            "msg": self._deliver,
            "queue-closed": self._cancel,
            "rpc-reply": self._rpc_reply,
        }

    # -- outbound helpers (any thread) -----------------------------------------
    def _send(self, op: str, data: dict) -> None:
        try:
            self.endpoint.send((op, data))
        except TransportError:
            # the coordinator is gone; the process is about to exit anyway
            pass  # conclint: waive CC303 -- orphaned worker, nothing to notify

    def _buffer_frame(self, op: str, data: dict) -> None:
        """Queue a telemetry frame, coalescing chatter into one wire
        frame per ``flush_threshold`` instead of one frame each."""
        with self._lock:
            self._frame_buffer.append((op, data))
            if len(self._frame_buffer) < self.flush_threshold:
                return
            frames = self._frame_buffer
            self._frame_buffer = []
        self._send("batch", {"frames": frames})

    def flush_frames(self) -> None:
        """Drain buffered telemetry frames to the coordinator now."""
        with self._lock:
            frames = self._frame_buffer
            self._frame_buffer = []
        if not frames:
            return
        if len(frames) == 1:
            self._send(*frames[0])
        else:
            self._send("batch", {"frames": frames})

    def send_metric(
        self, exec_id: str, name: str, labels: dict, amount: float
    ) -> None:
        self._buffer_frame(
            "metric",
            {"exec_id": exec_id, "name": name, "labels": labels, "amount": amount},
        )

    def send_event(self, exec_id: str, name: str, attrs: dict) -> None:
        self._buffer_frame("event", {"exec_id": exec_id, "name": name, "attrs": attrs})

    def rpc(self, exec_id: Optional[str], op: str, *args: Any) -> Any:
        """Synchronous request to the coordinator; raises what the
        coordinator-side operation raised (mapped back by class name)."""
        with self._lock:
            if self._stopping:
                raise ShutdownError("worker runtime is stopping")
            self._rpc_seq += 1
            rpc_id = self._rpc_seq
            slot = [threading.Event(), False, None]
            self._rpc_waits[rpc_id] = slot
        self._send(
            "rpc", {"rpc_id": rpc_id, "exec_id": exec_id, "op": op, "args": args}
        )
        slot[0].wait()
        ok, value = slot[1], slot[2]
        if ok:
            return value
        kind, text = value
        raise _error_by_name(kind, text)

    # -- frame loop (main thread) ----------------------------------------------
    def run(self) -> None:
        while True:
            try:
                frame = self.endpoint.recv()
            except TransportError:
                break
            if frame is None:
                break
            op, data = frame
            if op == "stop":
                break
            handler = self._handlers.get(op)
            if handler is None:
                self._count_unknown()
            else:
                handler(data)
        self._shutdown()

    def _count_unknown(self) -> None:
        """Count a frame this side does not know, then drop it.  Only
        buffered: this loop never writes to the socket (the coordinator
        answers RPCs from its reader, which would deadlock against a
        writer blocked here), so the count leaves with the next flush."""
        with self._lock:
            self._frame_buffer.append(
                (
                    "metric",
                    {
                        "exec_id": None,
                        "name": "cn_transport_frames_unknown_total",
                        "labels": {},
                        "amount": 1.0,
                    },
                )
            )

    def _shutdown(self) -> None:
        self.flush_frames()
        with self._lock:
            self._stopping = True
            execs = list(self._execs.values())
            waits = list(self._rpc_waits.values())
            self._rpc_waits.clear()
        for slot in waits:
            slot[1] = False
            slot[2] = ("ShutdownError", "worker runtime is stopping")
            slot[0].set()
        for ex in execs:
            if ex.context is not None:
                ex.context.cancelled = True
            ex.queue.close()

    # -- frame handlers ---------------------------------------------------------
    def _start_exec(self, data: dict) -> None:
        exec_id = data["exec_id"]
        queue = MessageQueue(owner=f"{exec_id}@{self.node}")
        ex = _Exec(exec_id, queue)
        ex.context = RemoteTaskContext(
            self,
            exec_id,
            queue=queue,
            route_many=lambda messages: self._send(
                "route", {"exec_id": exec_id, "messages": list(messages)}
            ),
            tuple_space=RemoteTupleSpace(self, exec_id),
            # one-way frame, no reply: see TaskContext.checkpoint
            checkpoint_save=lambda state, tag: self._send(
                "checkpoint", {"exec_id": exec_id, "state": state, "tag": tag}
            ),
            checkpoint_load=lambda: self.rpc(exec_id, "checkpoint_load"),
            **data["context"],
        )
        with self._lock:
            self._execs[exec_id] = ex
        thread = threading.Thread(
            target=self._run_exec,
            args=(ex, data["cls_blob"]),
            name=f"cn-worker-{exec_id}",
            daemon=True,
        )
        thread.start()

    def _run_exec(self, ex: _Exec, cls_blob: bytes) -> None:
        outcome: dict
        try:
            result = run_attempt(pickle.loads(cls_blob), ex.context)
        except BaseException as exc:  # noqa: BLE001  # conclint: waive CC302 -- every exception must become an outcome frame, never kill the worker loop
            outcome = {
                "exec_id": ex.exec_id,
                "ok": False,
                "kind": type(exc).__name__,
                "text": str(exc),
                "tb": traceback.format_exc(),
            }
        else:
            outcome = {"exec_id": ex.exec_id, "ok": True, "result": result}
        with self._lock:
            self._execs.pop(ex.exec_id, None)
        # attempt-end barrier: buffered metric/event frames must land
        # before the outcome they causally precede
        self.flush_frames()
        self._send("outcome", outcome)

    def _deliver(self, data: dict) -> None:
        with self._lock:
            ex = self._execs.get(data["exec_id"])
        if ex is None:
            return  # outcome raced the pump; the attempt is already gone
        try:
            ex.queue.put(data["message"])
        except ShutdownError:  # conclint: waive CC303 -- late delivery to a cancelled attempt is dropped by design
            pass

    def _cancel(self, data: dict) -> None:
        with self._lock:
            ex = self._execs.get(data["exec_id"])
        if ex is None:
            return
        if ex.context is not None:
            ex.context.cancelled = True
        ex.queue.close()

    def _rpc_reply(self, data: dict) -> None:
        with self._lock:
            slot = self._rpc_waits.pop(data["rpc_id"], None)
        if slot is None:
            return
        if data["ok"]:
            slot[1], slot[2] = True, data["value"]
        else:
            slot[1], slot[2] = False, (data["kind"], data["text"])
        slot[0].set()


def _error_by_name(kind: str, text: str) -> Exception:
    """Rebuild a coordinator-side error by class name (CN errors keep
    their type so worker code can catch MessageTimeout etc.)."""
    from .. import errors as errors_mod

    exc_cls = getattr(errors_mod, kind, None)
    if isinstance(exc_cls, type) and issubclass(exc_cls, Exception):
        try:
            return exc_cls(text)
        except TypeError:
            # rich constructor signature; degrade to the base CN error
            return errors_mod.CnError(f"{kind}: {text}")
    if kind == "KeyError":
        return KeyError(text)
    return RuntimeError(f"{kind}: {text}")


def worker_main(sock: Any, node: str) -> None:
    """Entry point of the forked worker process."""
    global _ACTIVE
    # re-arm locks the fork may have captured while held elsewhere
    from .. import messages

    messages._serial_lock = threading.Lock()  # conclint: waive CC402 -- fork re-arms the module's own lock
    for reset in list(_FORK_RESETS):
        reset()
    # a lock verifier installed in the coordinator is meaningless here
    # (and its inherited state may be mid-update); drop it
    uninstall_verifier()
    endpoint = SocketEndpoint(sock)
    runtime = WorkerRuntime(endpoint, node)
    _ACTIVE = runtime
    try:
        runtime.run()
    finally:
        _ACTIVE = None
        endpoint.close()
