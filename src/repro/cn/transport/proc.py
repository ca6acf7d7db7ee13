"""ProcTransport: TaskManagers execute on real multiprocessing workers.

The paper's deployment model is one CNServer per machine; this backend
makes the node boundary a *process* boundary, so CPU-bound task code
escapes the GIL and an N-node cluster really uses N cores.  The split:

* **coordinator** (this process) -- everything the control plane owns
  today stays byte-for-byte: multicast solicitation and placement, the
  hosted queues with their replay and chaos fates, the delivery
  ledger and write-ahead journal, heartbeats, deadline watchdogs,
  retries, epoch fences, failover adoption;
* **workers** (one forked process per node, started lazily at the first
  attempt routed to that node) -- run the task bodies.  An ``exec``
  frame carries the attempt (the task class and the context's
  ``wire_fields()``); a per-attempt pump thread forwards the
  coordinator-side hosted queue over the wire (so every delivery
  semantic is applied *before* a message crosses); ``route``/``checkpoint``/``rpc``/``metric`` frames come back.

One thread per node (the demux loop) reads that node's socket and
handles every frame on itself, in arrival order; the only frames that
cost a thread are the two RPCs that can wait on another attempt
(:data:`_BLOCKING_RPCS`).  A checkpoint is a one-way frame, *ordered,
not acknowledged*: it is journaled before any message the attempt sends
after it is routed and before the attempt's outcome is reported, and one
the coordinator cannot save fails the attempt with that error.

A worker process dying is detected structurally: the executor turns
unhealthy, the node's heartbeat falls silent, and the ordinary failure
detector declares the node dead and re-places its work -- real process
death flows through the same recovery path as a simulated crash.

Messages that cross the wire keep their coordinator-assigned serials;
messages *produced* in a worker are re-serialized on arrival so the
process-wide total order (ledger/dedup identity) stays coordinator-owned.
"""

from __future__ import annotations

import itertools
import multiprocessing
import pickle
import socket
import threading
import traceback
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from ..errors import (
    ConfigError,
    MessageTimeout,
    ShutdownError,
    TransportError,
    WorkerLost,
    RemoteTaskError,
)
from ..messages import _next_serial
from ..runmodel import RunModel
from .codec import SocketEndpoint
from .inproc import InlineExecutor, InProcTransport
from .worker import worker_main

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import TaskContext
    from ..taskmanager import HostedTask, TaskManager
    from ..telemetry import Telemetry

__all__ = ["ProcTransport", "ProcExecutor", "register_blob_resolver"]

#: namespace -> resolver for the generic worker blob-fetch RPC; modules
#: owning coordinator-side state register here at import (e.g. the
#: matrix store), keeping the transport free of app-layer imports
_BLOB_RESOLVERS: dict[str, Callable[[str], Any]] = {}


def register_blob_resolver(namespace: str, fn: Callable[[str], Any]) -> None:
    _BLOB_RESOLVERS[namespace] = fn


def _rpc_blob(state: Optional["_ExecState"], namespace: str, key: str) -> Any:
    try:
        resolver = _BLOB_RESOLVERS[namespace]
    except KeyError:
        raise KeyError(f"{namespace}:{key}") from None
    return resolver(key)


#: worker RPC op -> callable(state, *args); every op but ``blob`` needs
#: the live attempt it was called from
_RPCS: dict[str, Callable[..., Any]] = {
    "blob": _rpc_blob,
    "tuple_out": lambda state, t: state.job.tuple_space.out(t),
    "tuple_in": lambda state, pattern, timeout: state.job.tuple_space.in_(
        pattern, timeout
    ),
    "tuple_rd": lambda state, pattern, timeout: state.job.tuple_space.rd(
        pattern, timeout
    ),
    "tuple_inp": lambda state, pattern: state.job.tuple_space.inp(pattern),
    "tuple_rdp": lambda state, pattern: state.job.tuple_space.rdp(pattern),
    "tuple_count": lambda state, pattern: state.job.tuple_space.count(pattern),
    "tuple_snapshot": lambda state: state.job.tuple_space.snapshot(),
    # through the attempt's own loader, which also announces the resume
    "checkpoint_load": lambda state: state.context._checkpoint_load(),
}

#: the RPCs that can wait on another attempt's progress: each call takes
#: a thread, so the node's reader keeps reading (the tuple they wait for
#: may arrive on this very socket).  Every other op returns without
#: waiting on anyone and runs on the demux thread itself.
_BLOCKING_RPCS = frozenset({"tuple_in", "tuple_rd"})

_exec_seq = itertools.count(1)


class _ExecState:
    """Coordinator-side bookkeeping for one remote attempt."""

    def __init__(
        self, exec_id: str, job: Any, task: str, context: "TaskContext", queue: Any
    ) -> None:
        self.exec_id = exec_id
        self.job = job
        self.task = task
        self.context = context
        self.queue = queue
        self.done = threading.Event()
        self.ok = False
        self.result: Any = None
        self.error: Optional[tuple[str, str, str]] = None  # kind, text, tb


class WorkerHandle:
    """One node's worker process: socket, demux loop, in-flight attempts."""

    def __init__(self, node: str, telemetry: Optional["Telemetry"]) -> None:
        self.node = node
        self.telemetry = telemetry
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.endpoint: Optional[SocketEndpoint] = None
        self._demux: Optional[threading.Thread] = None
        self._execs: dict[str, _ExecState] = {}
        self._lock = threading.Lock()
        self._failed = False
        self._stopped = False
        self._handlers: dict[str, Callable[[dict], None]] = {
            "outcome": self._on_outcome,
            "route": self._on_route,
            "checkpoint": self._on_checkpoint,
            "rpc": self._on_rpc,
            "metric": self._on_metric,
            "event": self._on_event,
            "batch": self._on_batch,
        }

    # -- lifecycle --------------------------------------------------------------
    def start(self) -> None:
        parent_sock, child_sock = socket.socketpair()
        ctx = multiprocessing.get_context("fork")
        self.process = ctx.Process(
            target=worker_main,
            args=(child_sock, self.node),
            name=f"cn-worker-{self.node}",
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self.endpoint = SocketEndpoint(parent_sock)
        self._demux = threading.Thread(
            target=self._demux_loop, name=f"cn-demux-{self.node}", daemon=True
        )
        self._demux.start()

    def alive(self) -> bool:
        with self._lock:
            if self._failed or self._stopped:
                return False
        process = self.process
        return process is not None and process.is_alive()

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
        endpoint = self.endpoint
        if endpoint is not None:
            try:
                endpoint.send(("stop", {}))
            except TransportError:
                pass  # conclint: waive CC303 -- worker already gone; stopping anyway
        self._reap(grace=2.0)
        self._fail_outstanding("worker stopped")

    def _reap(self, grace: float) -> None:
        """Join the worker (terminated after *grace* seconds) and close
        the endpoint; the caller is whoever set ``_stopped``."""
        process = self.process
        if process is not None:
            process.join(timeout=grace)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
        if self.endpoint is not None:
            self.endpoint.close()

    # -- submission -------------------------------------------------------------
    def execute(
        self, hosted: "HostedTask", context: "TaskContext", cls_blob: bytes
    ) -> Any:
        job, runtime = hosted.job, hosted.runtime
        exec_id = f"{job.job_id}/{runtime.name}#{hosted.epoch}:{next(_exec_seq)}"
        state = _ExecState(exec_id, job, runtime.name, context, hosted.inbox())
        with self._lock:
            if self._failed or self._stopped:
                raise WorkerLost(f"worker for node {self.node!r} is gone")
            self._execs[exec_id] = state
        try:
            self._send(
                "exec",
                {
                    "exec_id": exec_id,
                    "cls_blob": cls_blob,
                    "context": context.wire_fields(),
                },
            )
        except TransportError as exc:
            with self._lock:
                self._execs.pop(exec_id, None)
            raise WorkerLost(f"worker for node {self.node!r}: {exc}") from exc
        pump = threading.Thread(
            target=self._pump, args=(state,), name=f"cn-pump-{exec_id}", daemon=True
        )
        pump.start()
        return self._wait(state)

    def _wait(self, state: _ExecState) -> Any:
        while not state.done.wait(timeout=0.2):
            if not self.alive():
                # demux normally fails outstanding execs on EOF; this is
                # the belt-and-braces path for an abrupt worker death
                self._fail_outstanding("worker process died")
        if state.ok:
            return state.result
        kind, text, tb = state.error  # type: ignore[misc]
        if kind == "ShutdownError":
            raise ShutdownError(text)
        if kind == "WorkerLost":
            raise WorkerLost(text)
        raise RemoteTaskError(state.task, kind, tb)

    def _pump(self, state: _ExecState) -> None:
        """Forward the coordinator-side hosted queue to the worker.

        Every delivery semantic (replay, chaos fates) already ran when the
        message entered the hosted queue; the pump only moves accepted
        messages across."""
        queue = state.queue
        while not state.done.is_set():
            try:
                message = queue.get(timeout=0.05)
            except MessageTimeout:
                continue
            except ShutdownError:
                self._send_quiet("queue-closed", {"exec_id": state.exec_id})
                return
            try:
                self._send("msg", {"exec_id": state.exec_id, "message": message})
            except TransportError:
                return  # worker gone; _wait surfaces WorkerLost

    # -- demux ------------------------------------------------------------------
    def _demux_loop(self) -> None:
        endpoint = self.endpoint
        assert endpoint is not None
        while True:
            try:
                frame = endpoint.recv()
            except TransportError:
                break
            if frame is None:
                break
            self._dispatch(*frame)
        self._fail_outstanding("worker connection closed")
        with self._lock:
            reap, self._stopped = not self._stopped, True
        if reap:
            # a channel that failed (EOF, a frame failing its CRC) is a
            # lost worker: end the process rather than leave it running
            # unread; the node stays out of service, as after a SIGKILL
            self._reap(grace=0.0)

    def _dispatch(self, op: str, data: dict) -> None:
        handler = self._handlers.get(op)
        if handler is None:
            # a frame this side does not know is counted, then dropped
            self._count("cn_transport_frames_unknown_total")
            return
        handler(data)

    def _on_outcome(self, data: dict) -> None:
        with self._lock:
            state = self._execs.pop(data["exec_id"], None)
        if state is None:
            return
        if data["ok"]:
            state.ok = True
            state.result = data["result"]
        else:
            state.error = (data["kind"], data["text"], data["tb"])
        state.done.set()

    def _on_route(self, data: dict) -> None:
        with self._lock:
            state = self._execs.get(data["exec_id"])
        if state is None:
            return  # attempt finished/fenced; its late sends are zombies
        # worker-built messages get coordinator serials: the process-wide
        # total order (ledger and dedup identity) has a single owner
        messages = [replace(m, serial=_next_serial()) for m in data["messages"]]
        try:
            state.job.route_many(messages)
        except ShutdownError:
            # a destination queue is closed (job tearing down): tell the
            # worker so the attempt unblocks exactly as it would inline
            self._send_quiet("queue-closed", {"exec_id": state.exec_id})

    def _on_checkpoint(self, data: dict) -> None:
        """Save a checkpoint in arrival order, on the reader: it is in
        the journal before any later frame of this socket is handled."""
        with self._lock:
            state = self._execs.get(data["exec_id"])
        if state is None:
            return  # attempt finished/fenced; dropped as a late route is
        try:
            state.context._checkpoint_save(data["state"], data["tag"])
        except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- nobody awaits a one-way frame: whatever the save raised becomes the attempt's failure
            self._fail_exec(state, exc)

    def _fail_exec(self, state: _ExecState, exc: Exception) -> None:
        """End a running attempt with *exc* and cancel its worker side;
        whatever the worker still sends for it is dropped as late."""
        with self._lock:
            if self._execs.pop(state.exec_id, None) is None:
                return
        state.error = (
            type(exc).__name__,
            str(exc),
            "".join(traceback.format_exception(exc)),
        )
        state.done.set()
        self._send_quiet("queue-closed", {"exec_id": state.exec_id})

    def _on_rpc(self, data: dict) -> None:
        if data["op"] in _BLOCKING_RPCS:
            threading.Thread(
                target=self._answer_rpc, args=(data,), daemon=True
            ).start()
        else:
            # answered from the reader: the worker's frame loop never
            # sends, so it is always there to take the reply
            self._answer_rpc(data)

    def _answer_rpc(self, data: dict) -> None:
        with self._lock:
            state = self._execs.get(data["exec_id"]) if data["exec_id"] else None
        reply: dict[str, Any] = {"rpc_id": data["rpc_id"]}
        try:
            value = self._dispatch_rpc(state, data["op"], data["args"])
        except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- the RPC boundary must return every error to the worker by name
            reply.update(ok=False, kind=type(exc).__name__, text=str(exc))
        else:
            reply.update(ok=True, value=value)
        self._send_quiet("rpc-reply", reply)

    def _dispatch_rpc(
        self, state: Optional[_ExecState], op: str, args: Sequence[Any]
    ) -> Any:
        handler = _RPCS.get(op)
        if handler is None:
            raise ConfigError(f"unknown worker rpc {op!r}")
        if state is None and handler is not _rpc_blob:
            raise ShutdownError("rpc for an attempt that is no longer running")
        return handler(state, *args)

    def _on_metric(self, data: dict) -> None:
        try:
            self._count(data["name"], data["amount"], data["labels"])
        except ValueError as exc:
            # the registry refused the name (another kind holds it): the
            # attempt fails as it would in process; its outcome, flushed
            # after this frame, is then dropped as late
            with self._lock:
                state = self._execs.get(data["exec_id"])
            if state is not None:
                self._fail_exec(state, exc)

    def _count(
        self, name: str, amount: float = 1.0, labels: Optional[dict] = None
    ) -> None:
        telemetry = self.telemetry
        if telemetry is not None:
            scoped = telemetry.metrics.namespaced(self.node)
            scoped.counter(name, **(labels or {})).inc(amount)

    def _on_event(self, data: dict) -> None:
        with self._lock:
            state = self._execs.get(data["exec_id"])
        if state is None:
            return
        state.context.event(data["name"], **data["attrs"])

    def _on_batch(self, data: dict) -> None:
        """A coalesced telemetry batch: N metric/event frames that
        crossed the wire as one (worker-side buffering)."""
        frames = data["frames"]
        for op, frame in frames:
            self._dispatch(op, frame)
        if len(frames) > 1:
            self._count("cn_transport_frames_coalesced_total", len(frames) - 1)

    # -- plumbing ---------------------------------------------------------------
    def _send(self, op: str, data: dict) -> None:
        endpoint = self.endpoint
        if endpoint is None:
            raise TransportError(f"worker for {self.node!r} never started")
        endpoint.send((op, data))

    def _send_quiet(self, op: str, data: dict) -> None:
        try:
            self._send(op, data)
        except TransportError:
            pass  # conclint: waive CC303 -- peer already gone; nothing to unblock

    def _fail_outstanding(self, reason: str) -> None:
        with self._lock:
            self._failed = True
            victims = list(self._execs.values())
            self._execs.clear()
        for state in victims:
            state.error = ("WorkerLost", f"{reason} ({self.node})", reason)
            state.done.set()


class ProcExecutor(InlineExecutor):
    """Per-node executor shipping attempts to the node's worker."""

    def __init__(self, transport: "ProcTransport", node: str) -> None:
        self.transport = transport
        self.node = node

    def execute(self, hosted: "HostedTask", context: "TaskContext") -> Any:
        spec = hosted.runtime.spec
        if spec.runmodel is RunModel.RUN_IN_JOBMANAGER:
            # manager-site tasks are control-plane work; they stay inline
            return super().execute(hosted, context)
        try:
            cls_blob = pickle.dumps(hosted.task_class, protocol=5)
        except (pickle.PicklingError, AttributeError, TypeError):
            # a class pickle cannot reference (defined inside a function,
            # say) cannot cross the process boundary; run it inline and
            # count the downgrade so the gap is visible
            self.transport.note_inline_fallback()
            return super().execute(hosted, context)
        handle = self.transport.ensure_worker(self.node)
        return handle.execute(hosted, context, cls_blob)

    def healthy(self) -> bool:
        return self.transport.node_healthy(self.node)


class ProcTransport(InProcTransport):
    """The multi-process execution backend (one forked worker per node).

    Workers fork lazily on the first attempt shipped to their node, so
    the fork snapshot includes everything the application registered or
    staged before running the job (task classes, matrices, ...).
    """

    name = "proc"

    def __init__(self, telemetry: Optional["Telemetry"] = None) -> None:
        super().__init__(telemetry)
        if "fork" not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                "this platform has no fork start method (workers inherit the "
                "task registry and staged application state); the proc "
                "transport is unavailable"
            )
        self._handles: dict[str, WorkerHandle] = {}
        self._lock = threading.Lock()
        self._stopped = False
        #: attempts executed inline because their class cannot cross the
        #: process boundary (exported as cn_transport_inline_fallbacks_total)
        self.inline_fallbacks = 0

    def executor_for(self, manager: "TaskManager") -> ProcExecutor:
        return ProcExecutor(self, manager.name.split("/")[0])

    def note_inline_fallback(self) -> None:
        with self._lock:
            self.inline_fallbacks += 1

    # -- workers ----------------------------------------------------------------
    def ensure_worker(self, node: str) -> WorkerHandle:
        with self._lock:
            if self._stopped:
                raise ShutdownError("proc transport is stopped")
            handle = self._handles.get(node)
            if handle is None:
                handle = WorkerHandle(node, self.telemetry)
                handle.start()
                self._handles[node] = handle
        return handle

    def node_healthy(self, node: str) -> bool:
        with self._lock:
            handle = self._handles.get(node)
        # a node whose worker has not started yet is healthy (it will
        # fork on first use); one whose worker died is not
        return handle is None or handle.alive()

    def stop(self) -> None:
        with self._lock:
            if self._stopped:
                return
            self._stopped = True
            handles = list(self._handles.values())
            self._handles.clear()
        for handle in handles:
            handle.stop()

    def stats(self) -> dict[str, Any]:
        with self._lock:
            handles = dict(self._handles)
        out: dict[str, Any] = {}
        for node, handle in handles.items():
            endpoint = handle.endpoint
            if endpoint is not None:
                out[node] = endpoint.stats()
        return out

    def worker_pids(self) -> dict[str, int]:
        """node -> OS pid of its forked worker (only nodes that forked).

        The structural proof the tests and PERF15 lean on: distinct pids
        distinct from the coordinator mean execution really left the
        process."""
        with self._lock:
            handles = dict(self._handles)
        return {
            node: handle.process.pid
            for node, handle in handles.items()
            if handle.process is not None and handle.process.pid is not None
        }

