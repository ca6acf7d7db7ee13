"""The execution-backend interface: Transport / Endpoint / TaskExecutor.

Until this subsystem existed the "wire" between the coordinator and a
task's execution site was an implicit Python function call: the
TaskManager instantiated the task class and ran ``run(context)`` inline
on a thread.  That is now one *backend* behind an explicit seam:

* :class:`Endpoint` -- one bidirectional frame channel (a socket to a
  worker process, or to the other half of a loopback pair; frames are
  written and parsed by :mod:`~repro.cn.transport.codec`);
* :class:`TaskExecutor` -- runs one task attempt to completion given its
  hosting and context, returning the result or raising exactly what the
  inline ``instance.run(context)`` would have raised -- so the
  TaskManager's retry / deadline / epoch-fence machinery upstream of the
  seam is backend-agnostic;
* :class:`Transport` -- the backend itself: owns worker lifecycle, hands
  each TaskManager its executor, reports health and wire statistics.

Selection happens at cluster construction: ``Cluster(transport=...)``
takes one of the two backend names or a :class:`Transport` instance; the
default, ``"inproc"``, preserves the seed behavior byte-for-byte.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..job import Job
    from ..task import TaskContext
    from ..taskmanager import HostedTask, TaskManager

__all__ = ["Endpoint", "TaskExecutor", "Transport"]


class Endpoint(abc.ABC):
    """One bidirectional frame channel between two parties.

    ``send`` must be safe to call from multiple threads; ``recv`` has a
    single reader (the demux loop on each side).  Payloads must survive
    the codec: anything process-local (locks, open files, lambdas) is a
    bug at the call site, which the conclint CC404 pass flags statically.
    """

    @abc.abstractmethod
    def send(self, obj: Any) -> None:
        """Frame and write one object; raises TransportError when closed."""

    @abc.abstractmethod
    def recv(self) -> Optional[Any]:
        """Next decoded frame, or None on clean end-of-stream."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release the channel (idempotent)."""

    def stats(self) -> dict[str, int]:
        """Cumulative ``{frames_sent, frames_received, bytes_sent,
        bytes_received}`` for telemetry; zeroes by default."""
        return {
            "frames_sent": 0,
            "frames_received": 0,
            "bytes_sent": 0,
            "bytes_received": 0,
        }


class TaskExecutor(abc.ABC):
    """Runs one task attempt for a TaskManager.

    The contract mirrors the historical inline call exactly: return the
    task's result, or raise whatever ``instance.run(context)`` raised --
    including :class:`~repro.cn.errors.ShutdownError` for a cancelled /
    timed-out attempt -- so every outcome lands in the TaskManager's
    existing retry / failure / cancellation arms.
    """

    @abc.abstractmethod
    def execute(
        self,
        manager: "TaskManager",
        hosted: "HostedTask",
        context: "TaskContext",
    ) -> Any:
        """Run the attempt to completion; returns the task result."""

    def healthy(self) -> bool:
        """Whether this node's execution substrate is still usable; a
        False return silences the node's heartbeat so the ordinary
        failure detection / recovery path takes over."""
        return True


class Transport(abc.ABC):
    """An execution backend: worker lifecycle + per-node executors."""

    #: backend name ("inproc", "proc")
    name: str = "?"

    @abc.abstractmethod
    def executor_for(self, manager: "TaskManager") -> TaskExecutor:
        """The executor this TaskManager runs attempts through."""

    def start(self) -> None:
        """Bring the backend up (workers may also start lazily)."""

    def stop(self) -> None:
        """Tear the backend down; must be idempotent."""

    def healthy(self, node: str) -> bool:
        """Whether *node*'s execution substrate is alive."""
        return True

    def stats(self) -> dict[str, Any]:
        """Wire statistics for telemetry sampling (empty when trivial)."""
        return {}

    #: hooks the proc executor uses to reach coordinator-side state;
    #: populated by the Cluster wiring (kept here so InProc need not care)
    def bind_cluster(self, cluster: Any) -> None:
        """Give the backend a back-reference to the owning cluster."""
