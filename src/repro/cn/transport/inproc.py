"""The in-process side of the execution seam, and its base.

An attempt is run by an *executor* (``execute()`` / ``healthy()``) that a
*transport* hands each TaskManager (``executor_for`` / ``stop`` /
``stats`` / ``worker_pids``).  The classes here run the attempt inline on
the TaskManager's task thread, in the same interpreter, sharing payload
objects by reference -- the default, and the substrate the deterministic
simulation and chaos harnesses run on (fault injection, the virtual
clock, and the runtime lock verifier all assume one process).
:mod:`.proc` overrides them to ship attempts to worker processes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from ..task import run_attempt

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import TaskContext
    from ..taskmanager import HostedTask, TaskManager

__all__ = ["InProcTransport", "InlineExecutor"]


class InlineExecutor:
    """Runs one task attempt for a TaskManager, on the calling thread.

    The contract every executor keeps: return the task's result, or raise
    whatever ``run(context)`` raised -- including
    :class:`~repro.cn.errors.ShutdownError` for a cancelled / timed-out
    attempt -- so every outcome lands in the TaskManager's retry /
    failure / cancellation arms whichever side of the seam it ran on.
    """

    def execute(self, hosted: "HostedTask", context: "TaskContext") -> Any:
        return run_attempt(hosted.task_class, context)

    def healthy(self) -> bool:
        """Whether this node's execution substrate is still usable; a
        False return silences the node's heartbeat so the ordinary
        failure detection / recovery path takes over."""
        return True


class InProcTransport:
    """All execution stays in the coordinator process (the default)."""

    #: the name ``Cluster(transport=...)`` selects this backend by
    name = "inproc"

    def __init__(self, telemetry: Optional[Any] = None) -> None:
        #: the cluster's Telemetry hub, or None
        self.telemetry = telemetry

    def executor_for(self, manager: "TaskManager") -> InlineExecutor:
        """The executor *manager* runs its attempts through."""
        return InlineExecutor()

    def stop(self) -> None:
        """Tear the backend down (idempotent)."""

    def stats(self) -> dict[str, Any]:
        """Per-node wire statistics; nothing crosses a wire here."""
        return {}

    def worker_pids(self) -> dict[str, int]:
        """node -> OS pid of its worker process; there are none here."""
        return {}
