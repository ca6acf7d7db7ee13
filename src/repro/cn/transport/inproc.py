"""InProcTransport: the historical single-process backend, made explicit.

This backend preserves the seed semantics byte-for-byte: a task attempt
is instantiated and run inline on the TaskManager's task thread, in the
same interpreter, sharing payload objects by reference.  It stays the
default, and it remains the substrate the deterministic simulation and
chaos harnesses run on -- fault injection, the virtual clock, and the
runtime lock verifier all assume one process.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from .base import TaskExecutor, Transport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..task import TaskContext
    from ..taskmanager import HostedTask, TaskManager

__all__ = ["InProcTransport", "InlineExecutor"]


class InlineExecutor(TaskExecutor):
    """Run the attempt inline: exactly the historical TaskManager body."""

    def execute(
        self,
        manager: "TaskManager",
        hosted: "HostedTask",
        context: "TaskContext",
    ) -> Any:
        instance = manager._instantiate(hosted.task_class, hosted.runtime)  # conclint: waive CC402 -- executor is the manager's own run stage, node-local by definition
        instance._ctx = context  # enables Task.checkpoint/restore  # conclint: waive CC402 -- historical inline wiring; instance and context share this node
        return instance.run(context)


class InProcTransport(Transport):
    """All execution stays in the coordinator process (the default)."""

    name = "inproc"

    def __init__(self) -> None:
        self._executor = InlineExecutor()

    def executor_for(self, manager: "TaskManager") -> TaskExecutor:
        return self._executor

    def bind_cluster(self, cluster: Any) -> None:  # nothing to wire
        pass

