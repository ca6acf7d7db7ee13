"""Exception hierarchy for the CN runtime."""

from __future__ import annotations

__all__ = [
    "CnError",
    "ArchiveError",
    "TaskLoadError",
    "NoWillingJobManager",
    "NoWillingTaskManager",
    "JobError",
    "JobTimeoutError",
    "TaskFailedError",
    "UnknownTaskError",
    "MessageTimeout",
    "ShutdownError",
    "JournalError",
    "ConfigError",
    "TransportError",
    "FrameCorrupt",
    "FrameTruncated",
    "WorkerLost",
    "RemoteTaskError",
    "CnxValidationError",
]


class CnError(Exception):
    """Base class for all CN runtime errors."""


class ArchiveError(CnError):
    """A task archive is missing, corrupt, or lacks a manifest."""


class TaskLoadError(CnError):
    """The task class could not be resolved or does not implement Task."""


class NoWillingJobManager(CnError):
    """No JobManager responded to the multicast solicitation with enough
    free resources for the job requirements."""


class NoWillingTaskManager(CnError):
    """No TaskManager was willing to host a task (insufficient memory or
    slots across the cluster)."""


class JobError(CnError):
    """Generic job-level failure."""


class JobTimeoutError(JobError):
    """``Job.wait`` gave up; carries the per-task states at the moment of
    the timeout so "still running" and "wedged" are distinguishable."""

    def __init__(self, job_id: str, timeout: object, states: dict[str, str]) -> None:
        self.job_id = job_id
        self.timeout = timeout
        self.states = dict(states)
        pending = sorted(
            name
            for name, state in states.items()
            if state not in ("COMPLETED", "FAILED", "CANCELLED")
        )
        summary = ", ".join(f"{name}={states[name]}" for name in sorted(states))
        super().__init__(
            f"job {job_id} did not finish within {timeout}s; "
            f"{len(pending)} task(s) not terminal ({', '.join(pending) or 'none'}); "
            f"states: {summary}"
        )


class TaskFailedError(JobError):
    """A task raised; carries the original traceback text."""

    def __init__(self, task_name: str, cause: str) -> None:
        self.task_name = task_name
        self.cause = cause
        super().__init__(f"task {task_name!r} failed: {cause}")


class UnknownTaskError(CnError):
    """A message or start request addressed a task that does not exist."""


class MessageTimeout(CnError):
    """A blocking receive timed out."""


class ShutdownError(CnError):
    """Operation attempted on a component that has been shut down."""


class JournalError(CnError):
    """The durable job journal could not be read or written."""


class ConfigError(CnError, ValueError):
    """A cluster option is outside its range, or options were combined
    that cannot run together (e.g. chaos injection with the multi-process
    execution backend); raised by :class:`~repro.cn.config.ClusterConfig`
    before anything is built."""


class TransportError(CnError):
    """An execution-backend transport failed (socket, framing, worker)."""


class FrameCorrupt(TransportError):
    """A wire frame failed its CRC32 integrity check."""


class FrameTruncated(TransportError):
    """The stream ended mid-frame (peer died or the frame was cut)."""


class WorkerLost(TransportError):
    """A worker process died while executions were outstanding."""


class RemoteTaskError(CnError):
    """A task raised inside a worker process; carries the remote
    traceback text so the retry/failure paths report the real cause."""

    def __init__(self, task_name: str, kind: str, remote_traceback: str) -> None:
        self.task_name = task_name
        self.kind = kind
        self.remote_traceback = remote_traceback
        super().__init__(
            f"task {task_name!r} raised {kind} in its worker process:\n"
            f"{remote_traceback}"
        )


class CnxValidationError(ValueError):
    """A composition cnlint refused, wherever it entered: ``report`` is
    the whole :class:`~repro.analysis.Report` (warnings included) and
    ``diagnostics`` its error-severity findings."""

    def __init__(self, report) -> None:
        self.report = report
        self.diagnostics = report.errors()
        super().__init__(report.render(title="composition refused"))

    @classmethod
    def raise_for(cls, report) -> None:
        """Raise for a cnlint *report* that has error-severity findings;
        warnings pass."""
        if not report.ok:
            raise cls(report)
