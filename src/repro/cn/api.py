"""CN API: the client-side factory (paper section 3).

The client "acquires a reference to the CN API" and through it exercises
the six capabilities the paper lists:

1. Initialize CN API (using the factory)      -> :meth:`CNAPI.initialize`
2. Create Job in JobManager                   -> :meth:`CNAPI.create_job`
3. Create Tasks for the Job                   -> :meth:`CNAPI.create_task`
4. Start the Tasks                            -> :meth:`CNAPI.start_task` / :meth:`start_job`
5. Get Messages from Tasks                    -> :meth:`CNAPI.get_message`
6. Send Messages to Tasks                     -> :meth:`CNAPI.send_message`

Job creation multicasts a solicitation; willing JobManagers respond and
one is selected by the user-specified requirements (most free job slots,
then most local free memory, then name for determinism).
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from .cluster import Cluster
from .durability import JobDirectory
from .errors import JobTimeoutError, NoWillingJobManager, ShutdownError
from .job import Job, TaskSpec
from .jobmanager import JobManager
from .messages import Message, MessageType
from .multicast import Solicitation

__all__ = ["CNAPI", "JobHandle"]

#: wall seconds per condition-variable poll when a virtual clock drives
#: timeouts (virtual time advances on tick, not while we sleep)
_VIRTUAL_WAIT_SLICE = 0.05


class JobHandle:
    """A client's grip on one job: the Job plus its managing JobManager.

    Resolution goes through the cluster's :class:`JobDirectory` on every
    access: if a successor JobManager adopts the job after a manager
    failure, the handle transparently re-binds to the successor and its
    rebuilt Job -- client code never notices the failover.
    """

    def __init__(
        self,
        job: Job,
        manager: JobManager,
        directory: Optional[JobDirectory] = None,
    ) -> None:
        self._job = job
        self._manager = manager
        self._directory = directory
        self._job_id = job.job_id

    def _resolve(self) -> None:
        if self._directory is None:
            return
        entry = self._directory.lookup(self._job_id)
        if entry is not None:
            self._manager = entry.manager
            self._job = entry.job

    @property
    def job(self) -> Job:
        self._resolve()
        return self._job

    @property
    def manager(self) -> JobManager:
        self._resolve()
        return self._manager

    @property
    def job_id(self) -> str:
        return self._job_id

    def __repr__(self) -> str:
        return f"<JobHandle {self._job_id!r} via {self._manager.name!r}>"


class CNAPI:
    """The client-side facade over a CN cluster."""

    def __init__(self, cluster: Cluster) -> None:
        self._cluster = cluster

    # -- 1. factory -----------------------------------------------------------
    @classmethod
    def initialize(cls, cluster: Cluster) -> "CNAPI":
        """Acquire the CN API for *cluster* (started if necessary)."""
        cluster.start()
        return cls(cluster)

    @property
    def cluster(self) -> Cluster:
        return self._cluster

    # -- 2. job creation ---------------------------------------------------------
    def create_job(
        self,
        client_name: str,
        requirements: Optional[Mapping[str, Any]] = None,
        *,
        descriptor: Optional[str] = None,
        budget: Optional[float] = None,
    ) -> JobHandle:
        """Multicast for willing JobManagers, select one, create the job.

        *budget* is an end-to-end allowance in cluster-clock seconds: it
        becomes an absolute deadline (``clock.now() + budget``) stamped
        on every message the job routes, capping every task watchdog,
        and letting TaskManagers drop attempts whose budget is already
        spent instead of executing doomed work."""
        requirements = dict(requirements or {})
        offers = self._cluster.bus.solicit(
            Solicitation(kind="jobmanager", requirements=requirements, sender=client_name)
        )
        if not offers:
            raise NoWillingJobManager(
                f"no JobManager willing to manage a job for {client_name!r}"
            )
        prefer = requirements.get("prefer")
        if prefer is not None:
            preferred = [o for o in offers if o[0] == prefer]
            if preferred:
                offers = preferred
        offers.sort(
            key=lambda item: (
                -item[1]["free_job_slots"],
                -item[1]["local_free_memory"],
                item[0],
            )
        )
        node_name = offers[0][0]
        manager = self._cluster.server(node_name).jobmanager
        deadline = (
            None if budget is None else self._cluster.clock.now() + float(budget)
        )
        job = manager.create_job(
            client_name, descriptor=descriptor, deadline=deadline
        )
        job.notify(
            MessageType.JOB_CREATED,
            {"job_id": job.job_id, "manager": manager.name},
            sender=manager.name,
        )
        return JobHandle(job, manager, self._cluster.directory)

    # -- 3. task creation ----------------------------------------------------------
    def create_task(self, handle: JobHandle, spec: TaskSpec) -> None:
        """Place one task.  Under a running job, a task whose dependencies
        have all completed already starts at once; one without
        dependencies is a root and waits for :meth:`start_task`."""
        handle.manager.create_task(handle.job, spec)

    def create_tasks(self, handle: JobHandle, specs) -> None:
        """Create a batch of tasks in one call.  Under the bid scheduler
        tasks sharing a template are placed through a single
        rule/bid/award round instead of one solicitation each."""
        handle.manager.create_tasks(handle.job, list(specs))

    # -- 4. starting ------------------------------------------------------------------
    def start_task(self, handle: JobHandle, name: str) -> None:
        handle.manager.start_task(handle.job, name)

    def start_job(self, handle: JobHandle) -> None:
        """Start all dependency-free tasks; completions cascade the DAG."""
        handle.manager.start_job(handle.job)

    # -- 5. messages from tasks ----------------------------------------------------------
    def get_message(self, handle: JobHandle, timeout: Optional[float] = None) -> Message:
        while True:
            job = handle.job
            try:
                return job.client_queue.get(timeout)
            except ShutdownError:
                if handle.job is job:
                    raise  # genuinely shut down, not a failover re-bind

    def get_user_message(self, handle: JobHandle, timeout: Optional[float] = None) -> Message:
        while True:
            job = handle.job
            try:
                return job.client_queue.get_matching(Message.is_user, timeout)
            except ShutdownError:
                if handle.job is job:
                    raise

    # -- 6. messages to tasks -----------------------------------------------------------
    def send_message(self, handle: JobHandle, task_name: str, payload: Any) -> None:
        handle.job.route(Message.user("client", task_name, payload))

    # -- conveniences beyond the six -------------------------------------------------------
    def query_status(self, handle: JobHandle) -> dict[str, Any]:
        """QUERY_STATUS request: per-task state/placement + job summary.
        The matching STATUS message also lands on the client queue."""
        return handle.manager.query_status(handle.job)

    def wait(self, handle: JobHandle, timeout: Optional[float] = None) -> dict[str, Any]:
        """Block until the job finishes; returns task results.

        Blocks on the job's completion condition variable, so the waiter
        wakes the instant the last task turns terminal (formerly this
        polled in 0.2s slices -- see ``benchmarks`` PERF4 for the
        measured win).  A manager failover mid-wait wakes the waiter via
        :meth:`Job.mark_rebound`; the handle then re-resolves and the
        wait transparently continues on the successor's rebuilt Job.

        Deadline arithmetic goes through the cluster clock's
        :meth:`~repro.cn.chaos.VirtualClock.timeout_now`: wall-monotonic
        by default, virtual seconds when the cluster runs a clock built
        with ``drive_timeouts=True`` -- so virtual-time chaos tests
        control this timeout by ticking, with no hidden wall-time
        dependence.  In virtual mode the condition variable is polled in
        short wall slices (virtual time only advances on tick, so a
        plain timed wait would measure the wrong clock)."""
        clock = self._cluster.clock
        virtual = clock.drives_timeouts
        deadline = None if timeout is None else clock.timeout_now() + timeout
        while True:
            job = handle.job
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = deadline - clock.timeout_now()
                if remaining <= 0:
                    raise JobTimeoutError(job.job_id, timeout, job.states())
            wait_slice = remaining
            if virtual and remaining is not None:
                wait_slice = _VIRTUAL_WAIT_SLICE
            status = job.wait_or_rebind(wait_slice)
            if status == "finished":
                return job.wait(0)
            if status == "timeout":
                if virtual:
                    continue  # re-check the virtual deadline next pass
                raise JobTimeoutError(job.job_id, timeout, job.states())
            # rebound: loop re-resolves through the directory

    def cancel(self, handle: JobHandle) -> None:
        handle.manager.cancel_job(handle.job)

    def states(self, handle: JobHandle) -> dict[str, str]:
        return handle.job.states()
