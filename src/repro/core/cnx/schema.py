"""CNX: the CN compositional language (paper Fig. 2).

CNX is an XML dialect that "captures the details of the client program"
(paper Fig. 1): a ``<cn2>`` root holding one ``<client>`` with its class
name, log file and port, containing one or more ``<job>`` elements, each
a list of ``<task>`` elements.  Every task names its archive (``jar``),
implementation ``class``, a comma-separated ``depends`` list, a
``<task-req>`` block (memory, runmodel) and ordered ``<param>``
children.

This module defines the document model as plain dataclasses.  The
``dynamic`` / ``multiplicity`` / ``arguments`` attributes are our
documented CNX extension carrying the paper's Fig. 5 dynamic-invocation
semantics through to the generated client (the paper notes the run-time
argument expression "would be specified separately"; CNX is where we
specify it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..uml.tags import CNProfile

__all__ = [
    "CnxParam",
    "CnxTaskReq",
    "CnxTask",
    "CnxJob",
    "CnxClient",
    "CnxDocument",
    "DEFAULT_RUNMODEL",
    "DEFAULT_MEMORY",
    "DEFAULT_PORT",
]

DEFAULT_RUNMODEL = CNProfile.RUNMODEL.default
DEFAULT_MEMORY = CNProfile.MEMORY.default
DEFAULT_PORT = CNProfile.PORT.default


@dataclass
class CnxParam:
    """One ``<param type="...">value</param>`` task constructor argument."""

    type: str
    value: str

    def python_value(self):
        """The parameter value coerced per its declared CNX type."""
        return CNProfile.coerce(self.type, self.value)


@dataclass
class CnxTaskReq:
    """The ``<task-req>`` resource requirements block.

    One attribute per ``task-req/...`` field of the CN profile, under the
    field's tag name.  ``retries`` is omitted from the descriptor at its
    default, which keeps Fig. 2 byte-compatible."""

    memory: int = DEFAULT_MEMORY
    runmodel: str = DEFAULT_RUNMODEL
    retries: int = CNProfile.RETRIES.default


@dataclass
class CnxTask:
    """One ``<task>``: a unit of work the CN framework schedules."""

    name: str
    jar: str
    cls: str
    depends: list[str] = field(default_factory=list)
    task_req: CnxTaskReq = field(default_factory=CnxTaskReq)
    params: list[CnxParam] = field(default_factory=list)
    # Fig. 5 extension: dynamic invocation
    dynamic: bool = False
    multiplicity: str = ""
    arguments: str = ""
    # message-flow extension: declared send/receive endpoints (comma
    # lists of task names, or "*").  Purely declarative -- the static
    # analyzer pairs them across tasks to prove the protocol free of
    # unmatched or cyclic waits before the job is placed.
    sends: list[str] = field(default_factory=list)
    receives: list[str] = field(default_factory=list)

    def param_values(self) -> list:
        return [p.python_value() for p in self.params]


@dataclass
class CnxJob:
    """One ``<job>``: a DAG of tasks executed as a unit.

    ``name``/``after`` carry the client-level partial order of paper
    section 4 ("a client consisting of more than one job ... performs the
    jobs in some partial order"): a job starts only after every job named
    in ``after`` has completed; jobs with no ordering between them may run
    concurrently.  Both are omitted for single-job clients, keeping Fig. 2
    output byte-compatible."""

    tasks: list[CnxTask] = field(default_factory=list)
    name: str = ""
    after: list[str] = field(default_factory=list)

    def find(self, task_name: str) -> CnxTask:
        for task in self.tasks:
            if task.name == task_name:
                return task
        raise KeyError(f"no task named {task_name!r}")

    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]

    def roots(self) -> list[CnxTask]:
        """Tasks with no dependencies (started first)."""
        return [t for t in self.tasks if not t.depends]

    def dependents_of(self, task_name: str) -> list[CnxTask]:
        return [t for t in self.tasks if task_name in t.depends]


@dataclass
class CnxClient:
    """The ``<client>``: one client program composed of jobs."""

    cls: str
    log: str = ""
    port: int = DEFAULT_PORT
    jobs: list[CnxJob] = field(default_factory=list)

    def all_tasks(self) -> Iterator[CnxTask]:
        for job in self.jobs:
            yield from job.tasks


@dataclass
class CnxDocument:
    """The ``<cn2>`` document root."""

    client: CnxClient

    @property
    def jobs(self) -> list[CnxJob]:
        return self.client.jobs
