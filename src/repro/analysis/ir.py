"""The JobGraph IR: one task-graph vocabulary for all three representations.

The pipeline carries a composition through three concrete forms -- the
UML activity model, its XMI export, and the CNX descriptor.  Analysis
passes should not care which one they were handed, so this module
extracts a common IR:

* :class:`TaskNode` -- one task with its dependency edges, resource
  configuration (kept both raw, for type diagnostics, and parsed),
  dynamic-invocation attributes and declared message endpoints,
* :class:`JobGraph` -- one job: a named DAG of task nodes plus the
  client-level ``after`` ordering,
* :class:`Composition` -- the whole client (class, port, jobs).

Every node remembers a :class:`~repro.analysis.diagnostics.SourceLocation`
into the document it came from, so diagnostics point at the originating
XMI/CNX element rather than at the IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.uml.tags import CNProfile, split_names
from repro.util import dag

from .diagnostics import SourceLocation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cnx.schema import CnxDocument
    from repro.core.uml.activity import ActivityGraph
    from repro.core.uml.model import Model

__all__ = [
    "TaskNode",
    "JobGraph",
    "Composition",
    "ClusterSpec",
    "from_cnx",
    "from_graph",
    "from_model",
    "from_xmi",
    "split_names",
]

#: wildcard endpoint in ``sends``/``receives`` declarations (broadcast /
#: receive-from-anyone)
ANY = "*"


#: TaskNode attribute holding each profile field's raw string, by tag
_RAW_ATTRS = {
    "jar": "jar",
    "class": "cls",
    "memory": "memory_raw",
    "runmodel": "runmodel",
    "retries": "retries_raw",
    "multiplicity": "multiplicity",
    "arguments": "arguments",
}


@dataclass
class TaskNode:
    """One task of a job, representation-independent."""

    name: str
    jar: str = ""
    cls: str = ""
    depends: list[str] = field(default_factory=list)
    # resource configuration: raw strings (as written in the source
    # document) plus the parsed value when the raw form is well-typed
    memory_raw: str = str(CNProfile.MEMORY.default)
    runmodel: str = CNProfile.RUNMODEL.default
    retries_raw: str = str(CNProfile.RETRIES.default)
    params: list[tuple[str, str]] = field(default_factory=list)
    param_problem: str = ""  # extraction-time ptype/pvalue pairing error
    # dynamic invocation (paper Fig. 5)
    dynamic: bool = False
    multiplicity: str = ""
    arguments: str = ""
    # declared message endpoints (CNX/tag extension; see MessageFlowPass)
    sends: list[str] = field(default_factory=list)
    receives: list[str] = field(default_factory=list)
    location: SourceLocation = field(default_factory=SourceLocation)

    def profile_problems(self) -> Iterator[tuple[str, str]]:
        """``(code, message)`` per CN-profile constraint this task's raw
        values violate (:meth:`CNProfile.problems`)."""
        raw = {tag: getattr(self, attr) for tag, attr in _RAW_ATTRS.items()}
        return CNProfile.problems(
            self.name, raw, dynamic=self.dynamic, param_problem=self.param_problem
        )

    @property
    def memory(self) -> Optional[int]:
        """Parsed memory requirement, or None when not an integer."""
        try:
            return int(self.memory_raw.strip())
        except (ValueError, AttributeError):
            return None

    @property
    def retries(self) -> Optional[int]:
        try:
            return int(self.retries_raw.strip())
        except (ValueError, AttributeError):
            return None


@dataclass
class JobGraph:
    """One job: a DAG of task nodes (the IR every pass walks)."""

    tasks: list[TaskNode] = field(default_factory=list)
    name: str = ""
    after: list[str] = field(default_factory=list)
    index: int = 0  # position within the composition
    location: SourceLocation = field(default_factory=SourceLocation)

    @property
    def label(self) -> str:
        """Human label matching the historical validator (`job[i]` for
        anonymous jobs)."""
        return self.name or f"job[{self.index}]"

    def task_names(self) -> list[str]:
        return [t.name for t in self.tasks]

    def find(self, name: str) -> Optional[TaskNode]:
        for task in self.tasks:
            if task.name == name:
                return task
        return None

    def dependents(self) -> dict[str, list[str]]:
        """Map task name -> names of tasks that depend on it."""
        result: dict[str, list[str]] = {t.name: [] for t in self.tasks}
        for task in self.tasks:
            for dep in task.depends:
                if dep in result:
                    result[dep].append(task.name)
        return result

    def cycle_member(self) -> Optional[str]:
        """The name of some task on a dependency cycle (restricted to
        resolvable edges), or None."""
        names = {t.name for t in self.tasks}
        witness = dag.cycle(
            {t.name: [d for d in t.depends if d in names] for t in self.tasks}
        )
        return witness[0] if witness else None


@dataclass
class Composition:
    """The whole client composition: what a descriptor describes."""

    client_cls: str = ""
    port: int = CNProfile.PORT.default
    log: str = ""
    jobs: list[JobGraph] = field(default_factory=list)
    source: str = ""  # "cnx" | "xmi" | "model"
    location: SourceLocation = field(default_factory=SourceLocation)

    def all_tasks(self) -> list[TaskNode]:
        return [t for job in self.jobs for t in job.tasks]


@dataclass(frozen=True)
class ClusterSpec:
    """The deployment target the placement pass checks feasibility
    against; the defaults are :class:`repro.cn.config.ClusterConfig`'s
    (``tests/cn/test_cluster_options.py`` holds the two equal)."""

    nodes: int = 4
    memory_per_node: int = 8000
    slots_per_node: int = 64

    @property
    def total_memory(self) -> int:
        return self.nodes * self.memory_per_node

    @property
    def total_slots(self) -> int:
        return self.nodes * self.slots_per_node


# ---------------------------------------------------------------------------
# Extraction: CNX descriptor -> IR
# ---------------------------------------------------------------------------

def from_cnx(doc: "CnxDocument") -> Composition:
    """Extract the IR from a parsed CNX document."""
    comp = Composition(
        client_cls=doc.client.cls,
        port=doc.client.port,
        log=doc.client.log,
        source="cnx",
        location=SourceLocation("cnx", "client"),
    )
    for j, job in enumerate(doc.client.jobs):
        job_path = f"client/job[{j + 1}]"
        graph = JobGraph(
            name=job.name,
            after=list(job.after),
            index=j,
            location=SourceLocation("cnx", job_path),
        )
        for task in job.tasks:
            graph.tasks.append(
                TaskNode(
                    name=task.name,
                    jar=task.jar,
                    cls=task.cls,
                    depends=list(task.depends),
                    memory_raw=str(task.task_req.memory),
                    runmodel=task.task_req.runmodel,
                    retries_raw=str(task.task_req.retries),
                    params=[(p.type, p.value) for p in task.params],
                    dynamic=task.dynamic,
                    multiplicity=task.multiplicity,
                    arguments=task.arguments,
                    sends=list(task.sends),
                    receives=list(task.receives),
                    location=SourceLocation(
                        "cnx", f"{job_path}/task[@name={task.name!r}]"
                    ),
                )
            )
        comp.jobs.append(graph)
    return comp


# ---------------------------------------------------------------------------
# Extraction: UML activity model -> IR
# ---------------------------------------------------------------------------

def _node_from_action(action, deps: dict[str, list[str]], path: str, source: str) -> TaskNode:
    raw, params, param_problem = CNProfile.read(action)
    return TaskNode(
        name=action.name,
        depends=list(deps.get(action.name, [])),
        params=params,
        param_problem=param_problem,
        dynamic=action.is_dynamic,
        sends=split_names(raw["sends"]),
        receives=split_names(raw["receives"]),
        location=SourceLocation(source, path),
        **{attr: raw[tag] for tag, attr in _RAW_ATTRS.items()},
    )


def from_graph(graph: "ActivityGraph", *, source: str = "model") -> Composition:
    """Extract the IR from a single activity graph (one-job client)."""
    comp = Composition(
        client_cls=graph.name,
        source=source,
        location=SourceLocation(source, f"ActivityGraph[@name={graph.name!r}]"),
    )
    comp.jobs.append(_job_from_graph(graph, 0, source))
    return comp


def _job_from_graph(graph: "ActivityGraph", index: int, source: str) -> JobGraph:
    deps = graph.action_dependencies()
    graph_path = f"UML:ActivityGraph[@name={graph.name!r}]"
    job = JobGraph(
        index=index,
        location=SourceLocation(source, graph_path),
    )
    for action in graph.action_states():
        path = f"{graph_path}/UML:ActionState[@name={action.name!r}]"
        job.tasks.append(_node_from_action(action, deps, path, source))
    return job


def from_model(model: "Model", *, source: str = "model") -> Composition:
    """Extract the IR from a whole UML model (multi-job client; job
    ordering comes from the packages' ``job_order`` relations)."""
    graphs = model.all_graphs()
    comp = Composition(
        client_cls=graphs[0].name if graphs else model.name,
        source=source,
        location=SourceLocation(source, f"UML:Model[@name={model.name!r}]"),
    )
    after = model.job_after()
    for i, graph in enumerate(graphs):
        job = _job_from_graph(graph, i, source)
        if graph.name in after:
            job.name = graph.name
            job.after = list(after[graph.name])
        comp.jobs.append(job)
    return comp


def from_xmi(xmi_text: str) -> Composition:
    """Extract the IR from an XMI document (via the XMI reader)."""
    from repro.core.xmi.reader import read_model

    return from_model(read_model(xmi_text), source="xmi")
