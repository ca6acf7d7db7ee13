"""The analysis passes ("cnlint") and the driver that runs them.

Each pass walks the :class:`~repro.analysis.ir.Composition` IR and emits
:class:`~repro.analysis.diagnostics.Diagnostic` records with stable
``CNxxx`` codes:

======  ====================================================================
code    finding
======  ====================================================================
CN001   UML activity diagram not well-formed (shape, reachability, arity)
CN101   duplicate task name within a job
CN102   ``depends`` references an unknown task
CN103   task depends on itself (the paper's Fig. 2 erratum)
CN104   dependency cycle among tasks
CN105   orphan task (disconnected from an otherwise wired job)
CN201   task has no archive (jar) reference
CN202   task has no entry class
CN203   memory requirement not a positive integer
CN204   unknown runmodel
CN205   retries not a non-negative integer
CN206   parameter value does not parse as its declared type
CN207   client port out of range
CN208   client has empty class name
CN209   unrecognized parameter type (warning; treated as String)
CN210   broken ptype/pvalue tagged-value pairing
CN301   dynamic task lacks a multiplicity
CN302   static task carries dynamic attributes
CN303   malformed multiplicity specification
CN304   impossible multiplicity bounds (lower > upper)
CN305   dynamic argument expression outside the arguments grammar
CN401   splitter fan-out / joiner fan-in mismatch (warning)
CN501   declared message is never received (warning)
CN502   task waits for a message that is never sent
CN503   message endpoint references an unknown task
CN504   message deadlock: cyclic wait among tasks
CN505   task waits for a message from a downstream task
CN601   more tasks than the cluster's TaskManagers can host
CN602   aggregate memory demand exceeds cluster capacity
CN603   single task exceeds every TaskManager's memory
CN701   duplicate job name
CN702   job ordered after an unknown job
CN703   job ordered after itself
CN704   cyclic job ordering
CN705   unnamed job carries an ``after`` ordering
CN801   archive/class reference unresolvable against the task registry
======  ====================================================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.core.uml.tags import CNProfile
from repro.core.uml.validate import collect_diagram_problems
from repro.util import dag

from .diagnostics import Diagnostic, Report, Severity, SourceLocation
from .ir import (
    ANY,
    ClusterSpec,
    Composition,
    JobGraph,
    TaskNode,
    from_cnx,
    from_model,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.cnx.schema import CnxDocument
    from repro.core.uml.model import Model

__all__ = [
    "CODES",
    "AnalysisContext",
    "AnalysisPass",
    "default_passes",
    "analyze",
    "analyze_cnx",
    "analyze_model",
    "analyze_source",
    "parse_multiplicity",
    "SAFE_BUILTINS",
    "argument_problem",
]

#: code -> one-line description (the table above, machine-readable)
CODES: dict[str, str] = {
    "CN001": "UML activity graph not well-formed",
    "CN101": "duplicate task name within a job",
    "CN102": "depends references an unknown task",
    "CN103": "task depends on itself (Fig. 2 erratum)",
    "CN104": "dependency cycle among tasks",
    "CN105": "orphan task disconnected from the job",
    "CN201": "task has no archive (jar) reference",
    "CN202": "task has no entry class",
    "CN203": "memory requirement not a positive integer",
    "CN204": "unknown runmodel",
    "CN205": "retries not a non-negative integer",
    "CN206": "parameter value does not parse as its declared type",
    "CN207": "client port out of range",
    "CN208": "client has empty class name",
    "CN209": "unrecognized parameter type",
    "CN210": "broken ptype/pvalue tagged-value pairing",
    "CN301": "dynamic task lacks a multiplicity",
    "CN302": "static task carries dynamic attributes",
    "CN303": "malformed multiplicity specification",
    "CN304": "impossible multiplicity bounds",
    "CN305": "dynamic argument expression outside the arguments grammar",
    "CN401": "splitter fan-out / joiner fan-in mismatch",
    "CN501": "declared message is never received",
    "CN502": "task waits for a message that is never sent",
    "CN503": "message endpoint references an unknown task",
    "CN504": "message deadlock: cyclic wait among tasks",
    "CN505": "task waits for a message from a downstream task",
    "CN601": "more tasks than the cluster's TaskManagers can host",
    "CN602": "aggregate memory demand exceeds cluster capacity",
    "CN603": "single task exceeds every TaskManager's memory",
    "CN701": "duplicate job name",
    "CN702": "job ordered after an unknown job",
    "CN703": "job ordered after itself",
    "CN704": "cyclic job ordering",
    "CN705": "unnamed job carries an 'after' ordering",
    "CN801": "archive/class reference unresolvable against the registry",
}


@dataclass
class AnalysisContext:
    """Optional environment the context-sensitive passes check against.

    ``cluster`` enables the placement-feasibility pass; ``task_resolver``
    (e.g. a bound :meth:`repro.cn.registry.TaskRegistry.resolve` wrapped
    to return a bool) enables the archive-reference pass."""

    cluster: Optional[ClusterSpec] = None
    task_resolver: Optional[Callable[[str, str], bool]] = None

    @classmethod
    def for_cluster(cls, cluster) -> "AnalysisContext":
        """The context of a live :class:`repro.cn.cluster.Cluster`: its
        configured shape for the placement pass, its task registry for
        the archive pass."""
        config = cluster.config

        def resolves(jar: str, entry_class: str) -> bool:
            try:
                config.registry.resolve(jar, entry_class)
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- resolution executes arbitrary archive code; any failure means unresolvable
                return False
            return True

        return cls(
            cluster=ClusterSpec(
                config.nodes, config.memory_per_node, config.slots_per_node
            ),
            task_resolver=resolves,
        )


class AnalysisPass:
    """Base class: one focused battery of checks over the IR."""

    name: str = "base"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(
        self,
        code: str,
        severity: Severity,
        message: str,
        location: SourceLocation,
        hint: str = "",
    ) -> Diagnostic:
        return Diagnostic(code, severity, message, location, hint, self.name)

    def error(self, code: str, message: str, location: SourceLocation, hint: str = "") -> Diagnostic:
        return self.diag(code, Severity.ERROR, message, location, hint)

    def warning(self, code: str, message: str, location: SourceLocation, hint: str = "") -> Diagnostic:
        return self.diag(code, Severity.WARNING, message, location, hint)


# ---------------------------------------------------------------------------
# CN1xx -- dependency-graph structure
# ---------------------------------------------------------------------------

class StructurePass(AnalysisPass):
    """Duplicate ids, dangling/self dependencies, cycles, orphans."""

    name = "structure"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for job in comp.jobs:
            label = job.label
            names = job.task_names()
            seen: set[str] = set()
            for task in job.tasks:
                if task.name in seen:
                    yield self.error(
                        "CN101",
                        f"{label}: duplicate task name {task.name!r}",
                        task.location,
                        "rename one of the tasks; task names identify DAG nodes",
                    )
                seen.add(task.name)
            known = set(names)
            for task in job.tasks:
                for dep in task.depends:
                    if dep == task.name:
                        yield self.error(
                            "CN103",
                            f"{label}: task {task.name!r} depends on itself",
                            task.location,
                            self._self_dep_hint(job, task),
                        )
                    elif dep not in known:
                        yield self.error(
                            "CN102",
                            f"{label}: task {task.name!r} depends on unknown task {dep!r}",
                            task.location,
                            f"declare a task named {dep!r} or fix the reference",
                        )
            cycle_task = job.cycle_member() if self._cycle_checkable(job) else None
            if cycle_task is not None:
                yield self.error(
                    "CN104",
                    f"{label}: dependency cycle through task {cycle_task!r}",
                    job.location,
                    "a CN job is a DAG; break the cycle so every task can start",
                )
            yield from self._orphans(job)

    @staticmethod
    def _cycle_checkable(job: JobGraph) -> bool:
        """Cycle detection over resolvable, non-self edges only (self and
        dangling edges already have their own diagnostics)."""
        known = {t.name for t in job.tasks}
        for task in job.tasks:
            task.depends = list(task.depends)  # defensive copy semantics
        return all(
            dep in known and dep != task.name
            for task in job.tasks
            for dep in task.depends
        )

    @staticmethod
    def _self_dep_hint(job: JobGraph, task: TaskNode) -> str:
        """Suggest the dependency the task's siblings use (the Fig. 2
        erratum: the paper lists tctask1 depends="tctask1" where every
        sibling worker depends on tctask0)."""
        sibling_deps = {
            dep
            for sibling in job.tasks
            if sibling.name != task.name
            and (sibling.jar, sibling.cls) == (task.jar, task.cls)
            for dep in sibling.depends
            if dep != sibling.name
        }
        if len(sibling_deps) == 1:
            intended = next(iter(sibling_deps))
            return (
                f'likely meant depends="{intended}" (the paper\'s Fig. 2 listing '
                "contains exactly this typo for tctask1)"
            )
        return "a task cannot wait for its own completion"

    def _orphans(self, job: JobGraph) -> Iterator[Diagnostic]:
        if len(job.tasks) < 2 or not any(t.depends for t in job.tasks):
            return  # single-task jobs and fully-independent batches are fine
        dependents = job.dependents()
        for task in job.tasks:
            if not task.depends and not dependents.get(task.name):
                yield self.error(
                    "CN105",
                    f"{job.label}: orphan task {task.name!r} is disconnected "
                    "from the rest of the job",
                    task.location,
                    "wire it into the DAG with depends= or remove it",
                )


# ---------------------------------------------------------------------------
# CN2xx -- configuration / tagged-value schema
# ---------------------------------------------------------------------------

#: fix hints for the findings :meth:`CNProfile.problems` reports
_PROFILE_HINTS = {
    "CN201": "every task names the archive that packages its class",
    "CN202": "name the Task-interface class inside the archive",
    "CN204": f"known: {', '.join(CNProfile.RUNMODEL.choices)}",
    "CN301": 'declare a range such as "0..*" (paper Fig. 5)',
}


class ConfigPass(AnalysisPass):
    """Client attributes, each task's CN-profile values, parameter typing."""

    name = "config"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        if not comp.client_cls:
            yield self.error(
                "CN208", "client has empty class name", comp.location,
                "set the client class attribute",
            )
        port = CNProfile.PORT
        if not (port.least <= comp.port <= port.most):
            yield self.error(
                port.code,
                f"client port {comp.port} out of range",
                comp.location,
                f"ports are {port.least}..{port.most}",
            )
        for job in comp.jobs:
            label = job.label
            for task in job.tasks:
                for code, message in task.profile_problems():
                    yield self.error(
                        code,
                        f"{label}: {message}",
                        task.location,
                        _PROFILE_HINTS.get(code, ""),
                    )
                yield from self._check_params(label, task)

    def _check_params(self, label: str, task: TaskNode) -> Iterator[Diagnostic]:
        for i, (ptype, value) in enumerate(task.params):
            if ptype not in CNProfile.PARAM_TYPES:
                yield self.warning(
                    "CN209",
                    f"{label}: task {task.name!r} param {i} has unrecognized "
                    f"type {ptype!r} (treated as String)",
                    task.location,
                    f"known types: {', '.join(sorted(CNProfile.PARAM_TYPES))}",
                )
            elif not _param_parses(ptype, value):
                yield self.error(
                    "CN206",
                    f"{label}: task {task.name!r} param {i} value {value!r} "
                    f"is not a valid {ptype}",
                    task.location,
                    "the generated client coerces params at start-up; "
                    "this one would crash or silently change value",
                )


def _param_parses(ptype: str, value: str) -> bool:
    """Whether *value* is a literal of the known type *ptype* (``coerce``
    reads any non-"true" bool as False: that is the silent change)."""
    if CNProfile.PARAM_TYPES[ptype] == "bool":
        return value.strip().lower() in ("true", "false")
    try:
        CNProfile.coerce(ptype, value)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# CN3xx -- dynamic invocation
# ---------------------------------------------------------------------------

_MULT_RE = re.compile(r"^(\*|\d+|\d+\.\.(\d+|\*))$")


def parse_multiplicity(spec: str) -> Optional[tuple[int, Optional[int]]]:
    """``(low, high)`` bounds of a multiplicity spec (high=None means
    unbounded); None when the spec is malformed."""
    spec = spec.strip()
    if not spec or spec == "*":
        return (0, None)
    if not _MULT_RE.match(spec):
        return None
    if ".." in spec:
        low_text, _, high_text = spec.partition("..")
        return (int(low_text), None if high_text == "*" else int(high_text))
    return (int(spec), int(spec))


#: all a dynamic task's ``arguments`` expression sees beside the run-time
#: arguments, and the only names it may call
SAFE_BUILTINS = {"range": range, "len": len, "min": min, "max": max, "list": list}

#: the rest of the arguments grammar: constants, names, displays,
#: comprehensions, arithmetic, comparison, boolean and conditional
#: expressions, subscripts -- no attribute, lambda or walrus
_ARGUMENT_NODES = (
    ast.Expression, ast.Constant, ast.Name, ast.Load, ast.Store, ast.Tuple, ast.List,
    ast.Set, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
    ast.comprehension, ast.BinOp, ast.operator, ast.UnaryOp, ast.unaryop, ast.Compare,
    ast.cmpop, ast.BoolOp, ast.boolop, ast.IfExp, ast.Subscript, ast.Slice, ast.Call,
)


def argument_problem(expression: str) -> str:
    """Why *expression* is not in the ``arguments`` grammar (``""`` when
    it is): what CN305 reports, and what
    :func:`repro.cn.client.evaluate_arguments` refuses before ``eval``."""
    try:
        tree = ast.parse(expression, "<arguments>", "eval")
    except (SyntaxError, ValueError) as exc:
        return f"is not valid Python: {getattr(exc, 'msg', exc)}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id.startswith("_"):
            what = f"the name {node.id!r}"
        elif isinstance(node, ast.Call) and not (
            isinstance(node.func, ast.Name) and node.func.id in SAFE_BUILTINS
        ):
            what = f"a call to other than {', '.join(SAFE_BUILTINS)}"
        elif not isinstance(node, _ARGUMENT_NODES):
            what = f"an {type(node).__name__} node"
        else:
            continue
        return f"is outside the arguments grammar: {what}"
    return ""


class DynamicsPass(AnalysisPass):
    """Multiplicity syntax and bounds, argument expressions (a dynamic
    task without a multiplicity is the profile's CN301, ConfigPass)."""

    name = "dynamics"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for job in comp.jobs:
            label = job.label
            for task in job.tasks:
                if not task.dynamic and (task.multiplicity or task.arguments):
                    yield self.error(
                        "CN302",
                        f"{label}: task {task.name!r} has dynamic attributes but "
                        "is not marked dynamic",
                        task.location,
                        'set dynamic="true" or drop multiplicity/arguments',
                    )
                if task.multiplicity:
                    bounds = parse_multiplicity(task.multiplicity)
                    if bounds is None:
                        yield self.error(
                            "CN303",
                            f"{label}: task {task.name!r} has malformed "
                            f"multiplicity {task.multiplicity!r}",
                            task.location,
                            'use "n", "n..m", "n..*" or "*"',
                        )
                    elif bounds[1] is not None and bounds[0] > bounds[1]:
                        yield self.error(
                            "CN304",
                            f"{label}: task {task.name!r} multiplicity "
                            f"{task.multiplicity!r} has lower bound above upper bound",
                            task.location,
                        )
                problem = task.dynamic and task.arguments and argument_problem(
                    task.arguments
                )
                if problem:
                    yield self.error(
                        "CN305",
                        f"{label}: dynamic task {task.name!r} argument "
                        f"expression {task.arguments!r} {problem}",
                        task.location,
                        "the expression is evaluated at run time to yield "
                        "one argument list per invocation",
                    )


# ---------------------------------------------------------------------------
# CN4xx -- concurrency shape
# ---------------------------------------------------------------------------

class FanShapePass(AnalysisPass):
    """Splitter fan-out vs joiner fan-in (warning: a branch that bypasses
    the join is usually a forgotten transition, not a design)."""

    name = "fan-shape"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for job in comp.jobs:
            dependents = job.dependents()
            # the first task of each name, as ``job.find`` gives it
            named = {task.name: task for task in reversed(job.tasks)}
            for joiner in job.tasks:
                branch_names = [d for d in joiner.depends if d in named]
                if len(branch_names) < 2:
                    continue
                splitters = {tuple(named[d].depends) for d in branch_names}
                if len(splitters) != 1:
                    continue
                common = next(iter(splitters))
                if len(common) != 1:
                    continue
                splitter = common[0]
                fan_out = [
                    d for d in dependents.get(splitter, []) if d != joiner.name
                ]
                missing = sorted(set(fan_out) - set(branch_names))
                if missing:
                    yield self.warning(
                        "CN401",
                        f"{job.label}: joiner {joiner.name!r} joins "
                        f"{len(branch_names)} of splitter {splitter!r}'s "
                        f"{len(fan_out)} branches (missing: {', '.join(missing)})",
                        joiner.location,
                        "either add the missing branches to depends= or they "
                        "will run outside the fan-in barrier",
                    )


# ---------------------------------------------------------------------------
# CN5xx -- message-flow deadlock
# ---------------------------------------------------------------------------

class MessageFlowPass(AnalysisPass):
    """Pairs declared ``sends``/``receives`` endpoints across tasks.

    Declarations are a protocol contract: ``receives="a"`` means the task
    blocks for a message from ``a`` before finishing, ``sends="b"`` means
    it delivers one to ``b`` while running.  The pass flags endpoints
    naming unknown tasks (CN503), receives with no matching send (CN502,
    a guaranteed hang), sends with no matching receive (CN501, a dropped
    message -- warning), cyclic waits (CN504, the classic
    receive-before-send deadlock) and receives from a task that only
    starts after the receiver completes (CN505)."""

    name = "message-flow"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        for job in comp.jobs:
            if not any(t.sends or t.receives for t in job.tasks):
                continue
            yield from self._check_job(job)

    def _check_job(self, job: JobGraph) -> Iterator[Diagnostic]:
        label = job.label
        known = {t.name for t in job.tasks}
        by_name = {t.name: t for t in job.tasks}

        # CN503: endpoints must exist
        for task in job.tasks:
            for kind, endpoints in (("sends", task.sends), ("receives", task.receives)):
                for endpoint in endpoints:
                    if endpoint in (ANY, "client"):
                        continue
                    if endpoint not in known:
                        yield self.error(
                            "CN503",
                            f"{label}: task {task.name!r} {kind} messages "
                            f"{'to' if kind == 'sends' else 'from'} unknown "
                            f"task {endpoint!r}",
                            task.location,
                        )

        # CN502 / CN501: every declared receive needs a matching send and
        # vice versa (wildcards match anything)
        for task in job.tasks:
            for src in task.receives:
                if src in (ANY, "client") or src not in known:
                    continue
                sender = by_name[src]
                if task.name not in sender.sends and ANY not in sender.sends:
                    yield self.error(
                        "CN502",
                        f"{label}: task {task.name!r} waits for a message from "
                        f"{src!r} that is never sent",
                        task.location,
                        f"declare sends=\"{task.name}\" on {src!r} or drop the "
                        "receive; an unmatched receive hangs the task thread",
                    )
            for dst in task.sends:
                if dst in (ANY, "client") or dst not in known:
                    continue
                receiver = by_name[dst]
                if (
                    receiver.receives
                    and task.name not in receiver.receives
                    and ANY not in receiver.receives
                ):
                    yield self.warning(
                        "CN501",
                        f"{label}: message from {task.name!r} to {dst!r} is "
                        f"never received ({dst!r} receives only from "
                        f"{', '.join(repr(r) for r in receiver.receives)})",
                        task.location,
                    )

        # CN504: cyclic wait.  Edge T -> S when T blocks on a message
        # from S; S's own sends happen only after S's receives complete.
        waits = {
            t.name: [s for s in t.receives if s in known and s != t.name]
            for t in job.tasks
        }
        cycle = dag.cycle(waits)
        if cycle:
            yield self.error(
                "CN504",
                f"{label}: message deadlock: cyclic wait among "
                f"{' -> '.join(cycle)}",
                by_name[cycle[0]].location,
                "every task in the cycle blocks on a receive before its own "
                "send; reorder the protocol or drop one receive",
            )

        # CN505: receive from a task that cannot start until the receiver
        # completes (the dependency relation already orders them; a task
        # on or ahead of a dependency cycle orders nothing, so none is
        # claimed for it).
        downstream = dag.descendants(job.dependents())
        for task in job.tasks:
            for src in task.receives:
                if src in known and src in downstream.get(task.name, set()):
                    yield self.error(
                        "CN505",
                        f"{label}: task {task.name!r} waits for a message from "
                        f"{src!r}, but {src!r} only starts after {task.name!r} "
                        "completes",
                        task.location,
                        "dependency-driven starts make this receive unreachable",
                    )


# ---------------------------------------------------------------------------
# CN6xx -- placement feasibility
# ---------------------------------------------------------------------------

class PlacementPass(AnalysisPass):
    """Checks the composition against a cluster spec: CN places every
    task of a job up-front, so the whole job must fit the willing
    TaskManagers.  Dynamic tasks count with their guaranteed lower
    bound.  Runs only when the context supplies a cluster."""

    name = "placement"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        spec = ctx.cluster
        if spec is None:
            return
        for job in comp.jobs:
            label = job.label
            count = 0
            demand = 0
            for task in job.tasks:
                instances = 1
                if task.dynamic:
                    bounds = parse_multiplicity(task.multiplicity)
                    instances = bounds[0] if bounds else 0
                count += instances
                memory = task.memory
                if memory is None or memory <= 0:
                    continue  # CN203's problem
                demand += instances * memory
                if memory > spec.memory_per_node:
                    yield self.error(
                        "CN603",
                        f"{label}: task {task.name!r} needs {memory} memory but "
                        f"no TaskManager offers more than {spec.memory_per_node}",
                        task.location,
                        "no solicitation can succeed; shrink the task or grow "
                        "the nodes",
                    )
            if count > spec.total_slots:
                yield self.error(
                    "CN601",
                    f"{label}: {count} tasks exceed the cluster's "
                    f"{spec.total_slots} task slots ({spec.nodes} TaskManager(s) "
                    f"x {spec.slots_per_node})",
                    job.location,
                    "CN places a whole job before starting it",
                )
            if demand > spec.total_memory:
                yield self.error(
                    "CN602",
                    f"{label}: tasks demand {demand} memory but the cluster "
                    f"offers {spec.total_memory}",
                    job.location,
                )


# ---------------------------------------------------------------------------
# CN7xx -- client-level job ordering
# ---------------------------------------------------------------------------

class OrderingPass(AnalysisPass):
    """The client-level partial order over jobs (paper section 4)."""

    name = "ordering"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        problems = False
        names = [j.name for j in comp.jobs if j.name]
        for dup in sorted({n for n in names if names.count(n) > 1}):
            problems = True
            yield self.error(
                "CN701", f"duplicate job name {dup!r}", comp.location
            )
        known = set(names)
        for job in comp.jobs:
            for prerequisite in job.after:
                if prerequisite not in known:
                    problems = True
                    yield self.error(
                        "CN702",
                        f"job {job.name or '<unnamed>'} is after unknown job "
                        f"{prerequisite!r}",
                        job.location,
                    )
                if job.name and prerequisite == job.name:
                    problems = True
                    yield self.error(
                        "CN703", f"job {job.name!r} is after itself", job.location
                    )
            if job.after and not job.name:
                problems = True
                yield self.error(
                    "CN705",
                    "a job with 'after' ordering must be named",
                    job.location,
                )
        if not problems and any(j.after for j in comp.jobs):
            _, stuck = dag.batches({j.name: j.after for j in comp.jobs if j.name})
            if stuck:
                yield self.error(
                    "CN704",
                    f"cyclic job ordering among {sorted(stuck)}",
                    comp.location,
                    "the partial order must be acyclic for batches to form",
                )


# ---------------------------------------------------------------------------
# CN8xx -- archive references
# ---------------------------------------------------------------------------

class ArchivePass(AnalysisPass):
    """Resolve every (jar, class) reference against the task registry.
    Runs only when the context supplies a resolver."""

    name = "archive"

    def run(self, comp: Composition, ctx: AnalysisContext) -> Iterator[Diagnostic]:
        resolver = ctx.task_resolver
        if resolver is None:
            return
        for job in comp.jobs:
            for task in job.tasks:
                if not task.jar or not task.cls:
                    continue  # CN201/CN202 already flag these
                try:
                    resolvable = bool(resolver(task.jar, task.cls))
                except Exception:  # noqa: BLE001  # conclint: waive CC302 -- resolver probes arbitrary archive code; any failure means unresolvable
                    resolvable = False
                if not resolvable:
                    yield self.error(
                        "CN801",
                        f"{job.label}: task {task.name!r} references archive "
                        f"{task.jar!r} class {task.cls!r} which the registry "
                        "cannot resolve",
                        task.location,
                        "register the archive/class or fix the reference; "
                        "upload would fail at placement time",
                    )


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def default_passes() -> tuple[AnalysisPass, ...]:
    """The standard battery, in report order."""
    return (
        StructurePass(),
        ConfigPass(),
        DynamicsPass(),
        FanShapePass(),
        MessageFlowPass(),
        OrderingPass(),
        PlacementPass(),
        ArchivePass(),
    )


def analyze(
    comp: Composition,
    context: Optional[AnalysisContext] = None,
    passes: Optional[Iterable[AnalysisPass]] = None,
) -> Report:
    """Run *passes* (default: the full battery) over the IR."""
    ctx = context or AnalysisContext()
    report = Report()
    for analysis_pass in passes if passes is not None else default_passes():
        report.extend(analysis_pass.run(comp, ctx))
    return report


def analyze_cnx(
    doc: "CnxDocument", context: Optional[AnalysisContext] = None
) -> Report:
    """Analyze a parsed CNX document."""
    return analyze(from_cnx(doc), context)


def analyze_model(
    model: "Model", context: Optional[AnalysisContext] = None
) -> Report:
    """Analyze a UML model: what only the diagram can say (CN001) first,
    then the common IR battery -- which is where a tagged value that
    breaks the CN profile is reported, once, under its own code."""
    report = Report()
    for graph in model.all_graphs():
        location = SourceLocation("model", f"UML:ActivityGraph[@name={graph.name!r}]")
        report.extend(
            Diagnostic(
                "CN001", Severity.ERROR, f"{graph.name}: {problem}", location,
                pass_name="model",
            )
            for problem in collect_diagram_problems(graph)
        )
    report.extend(analyze(from_model(model), context))
    return report


def analyze_source(text: str, context: Optional[AnalysisContext] = None) -> Report:
    """Analyze raw XML text, sniffing XMI vs CNX by the root element.

    Raises :class:`ValueError` subclasses on documents that do not parse
    at all (callers turn those into CN000-style failures)."""
    import xml.etree.ElementTree as ET

    from repro.core.cnx.parser import parse as parse_cnx_text
    from repro.core.xmi.reader import read_model
    from repro.util.xmlutil import parse_prefixed

    try:
        root = parse_prefixed(text)
    except ET.ParseError as exc:  # ParseError subclasses SyntaxError
        raise ValueError(f"not well-formed XML: {exc}") from exc
    if root.tag == "XMI":
        return analyze_model(read_model(root), context)
    if root.tag == "cn2":
        return analyze_cnx(parse_cnx_text(text), context)
    raise ValueError(
        f"unrecognized document root <{root.tag}> (expected <XMI> or <cn2>)"
    )
