"""What the generated client program calls at run time for a job with
dynamic-invocation tasks (paper Fig. 5): the one thing it cannot state
literally, because the number of instances is known only at run time.

Dynamic expansion: a dynamic task's ``arguments`` expression, once
cnlint's grammar admits it, is evaluated in a restricted namespace
containing the caller's ``runtime_args`` plus ``range``/``len``.  It must
yield an iterable of argument tuples -- one concrete task instance per
tuple, named ``<base><k>`` with k counting from 1.  Tasks that depended on
the dynamic base name are rewired to depend on every instance, and the
instances inherit the base's own dependencies, preserving the fork/join
shape of the diagram.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Mapping, Optional

from ..analysis.passes import SAFE_BUILTINS, argument_problem, parse_multiplicity
from ..core.cnx.schema import CnxJob, CnxTask
from .api import CNAPI, JobHandle
from .errors import JobError
from .job import TaskSpec
from .messages import MessageType

__all__ = ["submit_job", "expand_dynamic_tasks", "evaluate_arguments"]


def evaluate_arguments(expression: str, env: Mapping[str, Any]) -> list[tuple]:
    """Evaluate a dynamic-invocation argument expression.

    One outside cnlint's grammar (CN305's ``argument_problem``) is refused
    before ``eval``, for executors that skipped the check.  It sees the
    runtime arguments as names and no builtins beyond ``SAFE_BUILTINS``.
    Result must be an iterable of argument lists; scalars inside are
    wrapped into 1-tuples.
    """
    problem = argument_problem(expression)
    if problem:
        raise JobError(f"dynamic argument expression {expression!r} {problem}")
    namespace = dict(env)
    try:
        value = eval(expression, {"__builtins__": SAFE_BUILTINS}, namespace)
    except Exception as exc:  # noqa: BLE001  # conclint: waive CC302 -- user expression may fail any way; converted to JobError
        raise JobError(
            f"dynamic argument expression {expression!r} failed: {exc}"
        ) from exc
    result: list[tuple] = []
    try:
        for item in value:
            if isinstance(item, tuple):
                result.append(item)
            elif isinstance(item, list):
                result.append(tuple(item))
            else:
                result.append((item,))
    except TypeError:
        raise JobError(
            f"dynamic argument expression {expression!r} did not yield an "
            f"iterable (got {type(value).__name__})"
        ) from None
    return result


def expand_dynamic_tasks(
    job: CnxJob,
    runtime_args: Mapping[str, Any],
    *,
    memory_budget: Optional[int] = None,
    degradations: Optional[list] = None,
) -> list[TaskSpec]:
    """Concrete task specs for *job*, with dynamic tasks instantiated.

    Graceful degradation: when *memory_budget* is given (aggregate free
    memory across live nodes) and the fully-expanded job would not fit,
    dynamic tasks shed instances -- largest first, deterministically,
    never below the declared multiplicity lower bound or 1 -- until the
    job fits (or nothing more can shrink).  Each shrink is appended to
    *degradations* so the caller can surface JOB_DEGRADED events."""
    # name -> requested argument lists, for dynamic tasks
    requested: dict[str, list[tuple]] = {}
    for task in job.tasks:
        if task.dynamic:
            requested[task.name] = evaluate_arguments(
                task.arguments or "[]", runtime_args
            )
    granted = {name: len(args) for name, args in requested.items()}
    if memory_budget is not None and requested:
        memory_of = {t.name: t.task_req.memory for t in job.tasks}
        floor = {
            t.name: max(1, _multiplicity(t)[0]) for t in job.tasks if t.dynamic
        }
        static_memory = sum(
            memory_of[t.name] for t in job.tasks if not t.dynamic
        )

        def total() -> int:
            return static_memory + sum(
                granted[name] * memory_of[name] for name in granted
            )

        while total() > memory_budget:
            shrinkable = sorted(
                (name for name in granted if granted[name] > floor[name]),
                key=lambda name: (-granted[name], name),
            )
            if not shrinkable:
                break  # even the floor does not fit; placement will say so
            granted[shrinkable[0]] -= 1
        for name in sorted(granted):
            if granted[name] < len(requested[name]) and degradations is not None:
                degradations.append(
                    {
                        "task": name,
                        "requested": len(requested[name]),
                        "granted": granted[name],
                        "memory_budget": memory_budget,
                    }
                )
    # name -> its spec, or one per granted instance: what a dependency on
    # that name is rewired to
    instances: dict[str, list[TaskSpec]] = {}
    for task in job.tasks:
        base = TaskSpec.from_cnx(task)
        if not task.dynamic:
            instances[task.name] = [base]
            continue
        arglists = requested[task.name][: granted[task.name]]
        _check_multiplicity(task, len(arglists))
        instances[task.name] = [
            base.with_instance(k, args) for k, args in enumerate(arglists, start=1)
        ]
    return [
        replace(
            spec,
            depends=tuple(i.name for dep in task.depends for i in instances[dep]),
        )
        for task in job.tasks
        for spec in instances[task.name]
    ]


def submit_job(
    api: CNAPI, client_cls: str, job: CnxJob, runtime_args: Mapping[str, Any]
) -> JobHandle:
    """Create *job* with its dynamic tasks expanded against
    *runtime_args*; every spec goes to the cluster in one ``create_tasks``
    call, so under the bid scheduler a fan places through rule/bid/award
    rounds rather than one solicitation per instance.

    The expansion budget is the live nodes' free memory: a dynamic job
    on a cluster that lost nodes or memory runs narrower instead of not
    at all, and a JOB_DEGRADED notification records each shrink."""
    degradations: list = []
    specs = expand_dynamic_tasks(
        job,
        runtime_args,
        memory_budget=api.cluster.total_free_memory(),
        degradations=degradations,
    )
    handle = api.create_job(
        client_cls,
        requirements={"tasks": len(specs), "memory": sum(s.memory for s in specs)},
    )
    handle.job.notify(MessageType.JOB_DEGRADED, *degradations, sender=client_cls)
    api.create_tasks(handle, specs)
    return handle


def _multiplicity(task: CnxTask) -> tuple[int, Optional[int]]:
    """The declared ``(low, high)`` invocation bounds of a dynamic task."""
    bounds = parse_multiplicity(task.multiplicity)
    if bounds is None:
        raise JobError(
            f"dynamic task {task.name!r} has malformed multiplicity "
            f"{task.multiplicity!r}"
        )
    return bounds


def _check_multiplicity(task: CnxTask, count: int) -> None:
    """Enforce the declared multiplicity range (``0..*``, ``1..*``, ``n``)."""
    low, high = _multiplicity(task)
    if count < low or (high is not None and count > high):
        raise JobError(
            f"dynamic task {task.name!r}: {count} invocation(s) violates "
            f"multiplicity {task.multiplicity.strip()!r}"
        )
