"""CNX -> client program generation (paper section 5, step 4).

The paper's ``CNX2Java`` turns a CNX client descriptor into compilable
Java gluing the tasks together through the CN API.  Here:

* :func:`cnx_to_python` generates a **runnable Python client** against
  :mod:`repro.cn` -- the jobs in the order ``after`` gives them,
  explicit ``create_task`` calls with literal :class:`TaskSpec` values
  for static tasks, and a :func:`~repro.cn.client.submit_job` call for a
  job with dynamic-invocation tasks.  :class:`GeneratedClient` compiles
  and runs the generated source (the pipeline's deploy/execute steps) and
  is the one executor of a descriptor.
* :func:`cnx_to_java` generates Java source text structurally matching
  what CNX2Java produced.  With no JVM offline it is validated
  structurally, not compiled (substitution recorded in DESIGN.md).

Generated Python is deliberately plain, flat, and comment-annotated: it
is meant to be read by the user who modeled the diagram, exactly like
the generated Java clients were.
"""

from __future__ import annotations

import io
import re
from dataclasses import fields
from typing import Any, Mapping, Optional

from ..cnx.schema import CnxDocument, CnxJob, CnxTask
from ..uml.tags import CNProfile

__all__ = ["cnx_to_python", "cnx_to_java", "GeneratedClient"]


def _spec_literal(task: CnxTask) -> str:
    """*task*, a static one, as a ``TaskSpec(...)`` expression."""
    depends = ", ".join(repr(d) for d in task.depends)
    if len(task.depends) == 1:
        depends += ","
    params = ", ".join(repr(v) for v in task.param_values())
    if len(task.params) == 1:
        params += ","
    retries = (
        f", max_retries={task.task_req.retries}" if task.task_req.retries else ""
    )
    return (
        f"TaskSpec(name={task.name!r}, jar={task.jar!r}, cls={task.cls!r}, "
        f"depends=({depends}), memory={task.task_req.memory}, "
        f"runmodel=RunModel.{task.task_req.runmodel}, params=({params})"
        f"{retries})"
    )


def _task_literal(task: CnxTask) -> str:
    """*task* as a ``CnxTask(...)`` expression naming what differs from
    the defaults."""
    default = CnxTask(task.name, task.jar, task.cls)
    return "CnxTask(" + ", ".join(
        f"{f.name}={getattr(task, f.name)!r}"
        for f in fields(CnxTask)
        if f.name in ("name", "jar", "cls")
        or getattr(task, f.name) != getattr(default, f.name)
    ) + ")"


def _docstring_text(value: Any) -> str:
    """*value* as it may stand inside the module docstring."""
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def cnx_to_python(doc: CnxDocument) -> str:
    """Generate the Python client program for *doc*.

    What is known at transform time is stated literally: the order of
    the jobs (the batches of the ``after`` partial order -- a batch's jobs
    are all created, then started, then waited on) and each static task
    as one ``create_task`` call.  A job with dynamic tasks is stated as
    its CNX job and handed to :func:`repro.cn.client.submit_job`, which
    expands it at run time within the cluster's memory budget."""
    client = doc.client
    ordered = any(job.after for job in client.jobs)
    buf = io.StringIO()
    w = buf.write
    w('"""Client program generated by CNX2Py.\n\n')
    w(f"client class : {_docstring_text(client.cls)}\n")
    w(f"log file     : {_docstring_text(client.log)}\n")
    w(f"port         : {_docstring_text(client.port)}\n")
    w('"""\n\n')
    w("from repro.cn import CNAPI, RunModel, TaskSpec\n")
    if any(t.dynamic for t in client.all_tasks()):
        w("from repro.cn.client import submit_job\n")
        w("from repro.core.cnx import CnxJob, CnxParam, CnxTask, CnxTaskReq\n")
    w("\n\n")
    w("def run(cluster, runtime_args=None, timeout=60.0):\n")
    w('    """Execute the composed job(s) on *cluster*; returns one result\n')
    w('    dict per job (task name -> task result)."""\n')
    w("    api = CNAPI.initialize(cluster)\n")
    w("    runtime_args = dict(runtime_args or {})\n")
    w(f"    job_results = {f'[None] * {len(client.jobs)}' if ordered else '[]'}\n")
    for batch in client.job_batches():
        handles = [f"handle{index + 1}" if ordered else "handle" for index, _ in batch]
        for (index, job), handle in zip(batch, handles):
            _emit_job(w, client.cls, job, index + 1, handle)
        for handle in handles:
            w(f"    api.start_job({handle})\n")
        for (index, _), handle in zip(batch, handles):
            if ordered:
                w(f"    job_results[{index}] = api.wait({handle}, timeout)\n")
            else:
                w("    job_results.append(api.wait(handle, timeout))\n")
    w("    return job_results\n")
    w("\n\n")
    w('if __name__ == "__main__":\n')
    w("    from repro.cn import Cluster\n")
    w("    with Cluster(4) as cluster:\n")
    w("        for results in run(cluster):\n")
    w("            for task_name, result in sorted(results.items()):\n")
    w('            '
      '    print(f"{task_name}: {result!r}")\n')
    return buf.getvalue()


def _emit_job(w, client_cls: str, job: CnxJob, index: int, handle: str) -> None:
    after = f" (after {', '.join(job.after)})" if job.after else ""
    label = " ".join(f"{job.name or f'job{index}'}{after}".splitlines())
    w(f"\n    # --- {label} ---\n")
    if any(t.dynamic for t in job.tasks):
        w(f"    {handle} = submit_job(api, {client_cls!r}, CnxJob([\n")
        for task in job.tasks:
            w(f"        {_task_literal(task)},\n")
        w("    ]), runtime_args)\n")
        return
    total_memory = sum(t.task_req.memory for t in job.tasks)
    w(
        f"    {handle} = api.create_job({client_cls!r}, "
        f"requirements={{'tasks': {len(job.tasks)}, 'memory': {total_memory}}})\n"
    )
    for task in job.tasks:
        w(f"    api.create_task({handle}, {_spec_literal(task)})\n")


class GeneratedClient:
    """Compile and drive a generated client program.

    This performs the paper's steps 5-6: the program is "deployed"
    (compiled into a module namespace) and executed against a CN
    cluster.
    """

    def __init__(self, source: str, *, filename: str = "<generated-client>") -> None:
        self.source = source
        self.filename = filename
        self._namespace: dict[str, Any] = {"__name__": "cn_generated_client"}
        exec(compile(source, filename, "exec"), self._namespace)
        if "run" not in self._namespace:
            raise ValueError("generated client does not define run()")

    def run(
        self,
        cluster,
        runtime_args: Optional[Mapping[str, Any]] = None,
        timeout: float = 60.0,
    ) -> list[dict[str, Any]]:
        return self._namespace["run"](cluster, runtime_args, timeout)


# ---------------------------------------------------------------------------
# CNX2Java (structural fidelity target, not compiled offline -- no JVM)
# ---------------------------------------------------------------------------

_JAVA_RESERVED = frozenset(
    "_ abstract assert boolean break byte case catch char class const continue "
    "default do double else enum extends false final finally float for goto if "
    "implements import instanceof int interface long native new null package "
    "private protected public return short static strictfp super switch "
    "synchronized this throw throws transient true try void volatile while".split()
)


def _java_variables(jobs: list[CnxJob]) -> list[list[str]]:
    """One distinct Java variable per task, job by job (they share
    ``main``'s scope).  A task name that is already a free identifier
    keeps it; any other has its non-word characters replaced by ``_``, an
    ``_`` prefixed until it is an identifier, and a ``_2``, ``_3``...
    suffix while it collides."""
    taken = {"api", "args", *(f"job{i}" for i in range(1, len(jobs) + 1))}
    variables: list[list[str]] = [[""] * len(job.tasks) for job in jobs]
    slots = [
        (j, i, task.name)
        for j, job in enumerate(jobs)
        for i, task in enumerate(job.tasks)
    ]
    for j, i, name in slots:
        if _is_java_identifier(name) and name not in taken:
            variables[j][i] = name
            taken.add(name)
    for j, i, name in slots:
        if variables[j][i]:
            continue
        base = re.sub(r"\W", "_", name)
        while not _is_java_identifier(base):
            base = "_" + base
        var, n = base, 2
        while var in taken:
            var, n = f"{base}_{n}", n + 1
        variables[j][i] = var
        taken.add(var)
    return variables


def _is_java_identifier(name: str) -> bool:
    return re.fullmatch(r"[^\W\d]\w*", name) is not None and name not in _JAVA_RESERVED


def cnx_to_java(doc: CnxDocument) -> str:
    """Generate a Java client source file in the CNX2Java style: one job
    at a time, in the order ``after`` gives them."""
    client = doc.client
    buf = io.StringIO()
    w = buf.write
    w("// Generated by CNX2Java -- do not edit.\n")
    w("import org.jhpc.cn2.CNAPI;\n")
    w("import org.jhpc.cn2.Job;\n")
    w("import org.jhpc.cn2.Task;\n")
    w("import org.jhpc.cn2.TaskRequirements;\n\n")
    w(f"public class {client.cls} {{\n")
    w("    public static void main(String[] args) throws Exception {\n")
    q = CNProfile.java_string
    w(f"        CNAPI api = CNAPI.initialize({client.port}, {q(client.log)});\n")
    variables = _java_variables(client.jobs)
    for index, job in (pair for batch in client.job_batches() for pair in batch):
        job_var = f"job{index + 1}"
        w(f"        Job {job_var} = api.createJob({q(client.cls)});\n")
        for task, var in zip(job.tasks, variables[index]):
            w(
                f"        Task {var} = {job_var}.createTask("
                f"{q(task.name)}, {q(task.jar)}, {q(task.cls)});\n"
            )
            w(
                f"        {var}.setRequirements(new TaskRequirements("
                f"{task.task_req.memory}, {q(task.task_req.runmodel)}));\n"
            )
            for dep in task.depends:
                w(f"        {var}.dependsOn({q(dep)});\n")
            for param in task.params:
                literal = CNProfile.java_literal(param.type, param.value)
                w(f"        {var}.addParam({literal});\n")
            if task.dynamic:
                w(
                    f"        {var}.setDynamic({q(task.multiplicity)}, "
                    f"{q(task.arguments)});\n"
                )
        w(f"        {job_var}.start();\n")
        w(f"        {job_var}.join();\n")
    w("    }\n")
    w("}\n")
    return buf.getvalue()
