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

__all__ = ["cnx_to_python", "cnx_to_java", "cnx_to_python_xslt", "cnx_to_java_xslt", "GeneratedClient"]


def _ident(name: str) -> str:
    """A safe Python identifier fragment derived from a task name."""
    return re.sub(r"\W", "_", name)


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
# XSLT editions: the stylesheet-driven generators, the paper's literal
# architecture.  The pipeline runs the native generators; these are their
# test oracles (tests/transform/test_differential.py), nothing selects them.
# ---------------------------------------------------------------------------

def _run_codegen_stylesheet(name: str, doc: CnxDocument) -> str:
    from repro.xslt import Transformer

    from ..cnx.emitter import to_element
    from .xmi2cnx import load_stylesheet

    sheet = load_stylesheet(name)
    return Transformer(sheet).transform(to_element(doc))


def cnx_to_python_xslt(doc: CnxDocument) -> str:
    """Generate the Python client by running ``cnx2py.xsl`` on the in-repo
    XSLT engine.  Differential-tested against :func:`cnx_to_python` (both
    clients must compute identical results)."""
    return _run_codegen_stylesheet("cnx2py.xsl", doc)


def cnx_to_java_xslt(doc: CnxDocument) -> str:
    """Generate Java source by running ``cnx2java.xsl`` -- the literal
    architecture of the paper's CNX2Java component."""
    return _run_codegen_stylesheet("cnx2java.xsl", doc)


# ---------------------------------------------------------------------------
# CNX2Java (native generator; structural fidelity target, not compiled
# offline -- no JVM)
# ---------------------------------------------------------------------------

def cnx_to_java(doc: CnxDocument) -> str:
    """Generate a Java client source file in the CNX2Java style."""
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
    for index, job in enumerate(client.jobs, start=1):
        job_var = f"job{index}"
        w(f"        Job {job_var} = api.createJob({q(client.cls)});\n")
        for task in job.tasks:
            var = _ident(task.name)
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
