"""CNX -> client program generation (paper section 5, step 4).

The paper's ``CNX2Java`` turns a CNX client descriptor into compilable
Java gluing the tasks together through the CN API.  Here:

* :func:`cnx_to_python` generates a **runnable Python client** against
  :mod:`repro.cn` -- explicit ``create_task`` calls with literal
  :class:`TaskSpec` values for static tasks and an expansion loop for
  dynamic-invocation tasks.  :class:`GeneratedClient` compiles and runs
  the generated source (the pipeline's deploy/execute steps).
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
from typing import Any, Mapping, Optional

from ..cnx.schema import CnxDocument, CnxJob, CnxTask
from ..uml.tags import CNProfile

__all__ = ["cnx_to_python", "cnx_to_java", "cnx_to_python_xslt", "cnx_to_java_xslt", "GeneratedClient"]


def _ident(name: str) -> str:
    """A safe Python identifier fragment derived from a task name."""
    return re.sub(r"\W", "_", name)


def _spec_literal(task: CnxTask, depends_expr: str, params_expr: str, name_expr: str) -> str:
    retries = (
        f", max_retries={task.task_req.retries}" if task.task_req.retries else ""
    )
    return (
        f"TaskSpec(name={name_expr}, jar={task.jar!r}, cls={task.cls!r}, "
        f"depends={depends_expr}, memory={task.task_req.memory}, "
        f"runmodel=RunModel.{task.task_req.runmodel}, params={params_expr}"
        f"{retries})"
    )


def _depends_expr(task: CnxTask, dynamic_names: set[str]) -> str:
    """The ``depends=`` expression; dependencies on a dynamic base name
    expand to the run-time list of instance names."""
    static = tuple(d for d in task.depends if d not in dynamic_names)
    dynamic = [d for d in task.depends if d in dynamic_names]
    parts: list[str] = []
    if static or not dynamic:
        literal = ", ".join(repr(d) for d in static)
        if len(static) == 1:
            literal += ","
        parts.append(f"({literal})")
    for dep in dynamic:
        parts.append(f"tuple(_names_{_ident(dep)})")
    return " + ".join(parts)


def cnx_to_python(doc: CnxDocument) -> str:
    """Generate the Python client program for *doc*."""
    client = doc.client
    buf = io.StringIO()
    w = buf.write
    w('"""Client program generated by CNX2Py.\n\n')
    w(f"client class : {client.cls}\n")
    w(f"log file     : {client.log}\n")
    w(f"port         : {client.port}\n")
    w('"""\n\n')
    w("from repro.cn import CNAPI, RunModel, TaskSpec\n")
    if any(t.dynamic for t in client.all_tasks()):
        w("from repro.cn.client import evaluate_arguments\n")
    w("\n\n")
    w("def run(cluster, runtime_args=None, timeout=60.0):\n")
    w('    """Execute the composed job(s) on *cluster*; returns one result\n')
    w('    dict per job (task name -> task result)."""\n')
    w("    api = CNAPI.initialize(cluster)\n")
    w("    runtime_args = dict(runtime_args or {})\n")
    w("    job_results = []\n")
    for index, job in enumerate(client.jobs, start=1):
        _emit_job(w, client.cls, job, index)
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


def _emit_job(w, client_cls: str, job: CnxJob, index: int) -> None:
    label = job.name or f"job{index}"
    dynamic_names = {t.name for t in job.tasks if t.dynamic}
    static_count = sum(1 for t in job.tasks if not t.dynamic)
    total_memory = sum(t.task_req.memory for t in job.tasks)
    w(f"\n    # --- {label} ---\n")
    w(
        f"    handle = api.create_job({client_cls!r}, "
        f"requirements={{'tasks': {static_count}, 'memory': {total_memory}}})\n"
    )
    for task in job.tasks:
        deps = _depends_expr(task, dynamic_names)
        if not task.dynamic:
            params = ", ".join(repr(v) for v in task.param_values())
            if len(task.params) == 1:
                params += ","
            w(
                f"    api.create_task(handle, "
                f"{_spec_literal(task, deps, f'({params})', repr(task.name))})\n"
            )
            continue
        base = _ident(task.name)
        w(f"    _names_{base} = []\n")
        w(
            f"    for _k, _args in enumerate(evaluate_arguments("
            f"{task.arguments!r}, runtime_args), start=1):\n"
        )
        w(f"        _name = {task.name!r} + str(_k)\n")
        w(f"        _names_{base}.append(_name)\n")
        w(
            f"        api.create_task(handle, "
            f"{_spec_literal(task, deps, 'tuple(_args)', '_name')})\n"
        )
    w("    api.start_job(handle)\n")
    w("    job_results.append(api.wait(handle, timeout))\n")


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
    w(f"        CNAPI api = CNAPI.initialize({client.port}, \"{client.log}\");\n")
    for index, job in enumerate(client.jobs, start=1):
        job_var = f"job{index}"
        w(f"        Job {job_var} = api.createJob(\"{client.cls}\");\n")
        for task in job.tasks:
            var = _ident(task.name)
            w(
                f"        Task {var} = {job_var}.createTask("
                f"\"{task.name}\", \"{task.jar}\", \"{task.cls}\");\n"
            )
            w(
                f"        {var}.setRequirements(new TaskRequirements("
                f"{task.task_req.memory}, \"{task.task_req.runmodel}\"));\n"
            )
            for dep in task.depends:
                w(f"        {var}.dependsOn(\"{dep}\");\n")
            for param in task.params:
                literal = CNProfile.java_literal(param.type, param.value)
                w(f"        {var}.addParam({literal});\n")
            if task.dynamic:
                w(
                    f"        {var}.setDynamic(\"{task.multiplicity}\", "
                    f"\"{task.arguments}\");\n"
                )
        w(f"        {job_var}.start();\n")
        w(f"        {job_var}.join();\n")
    w("    }\n")
    w("}\n")
    return buf.getvalue()
