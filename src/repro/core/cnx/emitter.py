"""Serialize a CNX document model to XML matching paper Fig. 2.

Layout fidelity matters here: the Fig. 2 reproduction test compares the
emitted descriptor canonically against the listing in the paper, so the
element and attribute vocabulary (``cn2``/``client``/``job``/``task``/
``task-req``/``memory``/``runmodel``/``param``) and their order follow
the figure exactly.  Paper quirk kept as-is: worker tasks list
``<param>`` before ``<task-req>`` for tctask1..5 in the figure but after
for the splitter/joiner; we emit ``task-req`` first uniformly (canonical
comparison is order-insensitive for this, and uniformity is kinder to
consumers).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.util.xmlutil import pretty_print

from .schema import CnxDocument, CnxJob, CnxTask

__all__ = ["emit"]


def _to_element(doc: CnxDocument) -> ET.Element:
    """Build the ``<cn2>`` element tree for *doc*."""
    root = ET.Element("cn2")
    client = doc.client
    client_elem = ET.SubElement(
        root,
        "client",
        {
            "class": client.cls,
            "log": client.log,
            "port": str(client.port),
        },
    )
    for job in client.jobs:
        _emit_job(client_elem, job)
    return root


def _emit_job(parent: ET.Element, job: CnxJob) -> None:
    attrs = {"name": job.name} if job.name else {}
    if job.after:
        attrs["after"] = ",".join(job.after)
    job_elem = ET.SubElement(parent, "job", attrs)
    for task in job.tasks:
        _emit_task(job_elem, task)


def _emit_task(parent: ET.Element, task: CnxTask) -> None:
    attrs = {
        "name": task.name,
        "jar": task.jar,
        "class": task.cls,
        "depends": ",".join(task.depends),
    }
    if task.dynamic:
        attrs["dynamic"] = "true"
        if task.multiplicity:
            attrs["multiplicity"] = task.multiplicity
        if task.arguments:
            attrs["arguments"] = task.arguments
    # message-flow extension attributes; omitted when empty so Fig. 2
    # output stays byte-compatible with the paper
    if task.sends:
        attrs["sends"] = ",".join(task.sends)
    if task.receives:
        attrs["receives"] = ",".join(task.receives)
    task_elem = ET.SubElement(parent, "task", attrs)
    req = ET.SubElement(task_elem, "task-req")
    memory = ET.SubElement(req, "memory")
    memory.text = str(task.task_req.memory)
    runmodel = ET.SubElement(req, "runmodel")
    runmodel.text = task.task_req.runmodel
    if task.task_req.retries:
        # extension element; omitted at the default so Fig. 2 output is
        # byte-compatible with the paper
        retries = ET.SubElement(req, "retries")
        retries.text = str(task.task_req.retries)
    for param in task.params:
        param_elem = ET.SubElement(task_elem, "param", {"type": param.type})
        param_elem.text = param.value


def emit(doc: CnxDocument) -> str:
    """The CNX descriptor as a pretty-printed XML string."""
    return pretty_print(_to_element(doc))
