#!/usr/bin/env python3
"""A client composed of several jobs in a partial order (paper section 4).

"Finally, a client consisting of more than one job is represented as an
activity that performs the jobs in some partial order (allowing for a
mix between sequential and concurrent execution)."

This example models a small analysis workflow as four jobs:

    prepare  →  analyzeA ┐
             →  analyzeB ┴→  report

The ordering is declared on the UML package (``order_jobs``), exported
to XMI as ``UML:Dependency`` elements, carried by the XMI2CNX stylesheet
into CNX ``name``/``after`` job attributes, and honored by the generated
client: analyzeA and analyzeB run concurrently, between prepare and
report.  The example exits non-zero when the timeline says otherwise.

Run:  python examples/multi_job_client.py
"""

import sys
import threading
import time

from repro.cn import Cluster, Task, TaskRegistry
from repro.core.transform.pipeline import Pipeline
from repro.core.uml import ActivityBuilder, Model

_events: list[tuple[float, str, str]] = []
_lock = threading.Lock()


class Stage(Task):
    """Logs its lifespan so the overlap is visible."""

    def __init__(self, label: str = "") -> None:
        self.label = label

    def run(self, ctx):
        with _lock:
            _events.append((time.perf_counter(), "start", self.label))
        time.sleep(0.15)  # simulated work
        with _lock:
            _events.append((time.perf_counter(), "end", self.label))
        return self.label


def job(name: str) -> "ActivityBuilder":
    b = ActivityBuilder(name)
    t = b.task(
        f"{name}-work", jar="stage.jar", cls="demo.Stage",
        params=[("String", name)],
    )
    b.chain(b.initial(), t, b.final())
    return b.build()


def main() -> int:
    model = Model("Workflow")
    pkg = model.new_package("client")
    for name in ("prepare", "analyzeA", "analyzeB", "report"):
        pkg.add_graph(job(name))
    pkg.order_jobs("prepare", "analyzeA")
    pkg.order_jobs("prepare", "analyzeB")
    pkg.order_jobs("analyzeA", "report")
    pkg.order_jobs("analyzeB", "report")

    registry = TaskRegistry()
    registry.register_class("stage.jar", "demo.Stage", Stage)

    with Cluster(4, registry=registry) as cluster:
        outcome = Pipeline().run(model, cluster, timeout=60)
    print("generated job elements:")
    for line in outcome.cnx_text.splitlines():
        if "<job" in line:
            print(" ", line.strip())
    print()

    base = min(t for t, _, _ in _events)
    print("timeline (seconds from client start):")
    for stamp, kind, label in sorted(_events):
        print(f"  {stamp - base:6.3f}  {kind:<5}  {label}")
    at = {(kind, label): stamp for stamp, kind, label in _events}
    prepared_first = at["end", "prepare"] < min(
        at["start", "analyzeA"], at["start", "analyzeB"]
    )
    overlapped = max(at["start", "analyzeA"], at["start", "analyzeB"]) < min(
        at["end", "analyzeA"], at["end", "analyzeB"]
    )
    reported_last = at["start", "report"] == max(
        stamp for stamp, kind, _ in _events if kind == "start"
    )
    print(f"\nprepare ended before either analyze job started: {prepared_first}")
    print(f"analyzeA/analyzeB overlapped: {overlapped}")
    print(f"report started last: {reported_last}")
    print(f"jobs completed: {len(outcome.job_results)}")
    return 0 if prepared_first and overlapped and reported_last else 1


if __name__ == "__main__":
    sys.exit(main())
