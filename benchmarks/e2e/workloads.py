"""The six workloads: seeded inputs, the op a user would call, the same op
driven stage by stage under the stopwatch, and the output check.

Every reference an output is checked against is computed here from the
generated inputs by code the op does not run (the native XMI->CNX
oracle, the serial kernels) or read from ``golden/``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Optional

import numpy as np

from repro.apps.floyd import (
    build_fig3_model,
    ensure_floyd_tasks,
    floyd_registry,
    floyd_warshall_numpy,
    random_weighted_graph,
    run_parallel_floyd,
    store_matrix,
)
from repro.apps.montecarlo import (
    build_pi_model,
    estimate_pi_serial,
    register_pi_tasks,
)
from repro.apps.wordcount import (
    build_wordcount_model,
    count_words_serial,
    register_wordcount_tasks,
)
from repro.cn import CNAPI, Cluster, Task, TaskRegistry, TaskSpec
from repro.cn.client import expand_dynamic_tasks
from repro.cn.portal import Portal
from repro.core.cnx import emit, parse, validate
from repro.core.transform import Pipeline, PipelineResult, load_stylesheet
from repro.core.transform import xmi_to_cnx_native
from repro.core.uml import ActivityBuilder
from repro.core.xmi.reader import read_model
from repro.util.xmlutil import parse_prefixed
from repro.xslt import Transformer

from .harness import CheckFailed, Tracer

__all__ = ["WORKLOADS", "Outcome", "GOLDEN_DIR", "compose_artifacts"]

GOLDEN_DIR = Path(__file__).parent / "golden"

#: the seed the golden hashes were generated from; other seeds are checked
#: against the native oracle only
GOLDEN_SEED = 11


@dataclass
class Outcome:
    """What one op returned, in the shape ``check`` compares."""

    value: Any
    #: CN job ids the op created, when the op's caller gets to see them
    job_ids: list[str] = field(default_factory=list)
    #: tasks the op placed
    tasks: int = 0
    #: the pipeline artifacts behind ``value``, when the op kept them
    artifacts: Optional[PipelineResult] = None


class Noop(Task):
    """A task body that does nothing: composition cost without compute."""

    def __init__(self, *params: Any) -> None:
        pass

    def run(self, ctx: Any) -> str:
        return "ok"


NOOP = ("noop.jar", "bench.Noop")


def _noop_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class(*NOOP, Noop)
    return registry


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _load_golden(directory: Path, name: str) -> dict[str, Any]:
    with open(directory / name, encoding="utf-8") as fh:
        return json.load(fh)


# -- the path, stage by stage ------------------------------------------------------

def staged_pipeline(
    tracer: Tracer, pipeline: Pipeline, source: Any, cluster: Cluster, timeout: float
) -> Outcome:
    """``Pipeline.run`` unrolled: each layer's public function under its
    own span, then the generated client's CNAPI call sequence replayed
    with a stopwatch per call."""
    with tracer.span("core.uml.validate"):
        model = pipeline.to_model(source)
    with tracer.span("core.xmi.write"):
        xmi_text = pipeline.export_xmi(model)
    with tracer.span("util.xmlutil.parse"):
        tree = parse_prefixed(xmi_text)
    with tracer.span("xslt.transform"):
        cnx_raw = Transformer(load_stylesheet("xmi2cnx.xsl")).transform(
            tree,
            params={"log": pipeline.log, "port": str(pipeline.port)},
            restore_prefixes=True,
        )
    with tracer.span("core.cnx.parse"):
        doc = parse(cnx_raw)
    with tracer.span("core.cnx.validate"):
        validate(doc)
    with tracer.span("core.cnx.emit"):
        cnx_text = emit(doc)
    with tracer.span("core.transform.codegen_py"):
        python_source = pipeline.to_client(doc)
    with tracer.span("core.transform.codegen_java"):
        java_source = pipeline.to_java(doc)
    with tracer.span("core.transform.deploy"):
        pipeline.deploy(python_source)
    api = CNAPI.initialize(cluster)
    job_results, job_ids = [], []
    for job in doc.client.jobs:
        specs = expand_dynamic_tasks(job, {})
        requirements = {
            "tasks": sum(1 for t in job.tasks if not t.dynamic),
            "memory": sum(t.task_req.memory for t in job.tasks),
        }
        with tracer.span("cn.api.create_job"):
            handle = api.create_job(doc.client.cls, requirements=requirements)
        with tracer.span("cn.scheduler.place"):
            for spec in specs:
                api.create_task(handle, spec)
        with tracer.span("cn.api.start"):
            api.start_job(handle)
        with tracer.span("cn.api.wait"):
            job_results.append(api.wait(handle, timeout))
        job_ids.append(handle.job_id)
    result = PipelineResult(
        model=model,
        xmi_text=xmi_text,
        cnx_doc=doc,
        cnx_text=cnx_text,
        python_source=python_source,
        java_source=java_source,
        job_results=job_results,
    )
    tasks = sum(len(results) for results in job_results)
    return Outcome(result, job_ids, tasks, result)


# -- workloads -----------------------------------------------------------------------

class Workload:
    """One benchmark workload: what it runs on, its seeded inputs, its op
    (as a user calls it, and staged under the tracer) and its check."""

    name = ""
    why = ""
    ops_per_block = 1
    warmups = 1
    nodes = 4
    transport = "inproc"
    scheduler = "solicit"

    def registry(self) -> TaskRegistry:
        raise NotImplementedError

    def inputs(self, seed: int, golden_dir: Path) -> Any:
        """Everything the ops consume, generated from *seed*, plus the
        references their outputs are checked against."""
        raise NotImplementedError

    def cluster(self, **overrides: Any) -> Cluster:
        """The cluster a user gets from the constructor defaults; only
        capacity is raised so 152- and 256-task jobs fit."""
        kwargs: dict[str, Any] = {
            "registry": self.registry(),
            "memory_per_node": 10**6,
            "slots_per_node": 1024,
            "transport": self.transport,
            "scheduler": self.scheduler,
        }
        kwargs.update(overrides)
        return Cluster(self.nodes, **kwargs)

    def open(self, cluster: Cluster) -> Any:
        cluster.start()
        return SimpleNamespace(cluster=cluster, pipeline=Pipeline())

    def op(self, session: Any, inputs: Any, index: int) -> Outcome:
        """The call a user makes, timed as one op."""
        raise NotImplementedError

    def plain(self, session: Any, inputs: Any, index: int) -> Outcome:
        """The untraced counterpart of :meth:`staged` (same work)."""
        return self.op(session, inputs, index)

    def staged(
        self, session: Any, inputs: Any, index: int, tracer: Tracer
    ) -> Outcome:
        """The same op through each layer's public functions, one span
        per layer."""
        raise NotImplementedError

    def check(self, session: Any, inputs: Any, index: int, outcome: Outcome) -> None:
        """Raise :class:`CheckFailed` unless the output is correct."""
        raise NotImplementedError

    def settle(self, session: Any, outcome: Outcome) -> None:
        """Untimed clean-up between ops."""


class ComposeWide(Workload):
    name = "compose-wide150"
    why = (
        "152-task fan model through the default XSLT pipeline: the workload "
        "where xslt and core.* do most of the work and task bodies none"
    )
    ops_per_block = 5
    workers = 150

    def registry(self) -> TaskRegistry:
        return _noop_registry()

    def model(self, seed: int) -> Any:
        # zero-padded names: the stylesheet lists ``depends`` in document
        # order, the native oracle sorted by name; they agree only when
        # the two orders coincide
        rng = random.Random(seed)
        b = ActivityBuilder("Wide")
        jar, cls = NOOP
        split = b.task("split", jar=jar, cls=cls, memory=1)
        workers = [
            b.task(
                f"w{i:03d}",
                jar=jar,
                cls=cls,
                memory=1,
                params=[("Integer", str(rng.randrange(100_000, 1_000_000)))],
            )
            for i in range(self.workers)
        ]
        join = b.task("join", jar=jar, cls=cls, memory=1)
        b.chain(b.initial(), split)
        b.fan_out_in(split, workers, join)
        b.chain(join, b.final())
        return b.build()

    def inputs(self, seed: int, golden_dir: Path) -> Any:
        model = self.model(seed)
        pipeline = Pipeline()
        xmi_text = pipeline.export_xmi(pipeline.to_model(model))
        golden = _load_golden(golden_dir, "compose-wide150.json")
        return SimpleNamespace(
            model=model,
            reference_cnx=emit(xmi_to_cnx_native(xmi_text)),
            golden=golden if seed == golden["seed"] else None,
        )

    def op(self, session: Any, inputs: Any, index: int) -> Outcome:
        return Outcome(session.pipeline.run(inputs.model, session.cluster, timeout=120.0))

    def staged(self, session: Any, inputs: Any, index: int, tracer: Tracer) -> Outcome:
        return staged_pipeline(
            tracer, session.pipeline, inputs.model, session.cluster, 120.0
        )

    def check(self, session: Any, inputs: Any, index: int, outcome: Outcome) -> None:
        result = outcome.value
        values = Counter(result.results.values())
        if values != {"ok": self.workers + 2}:
            raise CheckFailed(f"task results {dict(values)}")
        if result.cnx_text != inputs.reference_cnx:
            raise CheckFailed("CNX differs from the native oracle's")
        if inputs.golden is not None:
            for key, text in (
                ("cnx_sha256", result.cnx_text),
                ("client_sha256", result.python_source),
            ):
                if _sha256(text) != inputs.golden[key]:
                    raise CheckFailed(f"{key} differs from golden")


def compose_artifacts(seed: int = GOLDEN_SEED) -> dict[str, Any]:
    """The golden record for the 152-task model, generated through the
    default pipeline; raises unless the native oracle agrees."""
    workload = ComposeWide()
    result = Pipeline().run(workload.model(seed), execute=False)
    if result.cnx_text != emit(xmi_to_cnx_native(result.xmi_text)):
        raise CheckFailed("XSLT and native CNX differ; refusing to bless either")
    return {
        "seed": seed,
        "tasks": workload.workers + 2,
        "cnx_sha256": _sha256(result.cnx_text),
        "client_sha256": _sha256(result.python_source),
    }


class Floyd(Workload):
    n = 128
    n_workers = 4

    def __init__(self, name: str, transport: str, ops_per_block: int, why: str) -> None:
        self.name = name
        self.transport = transport
        self.ops_per_block = ops_per_block
        self.why = why

    def registry(self) -> TaskRegistry:
        return floyd_registry()

    def inputs(self, seed: int, golden_dir: Path) -> Any:
        matrix = random_weighted_graph(self.n, seed=seed)
        kernel_ms = []
        for _ in range(5):
            start = time.perf_counter()
            reference = floyd_warshall_numpy(matrix)
            kernel_ms.append((time.perf_counter() - start) * 1000.0)
        return SimpleNamespace(
            matrix=matrix, reference=reference, kernel_ms=sorted(kernel_ms)[2]
        )

    def op(self, session: Any, inputs: Any, index: int) -> Outcome:
        result, _ = run_parallel_floyd(
            inputs.matrix, n_workers=self.n_workers, cluster=session.cluster
        )
        return Outcome(result)

    def staged(self, session: Any, inputs: Any, index: int, tracer: Tracer) -> Outcome:
        with tracer.span("apps.floyd.stage"):
            source = store_matrix(f"e2e-floyd-{index}", inputs.matrix)
            graph = build_fig3_model(
                n_workers=self.n_workers, matrix_source=source, sink=""
            )
            ensure_floyd_tasks(session.cluster.registry)
        outcome = staged_pipeline(
            tracer, session.pipeline, graph, session.cluster, 120.0
        )
        outcome.value = outcome.value.results["tctask999"]
        return outcome

    def check(self, session: Any, inputs: Any, index: int, outcome: Outcome) -> None:
        if not np.allclose(np.asarray(outcome.value, dtype=float), inputs.reference):
            raise CheckFailed("distance matrix differs from floyd_warshall_numpy")


class Place(Workload):
    ops_per_block = 4
    nodes = 32
    tasks = 256

    def __init__(self, name: str, scheduler: str, why: str) -> None:
        self.name = name
        self.scheduler = scheduler
        self.why = why

    def registry(self) -> TaskRegistry:
        return _noop_registry()

    def inputs(self, seed: int, golden_dir: Path) -> Any:
        rng = random.Random(seed)
        jar, cls = NOOP
        specs = [
            TaskSpec(name=f"t{i}-{rng.randrange(16**4):04x}", jar=jar, cls=cls, memory=10)
            for i in range(self.tasks)
        ]
        expected = _load_golden(golden_dir, "place256.json")[self.name]
        return SimpleNamespace(specs=specs, expected=expected)

    def open(self, cluster: Cluster) -> Any:
        return SimpleNamespace(cluster=cluster, api=CNAPI.initialize(cluster))

    def op(self, session: Any, inputs: Any, index: int) -> Outcome:
        before = session.cluster.bus.stats.solicitations
        handle = session.api.create_job("bench")
        session.api.create_tasks(handle, inputs.specs)
        return self._outcome(session, handle, before)

    def staged(self, session: Any, inputs: Any, index: int, tracer: Tracer) -> Outcome:
        before = session.cluster.bus.stats.solicitations
        with tracer.span("cn.api.create_job"):
            handle = session.api.create_job("bench")
        with tracer.span("cn.scheduler.place"):
            session.api.create_tasks(handle, inputs.specs)
        return self._outcome(session, handle, before)

    def _outcome(self, session: Any, handle: Any, before: int) -> Outcome:
        rounds = session.cluster.bus.stats.solicitations - before
        return Outcome((handle, rounds), [handle.job_id], self.tasks)

    def check(self, session: Any, inputs: Any, index: int, outcome: Outcome) -> None:
        handle, rounds = outcome.value
        placed = Counter(handle.job.task(s.name).node_name for s in inputs.specs)
        if None in placed:
            raise CheckFailed(f"{placed[None]} task(s) left without a node")
        counts = [placed.get(name, 0) for name in session.cluster.node_names]
        if max(counts) - min(counts) > 1:
            raise CheckFailed(f"per-node counts differ by more than 1: {counts}")
        low, high = inputs.expected["solicitations"]
        if not low <= rounds <= high:
            raise CheckFailed(f"{rounds} bus solicitations, expected {low}..{high}")

    def settle(self, session: Any, outcome: Outcome) -> None:
        session.api.cancel(outcome.value[0])


_VOCABULARY = (
    "model job task cluster node queue bus split join fork xmi cnx uml "
    "stylesheet transform descriptor client server manager neighborhood"
).split()


class PortalMix(Workload):
    name = "portal-mix"
    why = (
        "300 small seeded XMI documents through Portal.submit: per-job fixed "
        "cost (XMI ingest, job creation, journal, teardown) dominates"
    )
    ops_per_block = 300
    warmups = 10
    documents = 300

    def registry(self) -> TaskRegistry:
        registry = TaskRegistry()
        register_pi_tasks(registry)
        register_wordcount_tasks(registry)
        return registry

    def inputs(self, seed: int, golden_dir: Path) -> Any:
        rng = random.Random(seed)
        pipeline = Pipeline()
        documents = []
        for i in range(self.documents):
            # kind and width cycle, so every seed has the same mix of the
            # six job shapes; the seed draws each document's parameters
            workers = 2 + (i // 2) % 3
            if i % 2 == 0:
                samples, pi_seed = rng.randrange(400, 2000), rng.randrange(10**6)
                graph = build_pi_model(samples=samples, seed=pi_seed, n_workers=workers)
                expected = ("pijoin", "pi", self._pi_reference(samples, pi_seed, workers))
            else:
                text = " ".join(
                    rng.choice(_VOCABULARY) for _ in range(rng.randrange(100, 400))
                )
                graph = build_wordcount_model(
                    text=text, shards=rng.randint(2, 8), n_mappers=workers
                )
                expected = ("wcreduce", None, count_words_serial(text))
            xmi_text = pipeline.export_xmi(pipeline.to_model(graph))
            documents.append((xmi_text, expected))
        return SimpleNamespace(documents=documents)

    @staticmethod
    def _pi_reference(samples: int, seed: int, workers: int) -> float:
        """The estimate the split/worker/join job must reproduce, from the
        serial kernel applied to each worker's chunk."""
        base, extra = divmod(samples, workers)
        hits = 0
        for w in range(workers):
            count = base + (1 if w < extra else 0)
            hits += round(estimate_pi_serial(count, seed + w + 1) * count / 4.0)
        return 4.0 * hits / samples

    def open(self, cluster: Cluster) -> Any:
        portal = Portal(cluster)
        return SimpleNamespace(cluster=cluster, portal=portal, pipeline=portal.pipeline)

    def _document(self, inputs: Any, index: int) -> str:
        return inputs.documents[index % len(inputs.documents)][0]

    def op(self, session: Any, inputs: Any, index: int) -> Outcome:
        submission = session.portal.submit(self._document(inputs, index))
        return Outcome((submission.status, submission.results, submission.error))

    def plain(self, session: Any, inputs: Any, index: int) -> Outcome:
        model = read_model(self._document(inputs, index))
        result = session.pipeline.run(model, session.cluster, timeout=120.0)
        return Outcome(("done", result.job_results, ""))

    def staged(self, session: Any, inputs: Any, index: int, tracer: Tracer) -> Outcome:
        with tracer.span("core.xmi.read"):
            model = read_model(self._document(inputs, index))
        outcome = staged_pipeline(
            tracer, session.pipeline, model, session.cluster, 120.0
        )
        outcome.value = ("done", outcome.value.job_results, "")
        return outcome

    def check(self, session: Any, inputs: Any, index: int, outcome: Outcome) -> None:
        status, job_results, error = outcome.value
        if status != "done":
            raise CheckFailed(f"submission {status}: {error.splitlines()[-1:]}")
        task, key, expected = inputs.documents[index % len(inputs.documents)][1]
        got = job_results[0][task]
        if key is not None:
            got = got[key]
        if got != expected:
            raise CheckFailed(f"{task} returned {got!r}, expected {expected!r}")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        ComposeWide(),
        Floyd(
            "floyd128-inproc", "inproc", 10,
            "the paper's guiding example, 128 broadcast rounds x 4 workers with a "
            "checkpoint per step: cn.queues, cn.job and cn.durability do the work",
        ),
        Floyd(
            "floyd128-proc", "proc", 6,
            "the same job on worker processes: cn.transport does the work, and "
            "floyd128-inproc is the row that must not move with it",
        ),
        Place(
            "place256-solicit", "solicit",
            "placement only, paper protocol: 257 multicast rounds over 32 nodes "
            "with telemetry and durability at their defaults",
        ),
        Place(
            "place256-bid", "bid",
            "the same batch through one rule/bid/award round: the protocol is no "
            "longer the cost, the stacked defaults are",
        ),
        PortalMix(),
    )
}
