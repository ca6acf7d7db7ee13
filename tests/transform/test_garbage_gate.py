"""A pipeline run leaves no tree and no attempt for the cycle collector.

ROADMAP item 6 asks for zero full collections inside an op; a
count-triggered collector does not let a test hold that, so this holds
its cause instead: the source trees the XSLT engine builds and the
bookkeeping of an ended attempt are freed by reference count.  With the
collector off and ``DEBUG_SAVEALL`` set, whatever a collection *would*
have had to find is in ``gc.garbage``."""

import gc

from repro.cn import Cluster
from repro.core.transform import Pipeline
from repro.core.uml import ActivityBuilder

from ..conftest import basic_registry

MUST_NOT_WAIT_FOR_THE_COLLECTOR = {"XElement", "XAttribute", "Element", "HostedTask", "TaskContext"}


def fan(width: int):
    b = ActivityBuilder("Fan")
    echo = {"jar": "echo.jar", "cls": "test.Echo", "memory": 1}
    split = b.task("split", **echo)
    workers = [b.task(f"w{i:02d}", params=[("Integer", str(i))], **echo) for i in range(width)]
    join = b.task("join", **echo)
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    b.chain(join, b.final())
    return b.build()


def test_a_run_leaves_no_source_tree_and_no_ended_attempt_as_cyclic_garbage():
    model = fan(20)
    with Cluster(2, registry=basic_registry()) as cluster:
        pipeline = Pipeline()
        pipeline.run(model, cluster, timeout=60)  # imports, lowering, caches
        gc.collect()
        was_enabled, flags = gc.isenabled(), gc.get_debug()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            outcome = pipeline.run(model, cluster, timeout=60)
            gc.collect()
            left = sorted(
                {type(o).__name__ for o in gc.garbage} & MUST_NOT_WAIT_FOR_THE_COLLECTOR
            )
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if was_enabled:
                gc.enable()
    assert len(outcome.results) == 22
    assert not left, f"freed only by a full collection: {left}"
