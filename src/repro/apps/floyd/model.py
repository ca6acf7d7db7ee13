"""Activity-diagram models of the guiding example (paper Figs. 3 and 5).

:func:`build_fig3_model` reproduces Fig. 3 -- explicit concurrency with a
fixed number of workers (tctask0 / tctask1..5 / tctask999 with the jars,
classes, memory and runmodel of Figs. 2 and 4).

:func:`build_fig5_model` reproduces Fig. 5 -- the same job with the
worker as a dynamic-invocation action state (multiplicity ``0..*``);
the run-time argument expression is supplied at execution time (the
paper: "a specific run-time argument expression would be specified
separately").
"""

from __future__ import annotations

from repro.core.uml.activity import ActivityGraph
from repro.core.uml.builder import ActivityBuilder
from repro.core.uml.tags import CNProfile

__all__ = [
    "SPLIT_JAR",
    "SPLIT_CLASS",
    "WORKER_JAR",
    "WORKER_CLASS",
    "JOIN_JAR",
    "JOIN_CLASS",
    "build_fig3_model",
    "build_fig5_model",
]

# the jar/class vocabulary of paper Figs. 2 and 4
SPLIT_JAR = "tasksplit.jar"
SPLIT_CLASS = "org.jhpc.cn2.transcloser.TaskSplit"
WORKER_JAR = "tctask.jar"
WORKER_CLASS = "org.jhpc.cn2.trnsclsrtask.TCTask"
JOIN_JAR = "taskjoin.jar"
JOIN_CLASS = "org.jhpc.cn2.transcloser.TaskJoin"


def build_fig3_model(
    *,
    n_workers: int = 5,
    matrix_source: str = "matrix.txt",
    sink: str = "matrix.txt",
    name: str = "TransClosure",
    mode: str = "shortest",
    retries: int = CNProfile.RETRIES.default,
) -> ActivityGraph:
    """The Fig. 3 diagram: split -> fork -> N workers -> join -> joiner.

    *mode* selects the worker kernel (``shortest`` | ``closure``); the
    non-default mode travels as a second CNX param on the splitter.
    *retries* gives every task that retry budget (the ``retries``
    tagged-value extension), which fault-tolerance runs rely on."""
    split_params = [("String", matrix_source)]
    if mode != "shortest":
        split_params.append(("String", mode))
    b = ActivityBuilder(name)
    split = b.task(
        "tctask0",
        jar=SPLIT_JAR,
        cls=SPLIT_CLASS,
        params=split_params,
        retries=retries,
    )
    workers = [
        b.task(
            f"tctask{i}",
            jar=WORKER_JAR,
            cls=WORKER_CLASS,
            params=[("Integer", str(i))],
            retries=retries,
        )
        for i in range(1, n_workers + 1)
    ]
    joiner = b.task(
        "tctask999",
        jar=JOIN_JAR,
        cls=JOIN_CLASS,
        params=[("String", sink)],
        retries=retries,
    )
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, joiner)
    b.chain(joiner, b.final())
    return b.build()


def build_fig5_model(
    *,
    matrix_source: str = "matrix.txt",
    sink: str = "matrix.txt",
    multiplicity: str = CNProfile.MULTIPLICITY.default,
    argument_expr: str = "[(i,) for i in range(1, n_workers + 1)]",
    name: str = "TransClosure",
    mode: str = "shortest",
    retries: int = CNProfile.RETRIES.default,
) -> ActivityGraph:
    """The Fig. 5 diagram: the worker as a dynamic invocation.

    *argument_expr* yields one argument list per concurrent invocation at
    run time (``n_workers`` is supplied through ``runtime_args``);
    *retries* as in :func:`build_fig3_model`."""
    split_params = [("String", matrix_source)]
    if mode != "shortest":
        split_params.append(("String", mode))
    b = ActivityBuilder(name)
    split = b.task(
        "tasksplit",
        jar=SPLIT_JAR,
        cls=SPLIT_CLASS,
        params=split_params,
        retries=retries,
    )
    worker = b.dynamic_task(
        "tctask",
        jar=WORKER_JAR,
        cls=WORKER_CLASS,
        multiplicity=multiplicity,
        argument_expr=argument_expr,
        retries=retries,
    )
    joiner = b.task(
        "taskjoin",
        jar=JOIN_JAR,
        cls=JOIN_CLASS,
        params=[("String", sink)],
        retries=retries,
    )
    b.chain(b.initial(), split, worker, joiner, b.final())
    return b.build()
