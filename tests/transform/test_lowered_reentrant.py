"""One lowered ``xmi2cnx.xsl`` shared by concurrent transforms.

The lowered sheet is immutable and everything a run mutates
(``current()``, key tables, variable scopes, the output tree) lives on
the run's own ``Transformer``/contexts, so eight threads interleaving on
one ``load_stylesheet`` object must each produce the bytes the serial
run produces."""

import random
import sys
import threading

from repro.core.transform.xmi2cnx import load_stylesheet
from repro.core.uml import ActivityBuilder
from repro.core.xmi import write_graph
from repro.util.xmlutil import parse_prefixed
from repro.xslt import Transformer

THREADS = 8


def seeded_xmi(seed: int) -> str:
    """A different shape per seed: fan width, a dynamic task or not, a
    tail of stages, 0-3 params per worker (the ``xsl:sort`` over
    ``current()`` and the ``key()`` joins), retries (an RTF variable)."""
    rng = random.Random(seed)
    b = ActivityBuilder(f"G{seed}")
    split = b.task("split", jar="s.jar", cls="S", params=[("String", f"in{seed}.txt")])
    workers = [
        b.task(
            f"w{i}",
            jar="w.jar",
            cls="W",
            memory=rng.randrange(1, 9000),
            params=[("Integer", str(rng.randrange(10**6))) for _ in range(rng.randrange(4))],
            retries=rng.randrange(3),
        )
        for i in range(rng.randrange(2, 14))
    ]
    join = b.task("join", jar="j.jar", cls="J")
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    tail = join
    if rng.random() < 0.5:
        dynamic = b.dynamic_task(
            "dyn", jar="d.jar", cls="D", multiplicity="1..4", argument_expr="[(1,), (2,)]"
        )
        b.chain(tail, dynamic)
        tail = dynamic
    for s in range(rng.randrange(3)):
        stage = b.task(f"stage{s}", jar="x.jar", cls="X")
        b.chain(tail, stage)
        tail = stage
    b.chain(tail, b.final())
    return write_graph(b.build())


def transform(sheet, xmi: str, seed: int) -> str:
    return Transformer(sheet).transform(
        parse_prefixed(xmi),
        params={"log": f"job{seed}.log", "port": str(5000 + seed)},
        restore_prefixes=True,
    )


def test_eight_threads_share_one_lowered_sheet():
    sheet = load_stylesheet("xmi2cnx.xsl")
    inputs = {seed: seeded_xmi(seed) for seed in range(THREADS)}
    serial = {seed: transform(sheet, xmi, seed) for seed, xmi in inputs.items()}
    assert len(set(serial.values())) == THREADS  # the models really differ

    results: dict[int, list[str]] = {seed: [] for seed in inputs}
    errors: list[BaseException] = []
    start = threading.Barrier(THREADS)

    def worker(seed: int) -> None:
        try:
            start.wait(timeout=30)
            for _ in range(6):
                results[seed].append(transform(sheet, inputs[seed], seed))
        except BaseException as exc:  # noqa: BLE001 - reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force interleaving inside single transforms
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in inputs]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    for seed, outputs in results.items():
        assert outputs == [serial[seed]] * 6, f"seed {seed} diverged under threads"
    assert load_stylesheet("xmi2cnx.xsl").lowered() is sheet.lowered()
