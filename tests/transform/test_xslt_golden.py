"""Byte-level goldens for step 3's stylesheet and step 4's generators.

``tests/data/xslt_golden/`` was recorded by running this file as a
script::

    PYTHONPATH=<that checkout>/src python tests/transform/test_xslt_golden.py

The ``*.xmi2cnx.out`` files come from the tree-walking interpreter (the
commit before the engine was lowered to closures); the compiled engine
must reproduce them byte for byte, and over the same models the
stylesheet's descriptor must equal the native oracle's ``emit()`` text.
The ``*.cnx2java.out`` files were written by the ``cnx2java.xsl``
stylesheet, which ``cnx_to_java`` replaced without changing a byte,
except ``two-jobs-ordered`` (the stylesheet declared ``job1`` three
times) and ``duplicate_id`` (its second ``worker`` is now ``worker_2``).
The ``*.cnx2py.out`` files pin ``cnx_to_python``, recorded when the
``cnx2py.xsl`` stylesheet it had been compared with was deleted.
"""

import random
import sys
from pathlib import Path

import pytest

from repro.apps.floyd.model import build_fig3_model, build_fig5_model
from repro.core.cnx import emit, parse
from repro.core.transform.cnx2code import cnx_to_java, cnx_to_python
from repro.core.transform.xmi2cnx import (
    load_stylesheet,
    xmi_to_cnx_native,
    xmi_to_cnx_text,
)
from repro.core.uml import ActivityBuilder, Model
from repro.core.xmi import write_graph
from repro.core.xmi.writer import write_model
from repro.util.xmlutil import parse_prefixed
from repro.xslt import Transformer

DATA = Path(__file__).parent.parent / "data"
GOLDEN = DATA / "xslt_golden"
CODEGEN = {"cnx2py": cnx_to_python, "cnx2java": cnx_to_java}


def fan_model(width: int):
    """split -> width x worker -> join, names NOT zero-padded: at width
    12 and up document order and name order differ."""
    rng = random.Random(width)
    b = ActivityBuilder(f"Fan{width}")
    split = b.task("split", jar="s.jar", cls="fan.Split", params=[("String", "in.txt")])
    workers = [
        b.task(
            f"w{i}",
            jar="w.jar",
            cls="fan.Work",
            memory=rng.randrange(1, 5000),
            params=[("Integer", str(i)), ("String", f"shard-{rng.randrange(1000)}")],
            retries=i % 3,
        )
        for i in range(width)
    ]
    join = b.task("join", jar="j.jar", cls="fan.Join")
    b.chain(b.initial(), split)
    if width > 1:
        b.fan_out_in(split, workers, join)
    else:
        b.chain(split, workers[0], join)
    b.chain(join, b.final())
    return b.build()


def two_job_model() -> Model:
    model = Model("M")
    pkg = model.new_package("client")
    for name in ("prepare", "analyze", "report"):
        b = ActivityBuilder(name)
        task = b.task(f"{name}-task", jar="stamp.jar", cls="t.Stamp")
        b.chain(b.initial(), task, b.final())
        pkg.add_graph(b.build())
    pkg.order_jobs("prepare", "report")
    pkg.order_jobs("analyze", "report")
    return model


MODELS = {
    "fig3": lambda: write_graph(build_fig3_model(n_workers=5)),
    "fig5": lambda: write_graph(build_fig5_model()),
    "dynamic-bounded": lambda: write_graph(
        build_fig5_model(multiplicity="2..6", retries=2, mode="reachability")
    ),
    "two-jobs-ordered": lambda: write_model(two_job_model()),
    **{f"fan{w}": (lambda w=w: write_graph(fan_model(w))) for w in (1, 2, 9, 40)},
}

XMI_FIXTURES = sorted(DATA.glob("*.xmi")) + sorted(DATA.glob("defects/*.xmi"))
CNX_FIXTURES = sorted(DATA.glob("*.cnx")) + sorted(DATA.glob("defects/*.cnx"))


def recorded(produce) -> str:
    """What *produce* returns; an error is part of the contract too."""
    try:
        return produce()
    except Exception as exc:  # noqa: BLE001 - recorded, compared by type and message
        return f"!{type(exc).__name__}: {exc}"


def run_sheet(source: str) -> str:
    transformer = Transformer(load_stylesheet("xmi2cnx.xsl"))
    return recorded(
        lambda: transformer.transform(parse_prefixed(source), restore_prefixes=True)
    )


def cases():
    """(golden file name, thunk producing the text)."""
    for path in XMI_FIXTURES:
        text = path.read_text()
        yield f"{path.stem}.xmi2cnx.out", lambda t=text: run_sheet(t)
    for path in CNX_FIXTURES:
        text = path.read_text()
        for name, generate in CODEGEN.items():
            yield (
                f"{path.stem}.{name}.out",
                lambda g=generate, t=text: recorded(lambda: g(parse(t))),
            )
    for name, build in MODELS.items():
        yield f"{name}.xmi2cnx.out", lambda b=build: xmi_to_cnx_text(b())
        for sheet, generate in CODEGEN.items():
            yield (
                f"{name}.{sheet}.out",
                lambda g=generate, b=build: g(parse(xmi_to_cnx_text(b()))),
            )


CASES = dict(cases())


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_stylesheet_output_is_byte_identical(name):
    assert CASES[name]() == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_stylesheet_equals_native_emit(name):
    xmi = MODELS[name]()
    assert emit(parse(xmi_to_cnx_text(xmi))) == emit(xmi_to_cnx_native(xmi))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for golden_name, produce in CASES.items():
        (GOLDEN / golden_name).write_text(produce())
    print(f"wrote {len(CASES)} files to {GOLDEN}", file=sys.stderr)
