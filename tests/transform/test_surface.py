"""The settable surface of the Fig. 6 path: which transformer runs and
how a dependency graph is walked are not inputs, and each is answered in
one place.  A new parameter or a new hand-written walker shows up here,
in review (ROADMAP aim 2: a PR that adds an option removes one)."""

import ast
import inspect
from pathlib import Path

import pytest

import repro
from repro.apps.floyd import run_parallel_floyd, run_parallel_floyd_dynamic
from repro.apps.matmul import run_parallel_matmul
from repro.apps.montecarlo import run_parallel_pi
from repro.apps.wordcount import run_parallel_wordcount
from repro.cn.portal import Portal
from repro.core.transform import Pipeline

SRC = Path(repro.__file__).parent


def parameters(function) -> list[str]:
    return [p for p in inspect.signature(function).parameters if p != "self"]


def test_pipeline_options_are_exactly_these():
    signature = inspect.signature(Pipeline.__init__)
    assert parameters(Pipeline.__init__) == ["log", "port"]
    assert all(
        p.kind is inspect.Parameter.KEYWORD_ONLY
        for name, p in signature.parameters.items() if name != "self"
    )


def test_portal_options_are_exactly_these():
    assert parameters(Portal.__init__) == [
        "cluster",
        "registry",
        "timeout",
        "max_body_bytes",
    ]
    # a portal's cluster is ticked by whoever built it, not by a portal switch
    with pytest.raises(TypeError, match="heartbeats"):
        Portal(heartbeats=True)


@pytest.mark.parametrize(
    "driver, expected",
    [
        (run_parallel_floyd,
         ["matrix", "n_workers", "cluster", "mode", "timeout", "retries"]),
        (run_parallel_floyd_dynamic,
         ["matrix", "n_workers", "cluster", "mode", "timeout", "retries"]),
        (run_parallel_matmul, ["a", "b", "n_workers", "cluster", "timeout"]),
        (run_parallel_pi, ["samples", "seed", "n_workers", "cluster", "timeout"]),
        (run_parallel_wordcount,
         ["text", "shards", "n_mappers", "cluster", "timeout"]),
    ],
    ids=lambda value: getattr(value, "__name__", ""),
)
def test_driver_signatures(driver, expected):
    assert parameters(driver) == expected


def functions(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def test_no_function_selects_a_transformer():
    # repro.xslt is exempt: Transformer.transform is the engine's verb
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if "xslt" in path.relative_to(SRC).parts:
            continue
        for function in functions(path):
            arguments = function.args
            names = {
                a.arg
                for a in arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            }
            if names & {"transform", "codegen"}:
                offenders.append(f"{path.relative_to(SRC)}:{function.lineno}")
    assert offenders == []


def test_graphs_are_walked_in_one_place():
    """The recursive ``visit``/``dfs``/``expand`` closures are gone from
    the modules that had them, and ``graphlib`` has one importer."""
    walkers = []
    for target in ("core/uml", "core/cnx", "analysis/ir.py", "analysis/passes.py",
                   "cn/client.py"):
        root = SRC / target
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            for function in functions(path):
                walkers += [
                    f"{path.relative_to(SRC)}:{inner.lineno}"
                    for inner in ast.walk(function)
                    if inner is not function
                    and isinstance(inner, ast.FunctionDef)
                    and inner.name in ("visit", "dfs", "expand")
                ]
    assert walkers == []
    importers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if any(
            (isinstance(node, ast.ImportFrom) and node.module == "graphlib")
            or (isinstance(node, ast.Import)
                and any(alias.name == "graphlib" for alias in node.names))
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
        )
    ]
    assert importers == ["util/dag.py"]
