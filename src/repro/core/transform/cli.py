"""Command-line front end for the transformation chain.

``cn-pipeline`` mirrors the paper's tool usage: feed it an XMI export
(or ask for a built-in example model), get the CNX descriptor, the
generated client program, or a full execution.

Examples::

    cn-pipeline cnx model.xmi                 # XMI -> CNX on stdout
    cn-pipeline python model.xmi              # XMI -> generated client
    cn-pipeline java model.xmi                # XMI -> CNX2Java output
    cn-pipeline run model.xmi --workers 4     # full Fig. 6 execution
    cn-pipeline example-xmi --workers 5       # emit the Fig. 3 model's XMI
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cn-pipeline",
        description="Model-driven CN job composition (XMI -> CNX -> client)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("cnx", "transform XMI to a CNX client descriptor"),
        ("python", "transform XMI to the generated Python client"),
        ("java", "transform XMI to the generated Java client"),
        ("run", "run the whole pipeline and execute on a simulated cluster"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("xmi", type=Path, help="XMI document (UML 1.x activity graph)")
        if name == "run":
            cmd.add_argument("--nodes", type=int, default=4, help="cluster size")
            cmd.add_argument(
                "--runtime-args",
                default="{}",
                help="JSON dict bound to dynamic-invocation expressions",
            )
            cmd.add_argument("--timeout", type=float, default=120.0)

    example = sub.add_parser(
        "example-xmi", help="emit the guiding example's XMI (paper Fig. 3 model)"
    )
    example.add_argument("--workers", type=int, default=5)
    example.add_argument("--matrix", default="matrix.txt")

    render = sub.add_parser(
        "render", help="render the activity diagram(s) in an XMI document"
    )
    render.add_argument("xmi", type=Path)
    render.add_argument(
        "--format", choices=("ascii", "dot"), default="ascii", dest="fmt"
    )
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    options = build_parser().parse_args(argv)

    if options.command == "example-xmi":
        from repro.apps.floyd.model import build_fig3_model
        from repro.core.xmi.writer import write_graph

        graph = build_fig3_model(
            n_workers=options.workers, matrix_source=options.matrix
        )
        sys.stdout.write(write_graph(graph))
        return 0

    xmi_text = options.xmi.read_text()

    if options.command == "render":
        from repro.core.uml.render import to_ascii, to_dot
        from repro.core.xmi.reader import read_graphs

        renderer = to_ascii if options.fmt == "ascii" else to_dot
        for graph in read_graphs(xmi_text):
            sys.stdout.write(renderer(graph))
            sys.stdout.write("\n")
        return 0

    from .cnx2code import cnx_to_java, cnx_to_python
    from .xmi2cnx import xmi_to_cnx

    doc = xmi_to_cnx(xmi_text)

    if options.command == "cnx":
        from ..cnx.emitter import emit

        sys.stdout.write(emit(doc))
        return 0
    if options.command == "python":
        sys.stdout.write(cnx_to_python(doc))
        return 0
    if options.command == "java":
        sys.stdout.write(cnx_to_java(doc))
        return 0

    # run
    from repro.apps.floyd import register_floyd_tasks
    from repro.apps.montecarlo import register_pi_tasks
    from repro.apps.wordcount import register_wordcount_tasks
    from repro.cn.cluster import Cluster
    from repro.cn.registry import TaskRegistry
    from .cnx2code import GeneratedClient

    registry = TaskRegistry()
    register_floyd_tasks(registry)
    register_pi_tasks(registry)
    register_wordcount_tasks(registry)
    registry.add_search_dir(options.xmi.parent)
    client = GeneratedClient(cnx_to_python(doc))
    runtime_args = json.loads(options.runtime_args)
    with Cluster(options.nodes, registry=registry) as cluster:
        job_results = client.run(cluster, runtime_args, options.timeout)
    for index, results in enumerate(job_results, start=1):
        print(f"# job {index}")
        for task_name in sorted(results):
            print(f"{task_name}: {_render(results[task_name])}")
    return 0


def _render(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
