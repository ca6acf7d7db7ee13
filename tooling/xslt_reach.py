"""Which lines of the XSLT engine the XMI2CNX transform reaches.

Runs ``xmi_to_cnx`` over the Fig. 3 and Fig. 5 models, the three app
models (Monte Carlo pi, word count, matrix multiply) and the
``compose-wide150`` fan, plus the form ``benchmarks.e2e`` runs (a
pre-parsed ElementTree with ``restore_prefixes``), under a
``sys.settrace`` line tracer.  Prints, per file under
``src/repro/xslt`` and for the module the engine generates from
``xmi2cnx.xsl``, its executable lines (those the compiler gives a line
number, docstrings aside), how many the runs reached, and the numbers
of the ones they did not.  The stylesheet is compiled under the trace,
so the compiler's lines count as reached too.

A measurement script, not a product feature.  Run it from the checkout
root:

    python tooling/xslt_reach.py [--lines]
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "src"))

PACKAGE = ROOT / "src" / "repro" / "xslt"


#: the file name the engine compiles a stylesheet's module under
GENERATED = "<stylesheet>"


def executable_lines(source: str) -> set[int]:
    """The line numbers a trace of *source* can report.  A code object's
    first line is left out: a ``def`` line is counted in the code that
    runs it, and a module's first line is its docstring."""
    lines: set[int] = set()
    pending = [compile(source, "<traced>", "exec")]
    while pending:
        code = pending.pop()
        lines.update(
            line for _, _, line in code.co_lines()
            if line is not None and line != code.co_firstlineno
        )
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def workload() -> None:
    """Every transform the reach is measured over."""
    from benchmarks.e2e.workloads import ComposeWide
    from repro.apps.floyd.model import build_fig3_model, build_fig5_model
    from repro.apps.matmul.driver import build_matmul_model
    from repro.apps.montecarlo.driver import build_pi_model
    from repro.apps.wordcount.driver import build_wordcount_model
    from repro.core.transform.pipeline import Pipeline
    from repro.core.transform.xmi2cnx import load_stylesheet, xmi_to_cnx
    from repro.core.xmi import write_graph
    from repro.util.xmlutil import parse_prefixed
    from repro.xslt import Transformer

    pipeline = Pipeline()
    sources = [
        write_graph(build_fig3_model(n_workers=5)),
        write_graph(build_fig5_model()),
        write_graph(build_pi_model()),
        write_graph(build_wordcount_model(text="a b a")),
        write_graph(build_matmul_model(source="m.txt")),
        pipeline.export_xmi(pipeline.to_model(ComposeWide().model(0))),
    ]
    for xmi in sources:
        xmi_to_cnx(xmi)
    Transformer(load_stylesheet("xmi2cnx.xsl")).transform(
        parse_prefixed(sources[-1]),
        params={"log": pipeline.log, "port": str(pipeline.port)},
        restore_prefixes=True,
    )


def main() -> None:
    show_lines = "--lines" in sys.argv[1:]
    prefix = str(PACKAGE)
    reached: dict[str, set[int]] = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix) and filename != GENERATED:
            return None
        hits = reached.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        hits.add(frame.f_lineno)
        return local

    # the engine's modules are imported under the trace, so their
    # module-level lines count as reached
    sys.settrace(trace)
    try:
        workload()
    finally:
        sys.settrace(None)
    from repro.core.transform.xmi2cnx import load_stylesheet

    total_lines = total_reached = 0
    print(f"{'file':<28}{'executable':>11}{'reached':>9}{'unreached':>11}")
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path.read_text(encoding="utf-8"))
        hit = reached.get(str(path), set()) & lines
        total_lines += len(lines)
        total_reached += len(hit)
        name = path.relative_to(PACKAGE).as_posix()
        print(f"{name:<28}{len(lines):>11}{len(hit):>9}{len(lines) - len(hit):>11}")
        if show_lines and lines - hit:
            print("    unreached:", " ".join(str(n) for n in sorted(lines - hit)))
    print(f"{'total':<28}{total_lines:>11}{total_reached:>9}{total_lines - total_reached:>11}")
    lines = executable_lines(load_stylesheet("xmi2cnx.xsl").compiled().source)
    hit = reached.get(GENERATED, set()) & lines
    print(f"{'xmi2cnx.xsl, generated':<28}{len(lines):>11}{len(hit):>9}{len(lines) - len(hit):>11}")
    if show_lines and lines - hit:
        print("    unreached:", " ".join(str(n) for n in sorted(lines - hit)))


if __name__ == "__main__":
    main()
