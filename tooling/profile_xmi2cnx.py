"""Per-template profile of the XMI2CNX stylesheet (Fig. 6 step 3).

Transforms the ``compose-wide150`` model (a 152-task fan, one ``Integer``
parameter per worker) and prints, per compiled template function, its
calls, its own time (the time spent in nested template invocations
subtracted) and the ``key()`` calls made directly in it, plus the
source-document build, the key-table builds and serialisation, and the
document's size: its rows (the document, elements and texts) and
attributes.  The source document is built both ways: from the XMI text,
as ``xmi_to_cnx`` builds it from a string, and from the writer's calls,
as ``Pipeline.run`` builds it (the templates run on that one).
Times are the minimum over REPS runs, one core, the collector off.

A measurement script, not a product feature: it wraps, from outside,
the two methods every template invocation and every ``key()`` call of
the compiled sheet go through (``Transformer._invoke`` and
``Transformer._key``), and ``Transformer._key_table``.  Run it from the
checkout root:

    PYTHONPATH=src python tooling/profile_xmi2cnx.py [REPS]
"""

from __future__ import annotations

import gc
import sys
import time
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from benchmarks.e2e.workloads import ComposeWide  # noqa: E402
from repro.core.transform.pipeline import Pipeline  # noqa: E402
from repro.core.transform.xmi2cnx import load_stylesheet, xmi_document  # noqa: E402
from repro.core.uml import Model  # noqa: E402
from repro.core.xmi.writer import write_model  # noqa: E402
from repro.xslt import Transformer  # noqa: E402
from repro.xslt.output import serialize  # noqa: E402
from repro.xslt.xpath.datamodel import XDocument, build_document  # noqa: E402


def profile(model: Model, reps: int) -> tuple[dict, dict, dict, XDocument]:
    sheet = load_stylesheet("xmi2cnx.xsl")
    program = sheet.compiled()
    labels = {
        f"t{i}": rule.name or f"match={rule.pattern.source}"
        for i, rule in enumerate(program.templates)
    }
    best: dict[str, float] = defaultdict(lambda: float("inf"))
    calls: dict[str, int] = {}
    keys: dict[str, int] = {}
    run_own: dict[str, float] = defaultdict(float)
    run_calls: dict[str, int] = defaultdict(int)
    run_keys: dict[str, int] = defaultdict(int)
    stack: list[list] = []  # [label, time in nested templates]

    def timed(label: str, run, *args):
        stack.append([label, 0.0])
        start = time.perf_counter()
        try:
            return run(*args)
        finally:
            elapsed = time.perf_counter() - start
            _, nested = stack.pop()
            run_own[label] += elapsed - nested
            run_calls[label] += 1
            if stack:
                stack[-1][1] += elapsed

    invoke, key, key_table = Transformer._invoke, Transformer._key, Transformer._key_table

    def timed_invoke(self, template, *args):
        return timed(labels[template.__name__], invoke, self, template, *args)

    def counted_key(self, *args):
        run_keys[stack[-1][0] if stack else "(key tables)"] += 1
        return key(self, *args)

    def timed_key_table(self, name):
        return timed("(key tables)", key_table, self, name)

    Transformer._invoke, Transformer._key = timed_invoke, counted_key
    Transformer._key_table = timed_key_table
    params = {"log": "CN_Client.log", "port": "5666"}
    xmi = write_model(model)
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            run_own.clear(), run_calls.clear(), run_keys.clear()
            start = time.perf_counter()
            build_document(xmi, strips=program.strips)
            run_own["(source document, text)"] = time.perf_counter() - start
            start = time.perf_counter()
            doc = xmi_document(model)
            run_own["(source document, writer)"] = time.perf_counter() - start
            tr = Transformer(sheet)
            start = time.perf_counter()
            top = tr.transform_to_tree(doc, params)
            run_own["(templates + key tables)"] = time.perf_counter() - start
            start = time.perf_counter()
            serialize(top, sheet.output)
            run_own["(serialise)"] = time.perf_counter() - start
            for label, own in run_own.items():
                best[label] = min(best[label], own)
            calls, keys = dict(run_calls), dict(run_keys)
    finally:
        gc.enable()
        Transformer._invoke, Transformer._key = invoke, key
        Transformer._key_table = key_table
    return dict(best), calls, keys, doc


def main() -> None:
    reps = int(sys.argv[1]) if len(sys.argv) > 1 else 15
    pipeline = Pipeline()
    best, calls, keys, doc = profile(pipeline.to_model(ComposeWide().model(0)), reps)
    print(f"XMI2CNX on compose-wide150 (152 tasks), min of {reps}, collector off")
    print(f"source document: {len(doc.kinds)} rows, {len(doc.attr_names)} attributes")
    print(f"{'':<28}{'calls':>7}{'own ms':>9}{'key()':>7}")
    for label, own in sorted(best.items(), key=lambda item: -item[1]):
        count = sum(keys.values()) if label.startswith("(templates") else keys.get(label, "")
        print(f"{label:<28}{calls.get(label, ''):>7}{own * 1000:>9.1f}{count:>7}")


if __name__ == "__main__":
    main()
