"""Printing, the trace file, run-to-run spread and the comparison rule.

``compare`` is the rule later performance changes are judged by: per
workload and end-to-end metric, both medians, the ratio with its base,
the bound from ``BENCHMARK.json`` and a verdict.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Optional

from .harness import Tracer

__all__ = [
    "ROOT",
    "load_spec",
    "print_metrics",
    "write_trace",
    "quartiles",
    "spread",
    "print_repeat_summary",
    "compare",
]

ROOT = Path(__file__).resolve().parents[2]
OUT_DIR = Path(__file__).parent / "out"


def load_spec() -> dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def print_metrics(workload: str, metrics: dict[str, dict[str, Any]], note: str) -> None:
    width = max(len(name) for name in metrics)
    print(f"== {workload} ({note})")
    for name, metric in metrics.items():
        print(f"  {name:<{width}}  {metric['value']:>14.4f} {metric['unit']}")


def write_trace(workload: str, tracer: Tracer) -> Path:
    """Spans to ``out/trace-<workload>.jsonl``, times relative to the
    first span."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}.jsonl"
    origin = tracer.spans[0]["start"] if tracer.spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            row = dict(span, start=span["start"] - origin, end=span["end"] - origin)
            fh.write(json.dumps(row) + "\n")
    return path


def quartiles(values: list[float]) -> tuple[float, float]:
    """(Q1, Q3) as ``statistics.quantiles(values, n=4)`` gives them, which
    is how the bounds were sized; below four values that method
    extrapolates past the data, so the quartiles are interpolated."""
    method = "exclusive" if len(values) >= 4 else "inclusive"
    q1, _, q3 = statistics.quantiles(values, n=4, method=method)
    return q1, q3


def spread(values: list[float]) -> Optional[float]:
    """Distance between the quartiles as a share of the median -- the
    run-to-run spread the bounds are sized against.  None below two
    values."""
    if len(values) < 2:
        return None
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    q1, q3 = quartiles(values)
    return abs((q3 - q1) / middle)


def _series(result: dict[str, Any], workload: str, metric: str) -> list[float]:
    return [
        s[workload]["end_to_end"][metric]
        for s in result["sets"]
        if metric in s.get(workload, {}).get("end_to_end", {})
    ]


def print_repeat_summary(result: dict[str, Any], spec: dict[str, Any]) -> None:
    """Median, quartiles and the largest relative deviation of every
    end-to-end metric across the sets of one ``run --repeat``."""
    print(f"== across {len(result['sets'])} sets")
    for workload in result["sets"][0]:
        for metric in spec["end_to_end"]:
            values = _series(result, workload, metric["name"])
            if len(values) < 2:
                continue
            middle = statistics.median(values)
            q1, q3 = quartiles(values)
            deviation = max(abs(v - middle) for v in values) / middle
            print(
                f"  {workload:<18} {metric['name']:<18} median {middle:10.3f} "
                f"{metric['unit']:<4} q1 {q1:10.3f} q3 {q3:10.3f} "
                f"spread {100 * (q3 - q1) / middle:5.1f}%  max dev {100 * deviation:5.1f}%"
            )


def _verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    base, new = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new - base) / base  # as a share of A's median
    # quartiles of fewer than four runs say nothing about the noise: a gain
    # then has to clear the bound itself
    noise = spread(a) if len(a) >= 4 else None
    if noise is not None and noise > bound:
        # A's own runs disagree by more than the bound: only a clean
        # separation of every run counts
        if better == "lower":
            clean = max(b) < min(a)
        else:
            clean = min(b) > max(a)
        return "better" if clean else "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(bound if noise is None else noise, 0.01):
        return "better"
    return "same"


def compare(a: dict[str, Any], b: dict[str, Any], spec: dict[str, Any]) -> int:
    """Print the comparison table; returns the number of ``worse`` rows."""
    worse = 0
    print(
        f"{'workload':<18} {'metric':<18} {'A median':>12} {'B median':>12} "
        f"{'bound':>6} {'A spread':>9}  verdict (ratio with its base)"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            va = _series(a, workload, metric["name"])
            vb = _series(b, workload, metric["name"])
            if not va or not vb:
                continue
            verdict = _verdict(va, vb, metric["better"], metric["bound"])
            worse += verdict == "worse"
            base, new = statistics.median(va), statistics.median(vb)
            noise = spread(va) if len(va) >= 4 else None
            print(
                f"{workload:<18} {metric['name']:<18} {base:>12.3f} {new:>12.3f} "
                f"{100 * metric['bound']:>5.0f}% "
                f"{'n/a' if noise is None else f'{100 * noise:.1f}%':>9}  {verdict}"
                f" ({new / base:.3f}x of A's {base:.3f} {metric['unit']})"
            )
        for failed_in, result in (("A", a), ("B", b)):
            failed = sum(s.get(workload, {}).get("failed", 0) for s in result["sets"])
            if failed:
                print(f"{workload:<18} {failed} failed op(s) in {failed_in}")
                worse += failed_in == "B"
    return worse
