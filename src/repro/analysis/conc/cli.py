"""``python -m repro.analysis conc`` -- the conclint command line.

Runs the CC passes over Python source trees (default ``src/repro``) and
prints one combined report.  Exit status matches cnlint: 0 clean, 1
error-severity findings (or warnings under ``--werror``), 2 unreadable
input.

Baselines: ``--write-baseline FILE`` records the current findings as
line-number-independent fingerprints; ``--baseline FILE`` suppresses
exactly those, so CI gates on *new* CC findings without requiring the
historical ones to be fixed first.  ``--runtime-report`` additionally
boots a small instrumented cluster, runs a toy workload, and prints the
observed lock-order graph and held-time stats.
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from ..diagnostics import Report
from .static import CC_CODES, analyze_paths, fingerprint

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis conc",
        description="conclint: concurrency correctness analysis of the CN "
        "runtime (lock discipline, blocking-under-lock, exception hygiene, "
        "transport readiness)",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument("--json", action="store_true", help="emit diagnostics as JSON")
    parser.add_argument(
        "--werror", action="store_true", help="exit non-zero on warnings too"
    )
    parser.add_argument(
        "--no-hints", action="store_true", help="omit fix hints from the report"
    )
    parser.add_argument(
        "--codes", action="store_true", help="list every CC code and exit"
    )
    parser.add_argument(
        "--baseline", metavar="FILE",
        help="suppress findings whose fingerprints appear in FILE",
    )
    parser.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the current findings' fingerprints to FILE and exit 0",
    )
    parser.add_argument(
        "--runtime-report", action="store_true",
        help="also run an instrumented toy workload and print the observed "
        "lock-order graph",
    )
    return parser


def _fingerprint(diag) -> str:
    return fingerprint(diag.location.source, diag.code, diag.location.path, "")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.codes:
        for code, description in sorted(CC_CODES.items()):
            print(f"{code}  {description}")
        return 0

    paths = args.paths or ["src/repro"]
    report = analyze_paths(paths)

    if args.write_baseline:
        fingerprints = sorted({_fingerprint(d) for d in report})
        with open(args.write_baseline, "w", encoding="utf-8") as fh:
            json.dump({"conclint_baseline": fingerprints}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {len(fingerprints)} fingerprint(s) to {args.write_baseline}")
        return 0

    if args.baseline:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                suppressed = set(json.load(fh).get("conclint_baseline", []))
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read baseline {args.baseline}: {exc}")
        report = Report(
            d for d in report if _fingerprint(d) not in suppressed
        )

    status = 0
    if args.json:
        print(json.dumps({"conclint": report.to_json()}, indent=2))
    else:
        print(report.render(title="conclint", with_hints=not args.no_hints))
    if report.by_code("CC001"):
        status = 2
    elif report.errors() or (args.werror and report.warnings()):
        status = 1

    if args.runtime_report:
        print()
        print(_runtime_report())
    return status


def _runtime_report() -> str:
    """Boot a small cluster inside ``verified_locks()``, run a toy
    dependent two-task job, and render the lock-order graph it produced."""
    from repro.cn import CNAPI, Cluster, Task, TaskRegistry, TaskSpec

    from .runtime import verified_locks

    class _Probe(Task):
        def __init__(self, *params):
            self.params = params

        def run(self, ctx):  # pragma: no cover - exercised via the CLI only
            return tuple(self.params)

    registry = TaskRegistry()
    registry.register_class("probe.jar", "conclint.Probe", _Probe)
    with verified_locks() as verifier, Cluster(2, registry=registry) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("conclint-probe")
        api.create_task(handle, TaskSpec(name="a", jar="probe.jar", cls="conclint.Probe"))
        api.create_task(
            handle,
            TaskSpec(name="b", jar="probe.jar", cls="conclint.Probe", depends=("a",)),
        )
        api.start_job(handle)
        api.wait(handle, timeout=30)
    data = verifier.report()
    lines = ["runtime lock-order report (toy fan-out workload):"]
    for edge in data["edges"]:
        lines.append(f"  {edge['holder']} -> {edge['acquired']}  [{edge['thread']}]")
    if not data["edges"]:
        lines.append("  (no nested acquisitions observed)")
    lines.append(f"  cycles: {len(data['cycles'])}")
    lines.append("  held-time (class-level):")
    for name, stats in data["held"].items():
        lines.append(
            f"    {name}: n={stats['acquisitions']} "
            f"total={stats['total_held_s']}s max={stats['max_held_s']}s"
        )
    return "\n".join(lines)
