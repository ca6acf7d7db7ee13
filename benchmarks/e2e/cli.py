"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e --workload W --seed N --seconds S --trace 0|1``
measures one workload in this (fresh) interpreter and prints one JSON
object as its last line: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  ``run`` does that for every
workload, each in its own interpreter, ``compare`` judges two result
files, ``golden`` verifies or regenerates the golden references.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Optional

from repro.core.transform import STYLESHEET_DIR
from repro.xslt import Stylesheet

from . import layers
from .harness import (
    CALIB_REFERENCE_MS,
    Block,
    Tracer,
    calibrate,
    good_ops,
    median,
    normalised_ms,
    run_pass,
    warm_session,
)
from .report import (
    OUT_DIR,
    ROOT,
    compare,
    load_spec,
    print_metrics,
    print_repeat_summary,
    write_trace,
)
from .workloads import GOLDEN_DIR, WORKLOADS, Workload, compose_artifacts

#: fresh interpreters set up per measured run; ``setup_s`` is their median
SETUP_PROBES = 3
#: ops per pass under ``--quick`` (a plumbing check, not a measurement)
QUICK_OPS = 2


def _self_command(*args: str) -> list[str]:
    return [sys.executable, "-m", "benchmarks.e2e", *args]


# -- one workload, this interpreter ---------------------------------------------------

def _probe_setup(workload: Workload, seed: int, golden_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to its first timed op:
    imports, input generation, stylesheet load, cluster build, warm-up."""
    start = time.perf_counter()
    with subprocess.Popen(
        _self_command(
            "setup-probe", "--workload", workload.name, "--seed", str(seed),
            "--golden-dir", str(golden_dir),
        ),
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    ) as probe:
        ready = probe.stdout.readline().strip()
        elapsed = time.perf_counter() - start
        probe.communicate(timeout=120)
    if ready != "ready" or probe.returncode != 0:
        raise RuntimeError(f"setup probe for {workload.name} failed")
    return elapsed


def setup_probe(workload: Workload, seed: int, golden_dir: Path) -> int:
    inputs = workload.inputs(seed, golden_dir)
    cluster = workload.cluster()
    try:
        warm_session(workload, cluster, inputs, workload.warmups)
        print("ready", flush=True)
    finally:
        cluster.shutdown()
    return 0


def _limits(args: argparse.Namespace) -> dict[str, Any]:
    """How long a pass runs: ``--seconds``, or under ``--quick`` one block
    of a few ops with no warm-up."""
    if args.quick:
        return {
            "seconds": 3600.0, "ops_per_block": QUICK_OPS, "max_blocks": 1,
            "warmups": 0,
        }
    return {"seconds": args.seconds}


def measure_end_to_end(
    workload: Workload, args: argparse.Namespace
) -> tuple[dict[str, float], list[Block]]:
    golden_dir = Path(args.golden_dir)
    probes = 1 if args.quick else SETUP_PROBES
    setup = [_probe_setup(workload, args.seed, golden_dir) for _ in range(probes)]
    inputs = workload.inputs(args.seed, golden_dir)
    blocks = run_pass(workload, inputs, workload.op, **_limits(args))
    ops = [op for block in blocks for op in block.ops]
    good = good_ops(blocks)
    wall_s = sum(normalised_ms(ops)) / 1000.0
    metrics = {
        "setup_s": median(setup),
        "op_latency_p50_ms": median(normalised_ms(good)),
        "ops_per_s": len(good) / wall_s,
        "cpu_ms_per_op": sum(op.cpu_ms / op.speed for op in ops) / len(ops),
        # through the first block only: a fixed number of ops, so the
        # value does not depend on how many blocks the time budget allowed
        "peak_rss_mb": blocks[0].peak_rss_mb,
    }
    return metrics, blocks


def measure_layers(
    workload: Workload, args: argparse.Namespace, names: list[str]
) -> tuple[dict[str, float], list[Block]]:
    # cold stylesheet load first, before any op caches the parsed sheet
    start = time.perf_counter()
    Stylesheet.from_file(STYLESHEET_DIR / "xmi2cnx.xsl")
    load_ms = (time.perf_counter() - start) * 1000.0
    load_ms /= calibrate() / CALIB_REFERENCE_MS
    inputs = workload.inputs(args.seed, Path(args.golden_dir))
    tracer = Tracer()

    def traced_op(session: Any, inputs: Any, index: int) -> Any:
        with tracer.op():
            return workload.staged(session, inputs, index, tracer)

    # One block of each pass in turn, each given the same slice of the
    # time, so that drift of the machine and of the process (heap and
    # journal growth) lands on every pass alike: the traced pass, its
    # untraced counterpart, the two passes that switch a default off from
    # outside, and Portal.submit where that is not the same call.
    passes: dict[str, tuple[Any, Optional[Any], dict[str, Any]]] = {
        "plain": (workload.plain, None, {}),
        "traced": (traced_op, layers, {}),
        "no_telemetry": (workload.plain, None, {"telemetry": None}),
        "no_durability": (workload.plain, None, {"durable": False}),
    }
    if type(workload).plain is not Workload.plain:
        passes["user"] = (workload.op, None, {})
    limits = {**_limits(args), "max_blocks": 1}
    total = limits.pop("seconds")
    deadline = time.perf_counter() + total
    blocks: dict[str, list[Block]] = {name: [] for name in passes}
    while True:
        for name, (fn, observer, overrides) in passes.items():
            left = max(deadline - time.perf_counter(), 0.0)
            blocks[name] += run_pass(
                workload, inputs, fn, observer=observer,
                seconds=min(left, total / len(passes)),
                first_op=sum(len(b.ops) for b in blocks[name]),
                **limits, **overrides,
            )
        if args.quick or time.perf_counter() >= deadline:
            break
    measured = [block for name in blocks for block in blocks[name]]
    blocks.setdefault("user", blocks["plain"])
    values = layers.per_layer(
        names, tracer, **blocks,
        xslt_load_ms=load_ms, kernel_ms=getattr(inputs, "kernel_ms", 0.0),
    )
    write_trace(workload.name, tracer)
    return values, measured


def measure(args: argparse.Namespace) -> int:
    spec = load_spec()
    workload = WORKLOADS[args.workload]
    # One core for every workload; worker processes and set-up probes
    # inherit the mask.  Across two cores the kernel decides at start-up
    # whether the task threads share a core or hand the interpreter lock
    # from core to core (floyd128-inproc: 57 or 90 ms/op, kept for the
    # life of the process), and the second core is what a busy neighbour
    # takes first.  On one core the calibration loop and the op see the
    # same machine.  ROADMAP item 4 states its gate "on one core" too.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values, blocks = measure_layers(workload, args, [m["name"] for m in section])
    else:
        values, blocks = measure_end_to_end(workload, args)
    ops = [op for block in blocks for op in block.ops]
    failed = [op for op in ops if op.error]
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section
    }
    print_metrics(
        workload.name, metrics,
        f"seed {args.seed}, {len(ops)} timed ops, {len(failed)} failed"
        f" = {100.0 * len(failed) / len(ops):.2f}% failed_ops_pct",
    )
    for op in failed[:5]:
        print(f"  FAILED: {op.error}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(ops),
                "failed": len(failed),
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


# -- every workload, one interpreter each ------------------------------------------------

def _measure_child(workload: str, args: argparse.Namespace, trace: int) -> dict[str, Any]:
    command = _self_command(
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        "--golden-dir", args.golden_dir,
    )
    if args.quick:
        command.append("--quick")
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    *report, last = done.stdout.rstrip("\n").split("\n")
    print("\n".join(report), flush=True)
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        raise RuntimeError(
            f"{workload} --trace {trace} exited {done.returncode} without a result"
        ) from None
    return result


def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = args.workload or [w["name"] for w in spec["workloads"]]
    result: dict[str, Any] = {"seed": args.seed, "seconds": args.seconds, "sets": []}
    started = time.perf_counter()
    failed = 0
    # sets interleave the workloads, so a slow minute on the shared
    # machine lands on every workload and not on N runs of one
    for index in range(args.repeat):
        if args.repeat > 1:
            print(f"#### set {index + 1} of {args.repeat}")
        entry: dict[str, Any] = {}
        for name in names:
            untraced = _measure_child(name, args, 0)
            traced = _measure_child(name, args, 1)
            entry[name] = {
                "end_to_end": {k: m["value"] for k, m in untraced["metrics"].items()},
                "per_layer": {k: m["value"] for k, m in traced["metrics"].items()},
                "attempted": untraced["attempted"] + traced["attempted"],
                "failed": untraced["failed"] + traced["failed"],
            }
            failed += entry[name]["failed"]
        result["sets"].append(entry)
    if args.repeat > 1:
        print_repeat_summary(result, spec)
    OUT_DIR.mkdir(exist_ok=True)
    out = Path(args.out) if args.out else OUT_DIR / "run.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(
        f"{len(names)} workload(s) x {args.repeat} set(s) in "
        f"{time.perf_counter() - started:.0f} s, {failed} failed op(s); wrote {out}"
    )
    return 1 if failed else 0


# -- golden references ----------------------------------------------------------------------

def golden(args: argparse.Namespace) -> int:
    """Verify ``golden/compose-wide150.json`` (or rewrite it with
    ``--regen-golden``).  The generator runs twice: artifacts that are not
    byte-deterministic cannot be golden.  It raises, and nothing is
    written, when the native oracle disagrees with the stylesheet."""
    path = Path(args.golden_dir) / "compose-wide150.json"
    first, second = compose_artifacts(), compose_artifacts()
    if first != second:
        print("generated artifacts differ between two runs", file=sys.stderr)
        return 1
    if args.regen_golden:
        path.write_text(json.dumps(first, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
        return 0
    stored = json.loads(path.read_text(encoding="utf-8"))
    if stored != first:
        print(f"{path} is stale: {stored} != {first}", file=sys.stderr)
        return 1
    print(f"{path} matches the generated artifacts (generated twice)")
    return 0


# -- entry point --------------------------------------------------------------------------------

def _parser(default_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=11)
        p.add_argument("--golden-dir", default=str(GOLDEN_DIR))

    def timing(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seconds", type=float, default=default_seconds)
        p.add_argument("--quick", action="store_true",
                       help=f"{QUICK_OPS} ops per pass: checks the plumbing, measures nothing")

    m = commands.add_parser("measure", help="one workload, in this interpreter")
    m.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    m.add_argument("--trace", type=int, choices=(0, 1), default=0)
    common(m)
    timing(m)
    m.set_defaults(handler=measure)

    s = commands.add_parser("setup-probe", help="set up one workload and exit")
    s.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    common(s)
    s.set_defaults(
        handler=lambda a: setup_probe(WORKLOADS[a.workload], a.seed, Path(a.golden_dir))
    )

    r = commands.add_parser("run", help="every workload, traced and untraced")
    r.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    r.add_argument("--repeat", type=int, default=1,
                   help="whole sets to run, workloads interleaved set by set")
    r.add_argument("--out", help="result file (default: out/run.json)")
    common(r)
    timing(r)
    r.set_defaults(handler=run)

    c = commands.add_parser("compare", help="judge result file B against A")
    c.add_argument("a")
    c.add_argument("b")
    c.set_defaults(handler=_compare)

    g = commands.add_parser("golden", help="verify the golden references")
    g.add_argument("--regen-golden", action="store_true")
    g.add_argument("--golden-dir", default=str(GOLDEN_DIR))
    g.set_defaults(handler=golden)
    return parser


def _compare(args: argparse.Namespace) -> int:
    with open(args.a, encoding="utf-8") as fa, open(args.b, encoding="utf-8") as fb:
        return 1 if compare(json.load(fa), json.load(fb), load_spec()) else 0


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0].startswith("--"):
        # the form BENCHMARK.json's command is run in
        argv = ["measure", *argv]
    args = _parser(load_spec()["run_seconds"]).parse_args(argv)
    return args.handler(args)
