"""Measurement primitives: the block loop, the stopwatch tracer, the
calibration loop and process accounting.

Nothing here knows a workload by name; :mod:`.workloads` supplies the
inputs, the op and its output check, this module times them.
"""

from __future__ import annotations

import gc
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Optional

__all__ = [
    "CheckFailed",
    "OpSample",
    "Block",
    "Tracer",
    "calibrate",
    "run_pass",
    "warm_session",
    "good_ops",
    "normalised_ms",
    "median",
    "quantile",
    "self_times",
]

#: size of the calibration loop's two halves
CALIB_ITERATIONS = 20_000
CALIB_ENTRIES = 5_600
#: what one calibration loop takes between ops on the reference sandbox
#: when its host is quiet.  Timings are reported at this speed: a sample
#: measured while the loop took 1.3x this long is divided by 1.3 (see
#: README, "Drift").
CALIB_REFERENCE_MS = 2.3

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20
_TICK_MS = 1000.0 / os.sysconf("SC_CLK_TCK")


class CheckFailed(AssertionError):
    """An op returned, but its output differs from the reference."""


def calibrate() -> float:
    """Milliseconds a fixed piece of interpreter work takes right now: half
    integer arithmetic, half allocation and dict traffic -- a busy
    neighbour slows the two by different amounts, and the measured
    program does both."""
    start = time.perf_counter()
    x = 0
    for i in range(CALIB_ITERATIONS):
        x += i * i % 7
    # strings and ints only: nothing the cyclic collector tracks, so no
    # collection of the measured program's heap can land inside the loop
    table = {}
    for i in range(CALIB_ENTRIES):
        table[str(i)] = i * 3
    for key, value in table.items():
        x += value + len(key)
    return (time.perf_counter() - start) * 1000.0


# -- process accounting -----------------------------------------------------

def rss_mb() -> float:
    """Resident set of this process, MiB."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def _peak_rss_mb() -> float:
    """High-water resident set of this process, MiB."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _private_mb(pid: int) -> float:
    """Resident pages *pid* shares with no one, MiB.  A forked worker's
    RSS counts every page it still shares with the coordinator; adding
    those up would count the coordinator once per worker."""
    total_kb = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def _child_cpu_ms(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        # comm may contain spaces; the numeric fields follow the last ")"
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) * _TICK_MS


def _worker_pids(cluster: Any) -> list[int]:
    pids = getattr(cluster.transport, "worker_pids", None)
    return list(pids().values()) if pids is not None else []


def _cpu_ms(workers: list[int]) -> tuple[float, float]:
    """(this process, its live workers) user+sys CPU so far, ms."""
    return time.process_time() * 1000.0, sum(_child_cpu_ms(p) for p in workers)


# -- samples ------------------------------------------------------------------

@dataclass
class OpSample:
    wall_ms: float
    cpu_ms: float
    worker_cpu_ms: float
    #: calibration loop time around this op / CALIB_REFERENCE_MS
    speed: float
    #: why the op counts as failed ("" = correct)
    error: str = ""
    #: counter deltas and per-job facts read after the op (traced pass)
    counts: dict[str, float] = field(default_factory=dict)


@dataclass
class Block:
    ops: list[OpSample]
    #: build + warm-up + shutdown + collect, seconds (all untimed for ops)
    rebuild_s: float
    #: RSS after the last op minus RSS after the warm-up, MiB
    retained_mb: float
    #: high-water RSS of this process plus what its live workers hold
    #: privately, MiB
    peak_rss_mb: float
    #: threads alive in the coordinator at the end of the last op
    threads: int
    calib_ms: list[float]


def good_ops(blocks: list[Block]) -> list[OpSample]:
    return [op for block in blocks for op in block.ops if not op.error]


def normalised_ms(ops: list[OpSample]) -> list[float]:
    return [op.wall_ms / op.speed for op in ops]


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# -- stopwatch spans -----------------------------------------------------------

class Tracer:
    """The benchmark's own spans: name, start, end, parent, op id.

    One client thread issues every op, so a stack gives the parent.
    Spans stay in memory; :func:`benchmarks.e2e.report.write_trace`
    writes them out when the workload ends."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._next_op = 0

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "op": self._op,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self) -> Iterator[dict[str, Any]]:
        """The root span of one op; every span inside carries its id."""
        self._op = self._next_op
        self._next_op += 1
        try:
            with self.span("op") as record:
                yield record
        finally:
            self._op = None


def self_times(spans: list[dict[str, Any]]) -> dict[int, dict[str, float]]:
    """op id -> span name -> self time in ms (duration minus children)."""
    child_ms: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_ms[span["parent"]] = child_ms.get(span["parent"], 0.0) + (
                span["end"] - span["start"]
            )
    out: dict[int, dict[str, float]] = {}
    for span in spans:
        own = (span["end"] - span["start"] - child_ms.get(span["id"], 0.0)) * 1000.0
        per_op = out.setdefault(span["op"], {})
        per_op[span["name"]] = per_op.get(span["name"], 0.0) + own
    return out


# -- the block loop ---------------------------------------------------------------

def run_pass(
    workload: Any,
    inputs: Any,
    fn: Callable[[Any, Any, int], Any],
    *,
    seconds: float,
    ops_per_block: Optional[int] = None,
    max_blocks: Optional[int] = None,
    warmups: Optional[int] = None,
    first_op: int = 0,
    observer: Optional[Any] = None,
    **cluster_overrides: Any,
) -> list[Block]:
    """Run blocks of timed ops until *seconds* have passed.

    A block builds a cluster with the defaults a user gets (plus
    *cluster_overrides*), runs the warm-up ops, then up to
    *ops_per_block* timed ops, shuts the cluster down and collects.
    ``fn(session, inputs, i)`` is the timed call; the workload's
    ``check`` and ``settle`` run after the stopwatch stops, and so does
    *observer* (``snapshot(cluster)`` of cumulative counters around the
    op, ``facts(cluster, outcome)`` after it)."""
    deadline = time.perf_counter() + seconds
    per_block = ops_per_block or workload.ops_per_block
    blocks: list[Block] = []
    next_op = first_op
    while True:
        block = _run_block(
            workload, inputs, fn, next_op, per_block, deadline,
            workload.warmups if warmups is None else warmups, observer,
            cluster_overrides,
        )
        blocks.append(block)
        next_op += len(block.ops)
        if time.perf_counter() >= deadline:
            break
        if max_blocks is not None and len(blocks) >= max_blocks:
            break
    return blocks


def warm_session(workload: Any, cluster: Any, inputs: Any, warmups: int) -> Any:
    """Open the workload's session on *cluster* and run its warm-up ops
    (unchecked: only timed ops count)."""
    session = workload.open(cluster)
    for w in range(warmups):
        workload.settle(session, workload.op(session, inputs, -1 - w))
    return session


def _run_block(
    workload: Any,
    inputs: Any,
    fn: Callable[[Any, Any, int], Any],
    first_op: int,
    n_ops: int,
    deadline: float,
    warmups: int,
    observer: Optional[Any],
    cluster_overrides: dict[str, Any],
) -> Block:
    untimed_start = time.perf_counter()
    cluster = workload.cluster(**cluster_overrides)
    ops: list[OpSample] = []
    calib: list[float] = []
    try:
        session = warm_session(workload, cluster, inputs, warmups)
        rss_start = rss_mb()
        untimed = time.perf_counter() - untimed_start
        calib.append(calibrate())
        for index in range(first_op, first_op + n_ops):
            before = observer.snapshot(cluster) if observer else {}
            cpu0, worker0 = _cpu_ms(_worker_pids(cluster))
            start = time.perf_counter()
            result, error = None, ""
            try:
                result = fn(session, inputs, index)
            except Exception as exc:  # noqa: BLE001 -- a failed op is a counted outcome, not a crash of the benchmark
                error = f"{type(exc).__name__}: {exc}"
            wall_ms = (time.perf_counter() - start) * 1000.0
            # proc workers fork on first use, possibly inside this op: one
            # that was not there at the start has spent all its CPU since
            workers = _worker_pids(cluster)
            cpu1, worker1 = _cpu_ms(workers)
            threads = threading.active_count()
            calib.append(calibrate())
            sample = OpSample(
                wall_ms=wall_ms,
                cpu_ms=cpu1 - cpu0 + worker1 - worker0,
                worker_cpu_ms=worker1 - worker0,
                speed=(calib[-2] + calib[-1]) / 2.0 / CALIB_REFERENCE_MS,
            )
            if not error:
                try:
                    workload.check(session, inputs, index, result)
                except CheckFailed as exc:
                    error = f"check: {exc}"
            if observer and not error:
                after = observer.snapshot(cluster)
                sample.counts = {key: after[key] - before[key] for key in after}
                sample.counts.update(observer.facts(cluster, result))
            sample.error = error
            ops.append(sample)
            if result is not None:
                workload.settle(session, result)
            if time.perf_counter() >= deadline:
                break
        retained = rss_mb() - rss_start
        peak = _peak_rss_mb() + sum(_private_mb(p) for p in workers)
        untimed_start = time.perf_counter()
    finally:
        cluster.shutdown()
    del cluster, session, result  # or the collector below frees nothing
    gc.collect()
    untimed += time.perf_counter() - untimed_start
    return Block(ops, untimed, retained, peak, threads, calib)
