"""Invariant oracles: what must hold after *any* fault schedule.

Each oracle is a pure function from a :class:`~repro.sim.harness.SimResult`
to a list of violation strings (empty = invariant held).  They encode the
guarantees the runtime has accumulated PR by PR as machine-checkable
statements rather than per-test assertions:

* ``job-completes`` -- liveness: a convergence-biased schedule always
  lets the retry/replay machinery finish the job;
* ``exactly-once-result`` -- duplicated, reordered, or replayed result
  deliveries must not change the join's output: the final matrix equals
  the fault-free serial baseline;
* ``replay-equivalence`` -- :func:`~repro.cn.durability.replay_job` is a
  pure fold: re-folding the journal yields the same job, and every
  runtime-completed task is completed in it;
* ``ledger-drain`` -- GC watermarks never exceed the journaled delivery
  count and the replayed ledger holds exactly the un-collected suffix;
* ``journal-is-the-job`` -- on a finished durable run the owner's
  replica, folded, is the live owner job: the job applies the kinds it
  journals only from records the journal accepted, so a zombie's write
  behind the adoption fence reaches neither;
* ``lock-order`` -- under ``verify_locking`` no interleaving of the run
  could deadlock: the lock verifier's graph is a DAG;
* ``no-escaped-exception`` -- no exception reached
  ``threading.excepthook`` during the run.

:func:`run_oracles` evaluates the registry; ``green`` means every list
came back empty.
"""

from __future__ import annotations

import math
import pickle
import zlib
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.cn import Job, JournalRecord, replay_job

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .harness import SimResult

__all__ = ["ORACLES", "oracle", "run_oracles", "job_view"]

Oracle = Callable[["SimResult"], list[str]]

#: name -> oracle, in registration order
ORACLES: dict[str, Oracle] = {}

#: the oracles that read the journal: skipped when the run kept none
JOURNAL_ORACLES = {
    "replay-equivalence",
    "ledger-drain",
    "journal-is-the-job",
}


def oracle(name: str) -> Callable[[Oracle], Oracle]:
    """Register an invariant under *name* (decorator)."""

    def register(fn: Oracle) -> Oracle:
        ORACLES[name] = fn
        return fn

    return register


def run_oracles(
    result: "SimResult", only: list[str] | None = None
) -> dict[str, list[str]]:
    """Evaluate the registry; returns only the oracles that found
    violations (empty dict = all green)."""
    findings: dict[str, list[str]] = {}
    for name, fn in ORACLES.items():
        if only is not None and name not in only:
            continue
        if name in JOURNAL_ORACLES and not result.schedule.durable:
            continue
        violations = fn(result)
        if violations:
            findings[name] = violations
    return findings


# -- shared journal views ---------------------------------------------------------


def _fingerprint(value: Any) -> Optional[int]:
    """CRC32 of *value*'s pickle (None: unpicklable), so values whose
    ``==`` is undefined (numpy-bearing) compare."""
    try:
        return zlib.crc32(pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError, RecursionError):
        return None


def job_view(job: Job) -> dict:
    """The comparable core of a job's journaled state: results and
    checkpoints by fingerprint, the ledger as per-task serial sequences."""
    tasks = [job.tasks[name] for name in job.task_order]
    return {
        "states": job.states(),
        "attempts": {rt.name: rt.attempts for rt in tasks},
        "epochs": {rt.name: rt.epoch for rt in tasks},
        "nodes": {rt.name: rt.node_name for rt in tasks},
        "results": {n: _fingerprint(r) for n, r in job.results().items()},
        "checkpoints": [_fingerprint(job.load_checkpoint(n)) for n in job.task_order],
        "mepoch": job.manager_epoch,
        "gc": dict(job.gc_watermarks),
        "deliveries": {t: [m.serial for m in ms] for t, ms in job.ledger().items()},
        "finished": job.finished,
        "failed": job.failed is not None,
    }


# -- the invariants ---------------------------------------------------------------


@oracle("job-completes")
def job_completes(result: "SimResult") -> list[str]:
    if result.done:
        return []
    return [
        f"job {result.job_id} did not complete: {result.status}"
        f" ({result.error}); states={result.states}"
    ]


@oracle("exactly-once-result")
def exactly_once_result(result: "SimResult") -> list[str]:
    """Duplication/replay must not change the join's effect."""
    got = result.result_matrix
    if got is None:
        return []  # liveness failure already reported by job-completes
    expected = result.expected
    if len(got) != len(expected) or any(
        len(row) != len(exp) for row, exp in zip(got, expected)
    ):
        return [
            f"result shape {len(got)}x{len(got[0]) if got else 0} !="
            f" expected {len(expected)}x{len(expected[0]) if expected else 0}"
            " (a dropped or double-counted block)"
        ]
    for i, (row, exp) in enumerate(zip(got, expected)):
        for j, (a, b) in enumerate(zip(row, exp)):
            same = (a == b) or (math.isinf(a) and math.isinf(b))
            if not same and abs(a - b) > 1e-9:
                return [f"result[{i}][{j}] = {a} != serial baseline {b}"]
    return []


@oracle("replay-equivalence")
def replay_equivalence(result: "SimResult") -> list[str]:
    violations: list[str] = []
    if not result.records:
        if result.done:
            violations.append("job completed but no journal replica survived")
        return violations
    first = job_view(replay_job(result.job_id, result.records))
    second = job_view(replay_job(result.job_id, result.records))
    if first != second:
        diff = [key for key in first if first[key] != second[key]]
        violations.append(f"replay_job is not a pure fold; differing keys: {diff}")
    if result.done:
        replayed = first["states"]
        for task, state in result.states.items():
            if state == "COMPLETED" and replayed.get(task) != "COMPLETED":
                violations.append(
                    f"task {task!r} completed at runtime but replays as"
                    f" {replayed.get(task)!r}"
                )
        if not first["finished"]:
            violations.append("job finished at runtime but journal never did")
        elif first["failed"]:
            violations.append("job completed at runtime but journal says failed")
    return violations


@oracle("ledger-drain")
def ledger_drain(result: "SimResult") -> list[str]:
    """GC watermarks stay within the journaled ledger, and the replayed
    ledger is exactly the un-collected suffix."""
    if not result.records:
        return []
    job = replay_job(result.job_id, result.records)
    ledger = job.ledger()
    totals = {
        task: len(serials) for task, serials in _ledgered_counts(result.records).items()
    }
    violations = []
    for task, watermark in job.gc_watermarks.items():
        total = totals.get(task, 0)
        if watermark > total:
            violations.append(
                f"gc watermark {watermark} for {task!r} exceeds"
                f" {total} journaled deliveries"
            )
            continue
        remaining = len(ledger.get(task, []))
        if remaining != total - watermark:
            violations.append(
                f"replayed ledger for {task!r} holds {remaining} entries,"
                f" expected {total} - {watermark}"
            )
    return violations


def _ledgered_counts(records: list[JournalRecord]) -> dict[str, list[int]]:
    """Task -> journaled delivery serials *with* duplicates (GC counts
    entries, not distinct serials), under the same epoch fence the
    replay fold applies -- otherwise a stale-epoch delivery would count
    here but not in the folded job."""
    out: dict[str, list[int]] = {}
    high = 0
    for record in records:
        if record.mepoch < high:
            continue
        high = max(high, record.mepoch)
        if record.kind == "delivery":
            for message in record.data["messages"]:
                out.setdefault(message.recipient, []).append(message.serial)
    return out


@oracle("journal-is-the-job")
def journal_is_the_job(result: "SimResult") -> list[str]:
    """The owner's replica, folded, equals the live owner job: append,
    then apply leaves the journal no record the job lacks, and the job no
    state the journal lacks."""
    if result.owner_view is None:
        return []
    folded = job_view(replay_job(result.job_id, result.owner_records))
    live = result.owner_view
    if folded != live:
        diff = [key for key in live if live[key] != folded.get(key)]
        return [f"the owner's replica folds to another job; differing keys: {diff}"]
    return []


@oracle("lock-order")
def lock_order(result: "SimResult") -> list[str]:
    """The verifier's LockOrderError, reported instead of raised."""
    return [result.lock_order] if result.lock_order else []


@oracle("no-escaped-exception")
def no_escaped_exception(result: "SimResult") -> list[str]:
    """A thread that died of an exception fails the run instead of
    printing a traceback nobody reads."""
    return [f"exception escaped thread {entry}" for entry in result.escaped]
