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
  pure fold: re-folding the journal yields the same snapshot, and every
  runtime-completed task is completed in the snapshot;
* ``sheds-subset-of-deliveries`` -- every shed record points at a
  journaled delivery (journaled-then-lost count is zero);
* ``budget-monotone`` -- no routed message carries a deadline past the
  job's end-to-end budget;
* ``ledger-drain`` -- GC watermarks never exceed the journaled delivery
  count and the replayed ledger holds exactly the un-collected suffix;
* ``fenced-zombies`` -- records a zombie manager wrote behind the
  adoption fence contribute nothing to the replayed state;
* ``dead-letter-accounting`` -- quarantines only ever trace back to an
  injected corruption, are fully journaled, and never happen with
  checksums off;
* ``lock-order`` -- under ``verify_locking`` no interleaving of the run
  could deadlock: the lock verifier's graph is a DAG.

:func:`run_oracles` evaluates the registry; ``green`` means every list
came back empty.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable

from repro.cn.durability import JobSnapshot, JournalRecord, replay_job

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from .harness import SimResult

__all__ = ["ORACLES", "oracle", "run_oracles", "delivered_serials"]

Oracle = Callable[["SimResult"], list[str]]

#: name -> oracle, in registration order
ORACLES: dict[str, Oracle] = {}

#: the oracles that read the journal: skipped when the run kept none
JOURNAL_ORACLES = {"replay-equivalence", "sheds-subset-of-deliveries"}
JOURNAL_ORACLES |= {"budget-monotone", "ledger-drain", "fenced-zombies"}


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


def delivered_serials(records: list[JournalRecord]) -> dict[str, set[int]]:
    """Task -> serials the journal ledgered (pre-GC, raw record scan)."""
    out: dict[str, set[int]] = {}
    for record in records:
        if record.kind == "delivery":
            for message in record.data["messages"]:
                out.setdefault(message.recipient, set()).add(message.serial)
    return out


def _snapshot_view(snapshot: JobSnapshot) -> dict:
    """The comparable core of a snapshot (skips Message/TaskSpec payloads,
    whose numpy-bearing equality is undefined; delivery identity is
    compared through per-task serial sequences instead)."""
    return {
        "states": dict(snapshot.states),
        "attempts": dict(snapshot.attempts),
        "epochs": dict(snapshot.epochs),
        "nodes": dict(snapshot.nodes),
        "mepoch": snapshot.mepoch,
        "gc": dict(snapshot.gc_watermarks),
        "sheds": {task: list(serials) for task, serials in snapshot.sheds.items()},
        "dead_letters": [dict(entry) for entry in snapshot.dead_letters],
        "deliveries": {
            task: [message.serial for message in messages]
            for task, messages in snapshot.deliveries.items()
        },
        "finished": snapshot.finished,
        "failed": snapshot.failed,
        "deadline": snapshot.deadline,
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
    first = _snapshot_view(replay_job(result.job_id, result.records))
    second = _snapshot_view(replay_job(result.job_id, result.records))
    if first != second:
        diff = [key for key in first if first[key] != second[key]]
        violations.append(f"replay_job is not a pure fold; differing keys: {diff}")
    if result.done:
        snapshot = replay_job(result.job_id, result.records)
        for task, state in result.states.items():
            if state == "COMPLETED" and snapshot.states.get(task) != "COMPLETED":
                violations.append(
                    f"task {task!r} completed at runtime but replays as"
                    f" {snapshot.states.get(task)!r}"
                )
        if not snapshot.finished:
            violations.append("job finished at runtime but journal never did")
        elif snapshot.failed:
            violations.append("job completed at runtime but journal says failed")
    return violations


@oracle("sheds-subset-of-deliveries")
def sheds_subset_of_deliveries(result: "SimResult") -> list[str]:
    """Zero journaled-then-lost: a shed without a ledgered delivery is a
    message the replay path can never re-offer."""
    ledgered = delivered_serials(result.records)
    violations = []
    for record in result.records:
        if record.kind != "shed":
            continue
        task = record.data.get("task", "")
        serial = int(record.data.get("serial", 0))
        if serial not in ledgered.get(task, set()):
            violations.append(
                f"shed serial {serial} for {task!r} has no delivery record"
            )
    return violations


@oracle("budget-monotone")
def budget_monotone(result: "SimResult") -> list[str]:
    """No routed message may outlive the job's end-to-end budget."""
    snapshot = replay_job(result.job_id, result.records)
    budget = snapshot.deadline
    if budget is None:
        budget = result.job_deadline
    if budget is None:
        return []
    violations = []
    for record in result.records:
        if record.kind != "delivery":
            continue
        for message in record.data["messages"]:
            if message.deadline is not None and message.deadline > budget + 1e-9:
                violations.append(
                    f"message {message.serial} to {message.recipient!r} carries"
                    f" deadline {message.deadline} past job budget {budget}"
                )
    return violations


@oracle("ledger-drain")
def ledger_drain(result: "SimResult") -> list[str]:
    """GC watermarks stay within the journaled ledger, and the replayed
    ledger is exactly the un-collected suffix."""
    if not result.records:
        return []
    snapshot = replay_job(result.job_id, result.records)
    totals = {
        task: len(serials) for task, serials in _ledgered_counts(result.records).items()
    }
    violations = []
    for task, watermark in snapshot.gc_watermarks.items():
        total = totals.get(task, 0)
        if watermark > total:
            violations.append(
                f"gc watermark {watermark} for {task!r} exceeds"
                f" {total} journaled deliveries"
            )
            continue
        remaining = len(snapshot.deliveries.get(task, []))
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
    here but not in the snapshot."""
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


@oracle("fenced-zombies")
def fenced_zombies(result: "SimResult") -> list[str]:
    """Records behind the adoption fence must contribute nothing: folding
    the journal with stale-epoch records pre-filtered yields the same
    snapshot as folding the raw sequence."""
    if not result.records:
        return []
    filtered: list[JournalRecord] = []
    high = 0
    stale = 0
    for record in result.records:
        if record.mepoch < high:
            stale += 1
            continue
        high = max(high, record.mepoch)
        filtered.append(record)
    raw_view = _snapshot_view(replay_job(result.job_id, result.records))
    fenced_view = _snapshot_view(replay_job(result.job_id, filtered))
    if raw_view != fenced_view:
        diff = [key for key in raw_view if raw_view[key] != fenced_view[key]]
        return [
            f"{stale} stale-epoch record(s) leaked into the replayed state;"
            f" differing keys: {diff}"
        ]
    return []


@oracle("dead-letter-accounting")
def dead_letter_accounting(result: "SimResult") -> list[str]:
    """Quarantines trace to injected corruptions, are journaled with a
    replayable ledger entry, and never fire with checksums off."""
    snapshot = replay_job(result.job_id, result.records)
    journaled = snapshot.dead_letters
    violations = []
    if not result.schedule.checksums:
        if journaled or result.dead_letters:
            violations.append(
                f"{len(journaled) or len(result.dead_letters)} dead letter(s)"
                " recorded with checksums disabled"
            )
        return violations
    corruptions = sum(
        1 for fault in result.fault_log if fault.get("kind") == "queue-corrupt"
    )
    if len(journaled) > corruptions:
        violations.append(
            f"{len(journaled)} dead letters exceed {corruptions} injected"
            " corruptions"
        )
    ledgered = delivered_serials(result.records)
    for entry in journaled:
        task = entry.get("task", "")
        serial = int(entry.get("serial", 0))
        if serial not in ledgered.get(task, set()):
            violations.append(
                f"dead letter serial {serial} for {task!r} has no ledgered"
                " delivery to re-offer"
            )
    return violations


@oracle("lock-order")
def lock_order(result: "SimResult") -> list[str]:
    """The verifier's LockOrderError, reported instead of raised."""
    return [result.lock_order] if result.lock_order else []
