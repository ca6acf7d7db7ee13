"""Oracle unit tests on synthetic SimResults (no cluster involved)."""

import itertools

from repro.cn import replay_job
from repro.cn.durability import JournalRecord
from repro.cn.messages import Message
from repro.sim import Schedule, run_oracles
from repro.sim.harness import SimResult
from repro.sim.oracles import JOURNAL_ORACLES, ORACLES, job_view

_seq = itertools.count(1)

JOB = "node0/jm-job1"


def record(kind, data, mepoch=1):
    return JournalRecord(next(_seq), JOB, kind, mepoch, "node0", data)


def delivery(task, payload="x", mepoch=1):
    return record("delivery", {"messages": [Message.user("s", task, payload)]}, mepoch)


def make_result(**overrides):
    base = dict(
        seed=1,
        schedule=Schedule(seed=1),
        status="done",
        error="",
        ticks=10,
        job_id=JOB,
        expected=[[0.0, 1.0], [1.0, 0.0]],
        result_matrix=[[0.0, 1.0], [1.0, 0.0]],
        states={"w0": "COMPLETED"},
        records=[],
        fault_log=[],
        fault_summary=[],
    )
    base.update(overrides)
    return SimResult(**base)


class TestRegistry:
    def test_all_oracles_registered(self):
        assert set(ORACLES) == {
            "job-completes",
            "exactly-once-result",
            "replay-equivalence",
            "ledger-drain",
            "journal-is-the-job",
            "lock-order",
            "no-escaped-exception",
        }

    def test_only_filter(self):
        result = make_result(status="timeout", error="stuck")
        findings = run_oracles(result, only=["exactly-once-result"])
        assert "job-completes" not in findings


class TestJournalOracles:
    def test_skipped_when_the_run_kept_no_journal(self):
        # a non-durable run replays nothing: "no replica survived" is what
        # it was configured to do, not a finding
        kept = make_result(records=[])
        assert "replay-equivalence" in run_oracles(kept)
        none = make_result(records=[], schedule=Schedule(seed=1, durable=False))
        assert run_oracles(none) == {}
        assert JOURNAL_ORACLES < set(ORACLES)


class TestLockOrder:
    def test_the_verifier_s_error_is_reported(self):
        result = make_result(lock_order="lock-order cycle: A._lock -> B._lock")
        assert run_oracles(result)["lock-order"] == [
            "lock-order cycle: A._lock -> B._lock"
        ]


class TestJobCompletes:
    def test_timeout_is_a_violation(self):
        findings = run_oracles(make_result(status="timeout", error="stuck"))
        assert "job-completes" in findings


class TestExactlyOnce:
    def test_wrong_cell_flagged(self):
        result = make_result(result_matrix=[[0.0, 2.0], [1.0, 0.0]])
        assert "exactly-once-result" in run_oracles(result)

    def test_shape_mismatch_flagged(self):
        # a double-counted block: one extra row in the assembled matrix
        result = make_result(result_matrix=[[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        [violation] = run_oracles(result)["exactly-once-result"]
        assert "double-counted" in violation

    def test_infinities_compare_equal(self):
        inf = float("inf")
        result = make_result(
            expected=[[0.0, inf], [inf, 0.0]], result_matrix=[[0.0, inf], [inf, 0.0]]
        )
        assert "exactly-once-result" not in run_oracles(result)

    def test_missing_matrix_defers_to_liveness(self):
        result = make_result(status="timeout", error="stuck", result_matrix=None)
        assert "exactly-once-result" not in run_oracles(result)


class TestLedgerDrain:
    def test_watermark_beyond_journal_flagged(self):
        result = make_result(
            records=[delivery("w0"), record("ledger-gc", {"task": "w0", "upto": 5})]
        )
        assert "ledger-drain" in run_oracles(result)

    def test_drained_prefix_green(self):
        result = make_result(
            records=[
                delivery("w0"),
                delivery("w0"),
                delivery("w0"),
                record("ledger-gc", {"task": "w0", "upto": 2}),
            ]
        )
        assert "ledger-drain" not in run_oracles(result)


class TestFencedZombies:
    def test_stale_epoch_records_contribute_nothing(self):
        # a zombie's record arrives after the adoption bumped the epoch;
        # the fold must skip it, as the live owner never applied it
        live = delivery("w0", mepoch=2)
        result = make_result(
            owner_view=job_view(replay_job(JOB, [live])),
            owner_records=[live, delivery("w0", payload="zombie", mepoch=1)],
        )
        assert "journal-is-the-job" not in run_oracles(result)


class TestJournalIsTheJob:
    def test_a_record_the_live_job_never_applied_is_flagged(self):
        applied = delivery("w0")
        result = make_result(
            owner_view=job_view(replay_job(JOB, [applied])),
            owner_records=[applied, delivery("w0", payload="unapplied")],
        )
        [finding] = run_oracles(result)["journal-is-the-job"]
        assert "deliveries" in finding

    def test_an_unfinished_run_has_no_owner_view_to_check(self):
        result = make_result(owner_records=[delivery("w0")])
        assert "journal-is-the-job" not in run_oracles(result)


class TestNoEscapedException:
    def test_an_escaped_exception_fails_the_run(self):
        result = make_result(escaped=["task-w0: JournalError: closed"])
        [finding] = run_oracles(result)["no-escaped-exception"]
        assert "JournalError" in finding
