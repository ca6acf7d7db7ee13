"""Oracle unit tests on synthetic SimResults (no cluster involved)."""

import itertools

from repro.cn import Message
from repro.cn.durability import JournalRecord
from repro.sim import ORACLES, Schedule, run_oracles
from repro.sim.harness import SimResult
from repro.sim.oracles import JOURNAL_ORACLES

_seq = itertools.count(1)

JOB = "node0/jm-job1"


def record(kind, data, mepoch=1):
    return JournalRecord(next(_seq), JOB, kind, mepoch, "node0", data)


def delivery(task, payload="x", mepoch=1):
    return record("delivery", {"messages": [Message.user("s", task, payload)]}, mepoch)


def make_result(checksums=True, **overrides):
    base = dict(
        seed=1,
        schedule=Schedule(seed=1, checksums=checksums),
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
        dead_letters=[],
        job_deadline=None,
    )
    base.update(overrides)
    return SimResult(**base)


class TestRegistry:
    def test_all_oracles_registered(self):
        assert set(ORACLES) == {
            "job-completes",
            "exactly-once-result",
            "replay-equivalence",
            "sheds-subset-of-deliveries",
            "budget-monotone",
            "ledger-drain",
            "fenced-zombies",
            "dead-letter-accounting",
            "lock-order",
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


class TestShedsSubset:
    def test_shed_with_ledgered_delivery_is_fine(self):
        d = delivery("w0")
        serial = d.data["messages"][0].serial
        result = make_result(
            records=[d, record("shed", {"task": "w0", "serial": serial})]
        )
        assert "sheds-subset-of-deliveries" not in run_oracles(result)

    def test_journaled_then_lost_flagged(self):
        result = make_result(
            records=[record("shed", {"task": "w0", "serial": 424242})]
        )
        assert "sheds-subset-of-deliveries" in run_oracles(result)


class TestBudgetMonotone:
    def test_deadline_past_budget_flagged(self):
        message = Message.user("s", "w0", "x")
        late = Message(
            type=message.type,
            sender=message.sender,
            recipient=message.recipient,
            payload=message.payload,
            deadline=99.0,
        )
        result = make_result(
            records=[
                record("job-created", {"client": "c", "deadline": 50.0}),
                record("delivery", {"messages": [late]}),
            ],
        )
        assert "budget-monotone" in run_oracles(result)

    def test_within_budget_green(self):
        message = Message(
            type="USER", sender="s", recipient="w0", payload="x", deadline=10.0
        )
        result = make_result(
            records=[
                record("job-created", {"client": "c", "deadline": 50.0}),
                record("delivery", {"messages": [message]}),
            ],
        )
        assert "budget-monotone" not in run_oracles(result)


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
        # the fold must skip it, so pre-filtering changes nothing
        result = make_result(
            records=[
                delivery("w0", mepoch=2),
                delivery("w0", payload="zombie", mepoch=1),
            ]
        )
        assert "fenced-zombies" not in run_oracles(result)


class TestDeadLetterAccounting:
    def test_dead_letter_without_checksums_flagged(self):
        result = make_result(
            checksums=False,
            records=[record("dead-letter", {"task": "w0", "serial": 1})],
        )
        assert "dead-letter-accounting" in run_oracles(result)

    def test_dead_letter_traces_to_injected_corruption(self):
        d = delivery("w0")
        serial = d.data["messages"][0].serial
        result = make_result(
            records=[d, record("dead-letter", {"task": "w0", "serial": serial})],
            fault_log=[{"kind": "queue-corrupt", "target": "q"}],
        )
        assert "dead-letter-accounting" not in run_oracles(result)

    def test_unexplained_dead_letter_flagged(self):
        d = delivery("w0")
        serial = d.data["messages"][0].serial
        result = make_result(
            records=[d, record("dead-letter", {"task": "w0", "serial": serial})],
            fault_log=[],  # no corruption was ever injected
        )
        assert "dead-letter-accounting" in run_oracles(result)
