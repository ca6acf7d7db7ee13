"""Durable job journal, replication, replay, and manager failover.

Unit coverage for the ``repro.cn.durability`` layer (backends, fencing,
replication, the pure ``replay_job`` fold, the job directory) plus
deterministic end-to-end manager-failover scenarios on small clusters:
explicit ``Cluster.tick`` calls, no background pumpers, no chaos rates.
"""

import json
import os
import sys
import tempfile
import threading
import time
import weakref
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import (
    CNAPI,
    Cluster,
    JournalRecord,
    MessageType,
    Task,
    TaskFailedError,
    TaskRegistry,
    TaskSpec,
    collect_trace,
    replay_job,
)
from repro.cn.durability import (
    RETAINED_FINISHED,
    FileJournal,
    JobDirectory,
    MemoryJournal,
    ReplicatedJournal,
    _decode_data,
    _envelope,
    journal_factory_for_dir,
)
from repro.cn.errors import JournalError
from repro.cn.job import Job, TaskState
from repro.cn.messages import Message
from repro.cn.multicast import MulticastBus, Solicitation
from repro.sim.oracles import job_view


class Echo(Task):
    """Returns the payload of the first USER message it receives."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.recv_user(timeout=30.0).payload


class EchoPair(Task):
    """Returns the payloads of the first two USER messages it receives."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        first = ctx.recv_user(timeout=30.0).payload
        second = ctx.recv_user(timeout=30.0).payload
        return [first, second]


class Quick(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return "ok"


class CheckpointThenRetry(Task):
    """Reads a USER message and checkpoints it, then fails its first
    attempt; a retried attempt returns the checkpoint and the next
    message."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        first = ctx.recv_user(timeout=30.0).payload
        resumed = self.restore()
        if resumed is None:
            self.checkpoint({"seen": first}, tag=1)
            raise RuntimeError("the first attempt fails after its checkpoint")
        return [resumed, ctx.recv_user(timeout=30.0).payload]


def echo_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("echo.jar", "t.Echo", Echo)
    registry.register_class("echo.jar", "t.EchoPair", EchoPair)
    registry.register_class("quick.jar", "t.Quick", Quick)
    registry.register_class("retry.jar", "t.CheckpointThenRetry", CheckpointThenRetry)
    return registry


def worker_only_nodes(cluster: Cluster) -> None:
    """node0 hosts the JobManager but never any task, so killing it is a
    pure *manager* failure (no orphaned hostings die with it)."""
    cluster.servers[0].accept_tasks = False


def rec(seq, job_id, kind, mepoch=1, origin="n0/jm", **data) -> JournalRecord:
    return JournalRecord(
        seq=seq, job_id=job_id, kind=kind, mepoch=mepoch, origin=origin, data=data
    )


def view(job: Job) -> dict:
    """What two Jobs are compared by: the simulator's oracle view, plus the
    roster order, the tasks' errors, and the client and the manager the
    job names."""
    return {
        **job_view(job),
        "order": list(job.task_order),
        "errors": {name: job.tasks[name].error for name in job.task_order},
        "client": job.client_name,
        "manager": job.manager,
    }


# -- journal backends -----------------------------------------------------------


class TestMemoryJournal:
    def test_append_records_and_job_ids(self):
        journal = MemoryJournal()
        a = rec(1, "j1", "job-created", manager="n0/jm")
        b = rec(2, "j2", "job-created", manager="n1/jm")
        assert journal.append(a) and journal.append(b)
        assert journal.records() == [a, b]
        assert journal.records("j1") == [a]
        assert [r.job_id for r in journal.records()] == ["j1", "j2"]
        assert len(journal) == 2

    def test_epoch_fence_rejects_stale_writes(self):
        journal = MemoryJournal()
        assert journal.append(rec(1, "j", "job-created", mepoch=1))
        assert journal.append(rec(2, "j", "job-adopted", mepoch=2))
        stale = rec(3, "j", "task-state", mepoch=1, task="t", state="COMPLETED")
        assert journal.append(stale) is False
        assert journal.fenced == [stale]
        assert stale not in journal.records("j")
        assert journal.append(rec(4, "j", "task-state", mepoch=2, task="t"))

    def test_fence_is_per_job(self):
        journal = MemoryJournal()
        journal.append(rec(1, "a", "job-adopted", mepoch=5))
        assert journal.append(rec(2, "b", "job-created", mepoch=1))
        assert not journal.append(rec(3, "a", "task-state", mepoch=4, task="t"))
        assert journal.append(rec(4, "a", "task-state", mepoch=5, task="t"))
        assert journal.append(rec(5, "b", "task-state", mepoch=1, task="t"))
        assert journal.append(rec(6, "never-seen", "job-created", mepoch=1))


    def test_extend_fences_per_record_inside_one_batch(self):
        """A batch is one job's at one epoch: the fence reads its first
        record and takes or drops every record in it."""
        journal = MemoryJournal()
        created = rec(1, "j", "job-created", mepoch=1)
        adopted = rec(2, "j", "job-adopted", mepoch=2)
        stale = tuple(rec(3 + i, "j", "task-state", mepoch=1, task=f"t{i}") for i in (0, 1))
        other = rec(5, "k", "job-created", mepoch=1)
        assert journal.extend((created,)) == 1 and journal.extend((adopted,)) == 1
        assert journal.extend(stale) == 0
        assert journal.extend((other,)) == 1
        assert journal.records() == [created, adopted, other]
        assert journal.fenced == list(stale)
        assert journal.extend(()) == 0

    def test_reading_one_job_touches_no_other_jobs_records(self):
        """records(job_id) comes from the per-job index: the cost of a
        replay does not grow with the other jobs a replica holds (the
        newest RETAINED_FINISHED of the 200 finished here)."""

        class Tripwire(JournalRecord):
            touched = 0

            def __getattribute__(self, name):
                if name == "job_id":
                    Tripwire.touched += 1
                return object.__getattribute__(self, name)

        journal = MemoryJournal()
        old = [Tripwire(i, f"old{i // 2}", "job-finished", 1, "n0/jm", {}) for i in range(400)]
        for i in range(0, 400, 2):
            journal.extend(old[i : i + 2])
        mine = [rec(1000 + i, "mine", "task-state", task=f"t{i}") for i in range(3)]
        journal.extend(mine)
        Tripwire.touched = 0
        assert journal.records("mine") == mine
        assert journal.records("never-seen") == []
        assert len(journal) == 2 * RETAINED_FINISHED + 3
        assert Tripwire.touched == 0
        # a copy, not the index itself
        journal.records("mine").clear()
        assert journal.records("mine") == mine


class TestFileJournal:
    def test_roundtrip_including_pickle_envelope(self, tmp_path):
        path = str(tmp_path / "node0.jsonl")
        journal = FileJournal(path)
        plain = rec(1, "j", "job-created", manager="n0/jm")
        spec = rec(2, "j", "task-spec", spec=TaskSpec(name="t", jar="x.jar", cls="X"))
        block = rec(3, "j", "checkpoint", task="t", tag=4, state=np.eye(3))
        for record in (plain, spec, block):
            assert journal.append(record)
        journal.close()

        reloaded = FileJournal(path)
        records = reloaded.records("j")
        assert [r.kind for r in records] == ["job-created", "task-spec", "checkpoint"]
        assert records[0] == plain
        assert records[1].data["spec"] == spec.data["spec"]
        assert np.array_equal(records[2].data["state"], np.eye(3))
        reloaded.close()

    def test_file_is_valid_jsonl(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FileJournal(path)
        journal.append(rec(1, "j", "checkpoint", task="t", state=np.zeros(2)))
        journal.close()
        lines = [line for line in open(path, encoding="utf-8") if line.strip()]
        assert len(lines) == 1
        payload = json.loads(lines[0])  # numpy rides the pickle envelope
        assert set(payload["data"]) == {"__pickled__"}

    def test_reload_rebuilds_the_fence(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FileJournal(path)
        journal.append(rec(1, "j", "job-adopted", mepoch=3))
        journal.close()
        reloaded = FileJournal(path)
        assert reloaded.append(rec(9, "j", "task-state", mepoch=2, task="t")) is False
        assert reloaded.append(rec(10, "j", "task-state", mepoch=3, task="t"))
        reloaded.close()

    def test_reload_fills_the_per_job_index(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FileJournal(path)
        journal.extend([rec(1, "a", "job-created")])
        journal.extend([rec(2, "b", "job-created")])
        journal.extend([rec(3, "a", "job-finished", failed=False)])
        journal.close()
        reloaded = FileJournal(path)
        assert [r.seq for r in reloaded.records("a")] == [1, 3]
        # every job's log, in first-seen job order
        assert [r.seq for r in reloaded.records()] == [1, 3, 2]
        reloaded.close()

    def test_batch_is_on_disk_when_extend_returns(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FileJournal(path)
        journal.extend([rec(i, "j", "task-state", task=f"t{i}") for i in range(5)])
        # read through a second handle *before* close: the flush happened
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 5
        journal.close()

    def test_a_closed_journal_refuses_a_batch_and_changes_nothing(self, tmp_path):
        """A task thread that journals after shutdown closed the file gets
        the stale-epoch answer, not a ``JournalError``."""
        path = tmp_path / "j.jsonl"
        journal = FileJournal(str(path))
        journal.append(rec(1, "j", "job-created"))
        journal.close()
        on_disk = path.read_text()
        late = [rec(2, "j", "task-state", task="t"), rec(3, "j", "task-state", task="u")]
        assert journal.extend(late) == 0
        assert journal.append(rec(4, "j", "checkpoint", task="t", state=1)) is False
        assert [r.seq for r in journal.records()] == [1]
        assert len(journal) == 1 and journal.fenced == []
        assert path.read_text() == on_disk

    def test_corrupt_file_raises_journal_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("this is not json\n")
        with pytest.raises(JournalError, match="corrupt"):
            FileJournal(str(path))

    def test_missing_file_starts_empty(self, tmp_path):
        journal = FileJournal(str(tmp_path / "fresh.jsonl"))
        assert journal.records() == []
        journal.close()

    def test_factory_writes_one_file_per_node(self, tmp_path):
        factory = journal_factory_for_dir(str(tmp_path / "journals"))
        journal = factory("node7")
        journal.append(rec(1, "j", "job-created"))
        journal.close()
        assert (tmp_path / "journals" / "node7.jsonl").exists()


class TestEncodeDecode:
    @settings(max_examples=50, deadline=None)
    @given(
        st.dictionaries(
            st.text(min_size=1, max_size=8),
            st.one_of(st.integers(), st.text(max_size=12), st.binary(max_size=12)),
            max_size=5,
        )
    )
    def test_envelope_roundtrips_arbitrary_payloads(self, data):
        assert _decode_data(_envelope(data)) == data


# -- replication ----------------------------------------------------------------


class TestReplicatedJournal:
    def test_appends_replicate_to_every_peer(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            record = cluster.servers[0].journal.append(
                "jobX", "job-created", {"manager": "node0/jm"}, 1
            )
            assert record is not None
            for server in cluster.servers[1:]:
                assert server.journal.backend.records("jobX") == [record]

    def test_own_origin_replicas_are_skipped(self):
        journal = ReplicatedJournal(MemoryJournal(), bus=None, origin="node0")
        record = journal.append("j", "job-created", {}, 1)
        assert journal.receive((record,)) == 0
        assert len(journal.backend.records("j")) == 1

    def test_append_many_is_one_publish_with_consecutive_seqs(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            writer = cluster.servers[0].journal
            writer.append("jobX", "job-created", {"manager": "node0/jm"}, 1)
            before = cluster.bus.stats.publishes
            events = [("task-state", {"task": f"t{i}"}) for i in range(4)]
            records = writer.append_many("jobX", events, 1)
            assert cluster.bus.stats.publishes == before + 1
            assert [r.seq for r in records] == [2, 3, 4, 5]
            assert [r.data["task"] for r in records] == ["t0", "t1", "t2", "t3"]
            assert writer.append_many("jobX", [], 1) == ()
            assert cluster.bus.stats.publishes == before + 1
            for server in cluster.servers[1:]:
                # replicas hold the writer's frozen records themselves
                replica = server.journal.backend.records("jobX")[1:]
                assert all(a is b for a, b in zip(replica, records, strict=True))

    def test_partitioned_replica_gets_none_of_a_batch(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            cluster.partition(["node0", "node1"], ["node2"])
            events = [("task-state", {"task": f"t{i}"}) for i in range(3)]
            records = cluster.servers[0].journal.append_many("jobX", events, 1)
            assert cluster.servers[1].journal.records("jobX") == list(records)
            assert cluster.servers[2].journal.records("jobX") == []
            assert cluster.bus.stats.partitioned == 1

    def test_batch_below_the_high_water_epoch_is_fenced_whole(self):
        replica = ReplicatedJournal(MemoryJournal(), bus=None, origin="node1")
        replica.receive((rec(1, "j", "job-adopted", mepoch=2, origin="node2"),))
        held = replica.records("j")
        zombie = tuple(
            rec(10 + i, "j", "task-placed", mepoch=1, origin="node0", task=f"t{i}")
            for i in range(4)
        )
        assert replica.receive(zombie) == 0
        assert replica.records("j") == held
        assert replica.backend.fenced == list(zombie)

    def test_failing_and_fenced_replicas_show_in_the_metrics(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            metrics = cluster.telemetry.metrics
            j0, j1, j2 = (server.journal for server in cluster.servers)

            def full_disk(records):
                raise JournalError("cannot append: no space left on device")

            j2.backend.extend = full_disk
            assert j1.append("j", "job-adopted", {"manager": "node1/jm"}, 2)
            # node2 fell behind, node0 did not -- and the bus says so
            assert len(j0.records("j")) == 1 and j2.records("j") == []
            assert cluster.bus.stats.listener_errors == 1
            assert metrics.value("cn_bus_listener_errors_total") == 1
            # a zombie write bounces off node0's own fence, counted there
            assert j0.append("j", "task-state", {"task": "t"}, 1) is None
            assert metrics.value("cn_journal_fenced_total", node="node0") == 1
            assert metrics.total("cn_journal_fenced_total") == 1

    def test_a_checkpoint_batched_with_other_events_is_refused(self):
        """A checkpoint is a batch of its own: the writer refuses any
        other batch holding one, before it journals or numbers anything."""
        journal = ReplicatedJournal(MemoryJournal(), bus=None, origin="node0")
        checkpoint = ("checkpoint", {"task": "t", "tag": 1, "state": {"k": 1}})
        with pytest.raises(JournalError, match="checkpoint"):
            journal.append_many("j", [("task-state", {"task": "t"}), checkpoint], 1)
        assert journal.records() == [] and "j" not in journal.backend._by_job
        assert [r.seq for r in journal.append_many("j", [checkpoint], 1)] == [1]

    def test_fenced_append_returns_none_and_is_not_published(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            j0 = cluster.servers[0].journal
            j0.append("j", "job-adopted", {"manager": "node0/jm"}, 2)
            before = len(cluster.servers[1].journal.backend.records("j"))
            assert j0.append("j", "task-state", {"task": "t"}, 1) is None
            assert len(cluster.servers[1].journal.backend.records("j")) == before

    def test_jobs_managed_by_follows_adoptions_and_finishes(self):
        journal = ReplicatedJournal(MemoryJournal(), bus=None, origin="x")
        journal.append("a", "job-created", {"manager": "n0/jm"}, 1)
        journal.append("b", "job-created", {"manager": "n0/jm"}, 1)
        journal.append("c", "job-created", {"manager": "n1/jm"}, 1)
        # b was adopted away from n0; a finished under n0
        journal.append("b", "job-adopted", {"manager": "n1/jm"}, 2)
        journal.append("a", "job-finished", {"failed": False}, 1)
        assert journal.jobs_managed_by("n0/jm") == []
        assert journal.jobs_managed_by("n1/jm") == ["b", "c"]


class TestJobDirectory:
    def test_register_lookup_and_epoch_guard(self):
        directory = JobDirectory()
        directory.register("j", "mgr1", "job1", epoch=2)
        assert directory.lookup("j").manager == "mgr1"
        # a zombie manager cannot re-claim with a lower epoch...
        directory.register("j", "zombie", "old", epoch=1)
        assert directory.lookup("j").job == "job1"
        # ...but a successor with a higher epoch wins
        directory.register("j", "mgr2", "job2", epoch=3)
        entry = directory.lookup("j")
        assert (entry.manager, entry.job, entry.epoch) == ("mgr2", "job2", 3)
        assert directory.lookup("missing") is None
        assert directory.job_ids() == ["j"]

    def test_ids_since_a_mark_are_the_ones_first_registered_after_it(self):
        directory = JobDirectory()
        directory.register("b", "mgr1", "job-b")
        directory.register("a", "mgr1", "job-a")
        mark = directory.mark()
        assert directory.job_ids_since(mark) == []
        directory.register("d", "mgr1", "job-d")
        directory.register("a", "mgr2", "job-a2", epoch=2)  # an adoption
        directory.register("c", "mgr2", "job-c")
        assert directory.job_ids_since(mark) == ["c", "d"]
        assert directory.job_ids_since(0) == directory.job_ids() == ["a", "b", "c", "d"]


# -- replay ---------------------------------------------------------------------


class TestReplayJob:
    def journal_for_one_task(self):
        spec = TaskSpec(name="t", jar="x.jar", cls="X")
        return [
            # an older journal's job-created record also carried the CNX text
            rec(1, "j", "job-created", client="c", manager="n0/jm", descriptor="<cn2/>"),
            rec(2, "j", "task-spec", spec=spec),
            rec(3, "j", "task-placed", task="t", node="n1/tm", epoch=1),
            rec(4, "j", "task-state", task="t", state="RUNNING", attempts=1),
            rec(5, "j", "checkpoint", task="t", tag=0, state={"k": 0}),
            rec(6, "j", "task-placed", task="t", node="n2/tm", epoch=2),
            rec(7, "j", "task-state", task="t", state="COMPLETED", attempts=2, result=7),
            rec(8, "j", "job-finished", failed=False),
        ]

    def test_fold_reconstructs_everything(self):
        job = replay_job("j", self.journal_for_one_task())
        assert isinstance(job, Job)
        assert (job.client_name, job.manager) == ("c", "n0/jm")
        assert not hasattr(job, "descriptor")
        assert job.task_order == ["t"]
        task = job.task("t")
        assert task.state is TaskState.COMPLETED
        assert task.result == 7
        assert task.attempts == 2
        assert task.epoch == 2  # highest placement epoch wins
        assert task.node_name == "n2/tm"
        assert job.load_checkpoint("t") == (0, {"k": 0})
        assert job.finished and job.failed is None
        assert job.all_terminal()

    def test_pending_tasks_are_the_successors_worklist(self):
        records = self.journal_for_one_task()[:5]  # still RUNNING
        job = replay_job("j", records)
        assert job.task("t").state is TaskState.RUNNING
        assert not job.all_terminal()
        assert not job.finished

    def test_stale_epoch_records_are_ignored(self):
        records = self.journal_for_one_task()[:6]
        records += [
            rec(7, "j", "job-adopted", mepoch=2, manager="n1/jm"),
            # a zombie write stamped with the dead manager's epoch
            rec(8, "j", "task-state", mepoch=1, task="t", state="COMPLETED", result=666),
        ]
        job = replay_job("j", records)
        assert job.manager == "n1/jm"
        assert job.manager_epoch == 2
        assert job.task("t").state is TaskState.RUNNING
        assert job.task("t").result is None

    def test_other_jobs_records_are_skipped(self):
        records = self.journal_for_one_task()
        noise = [rec(99, "other", "job-created", manager="n3/jm")]
        assert view(replay_job("j", noise + records)) == view(replay_job("j", records))


class TestReplayDeliveryBatchAndGC:
    def deliveries(self, recipient, payloads):
        return [Message.user("s", recipient, p) for p in payloads]

    def test_singleton_records_and_one_batch_record_replay_identically(self):
        messages = self.deliveries("t", ["m1", "m2", "m3"])
        batched = [rec(1, "j", "delivery", messages=messages)]
        singles = [
            rec(i + 1, "j", "delivery", messages=[m]) for i, m in enumerate(messages)
        ]
        assert (
            replay_job("j", batched).ledger()
            == replay_job("j", singles).ledger()
            == {"t": messages}
        )

    def test_mixed_recipient_batch_fans_out_per_task(self):
        messages = [
            Message.user("s", "a", 1),
            Message.user("s", "b", 2),
            Message.user("s", "a", 3),
        ]
        ledger = replay_job("j", [rec(1, "j", "delivery", messages=messages)]).ledger()
        assert [m.payload for m in ledger["a"]] == [1, 3]
        assert [m.payload for m in ledger["b"]] == [2]

    def test_ledger_gc_truncates_replayed_deliveries(self):
        messages = self.deliveries("t", ["m1", "m2", "m3"])
        records = [rec(1, "j", "delivery", messages=messages)]
        # GC after the recipient's attempt completed: all three are gone
        job = replay_job("j", records + [rec(2, "j", "ledger-gc", task="t", upto=3)])
        assert job.ledger() == {}
        assert job.gc_watermarks == {"t": 3}

    def test_crash_before_gc_watermark_still_replays_everything(self):
        # no ledger-gc record landed before the crash: the successor's
        # replay must resurrect the full history (at-least-once holds)
        messages = self.deliveries("t", ["m1", "m2"])
        job = replay_job("j", [rec(1, "j", "delivery", messages=messages)])
        assert job.ledger() == {"t": messages}
        assert job.gc_watermarks == {}

    def test_gc_watermark_is_cumulative_across_attempts(self):
        first = self.deliveries("t", ["a1", "a2"])
        second = self.deliveries("t", ["b1"])
        records = [
            rec(1, "j", "delivery", messages=first),
            rec(2, "j", "ledger-gc", task="t", upto=2),
            rec(3, "j", "delivery", messages=second),
        ]
        job = replay_job("j", records)
        # only the post-GC delivery survives
        assert [m.payload for m in job.ledger()["t"]] == ["b1"]
        # a successor journaling the next truncation continues the count
        job = replay_job("j", records + [rec(4, "j", "ledger-gc", task="t", upto=3)])
        assert job.ledger() == {}

    def test_a_delivery_journaled_after_the_gc_that_collected_it_stays_collected(
        self,
    ):
        # append, then apply: a ledger-gc counts only deliveries already
        # applied, so already journaled -- on the live path no delivery it
        # collected is journaled after it, and the fold needs no rule for one
        job = Job("j", "c")
        journal = ReplicatedJournal()
        job.set_journal(journal.append_many)
        job.journal_events([("task-spec", {"spec": TaskSpec("t", jar="j", cls="C")})])
        rounds = 2000

        def route():
            for i in range(rounds):
                job.route(Message.user("s", "t", i))

        def collect():
            for _ in range(rounds):
                job.gc_ledger("t")

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the two as finely as we can
        try:
            threads = [threading.Thread(target=f) for f in (route, collect)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(switch)
        journaled = collected = 0
        for record in journal.records("j"):
            if record.kind == "delivery":
                journaled += len(record.data["messages"])
            elif record.kind == "ledger-gc":
                collected = record.data["upto"]
                assert collected <= journaled
        assert collected > 0
        assert job_view(replay_job("j", journal.records("j"))) == job_view(job)

    def test_duplicated_gc_record_is_idempotent(self):
        messages = self.deliveries("t", ["m1", "m2"])
        records = [
            rec(1, "j", "delivery", messages=messages),
            rec(2, "j", "ledger-gc", task="t", upto=1),
            rec(3, "j", "ledger-gc", task="t", upto=1),  # replica duplicate
        ]
        job = replay_job("j", records)
        assert [m.payload for m in job.ledger()["t"]] == ["m2"]

    def test_delivery_record_roundtrips_through_a_file_journal(self, tmp_path):
        path = str(tmp_path / "n.jsonl")
        journal = FileJournal(path)
        messages = self.deliveries("t", ["m1", np.arange(4.0)])
        journal.append(rec(1, "j", "delivery", messages=messages))
        journal.append(rec(2, "j", "ledger-gc", task="t", upto=1))
        journal.close()
        reloaded = FileJournal(path)
        [survivor] = replay_job("j", reloaded.records("j")).ledger()["t"]
        assert np.array_equal(survivor.payload, np.arange(4.0))
        reloaded.close()


class TestLedgerGC:
    """End-to-end: terminal tasks release their message history."""

    def test_terminal_task_truncates_its_ledger(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            api.send_message(handle, "e", "hello")
            assert api.wait(handle, timeout=10)["e"] == "hello"
            job = handle.job
            assert not job.has_ledgered("e")
            assert job.ledger_resident == 0
            assert job.ledger_truncated >= 1
            assert job.ledger_peak >= 1
            kinds = [r.kind for r in handle.manager.journal.records(handle.job_id)]
            assert "ledger-gc" in kinds

    def test_replay_into_after_gc_delivers_nothing(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            api.send_message(handle, "e", "hello")
            api.wait(handle, timeout=10)
            assert handle.job.replay_into("e") == 0

    def test_successor_replay_does_not_resurrect_gcd_messages(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.create_task(
                handle,
                TaskSpec(name="e2", jar="echo.jar", cls="t.Echo", depends=("e",)),
            )
            api.start_job(handle)
            api.send_message(handle, "e", "gone-after-gc")
            # wait until the first task is done (its ledger then GC'd)
            deadline = threading.Event()
            for _ in range(500):
                if handle.job.task("e").state is TaskState.COMPLETED:
                    break
                deadline.wait(0.01)
            assert handle.job.task("e").state is TaskState.COMPLETED
            cluster.kill_node("node0")
            cluster.tick(3)  # successor adopts from the replicated journal
            assert handle.manager.name == "node1/jm"
            # the completed attempt's history was truncated: adoption must
            # not re-ledger (or re-deliver) it
            assert not handle.job.has_ledgered("e")
            api.send_message(handle, "e2", "finish")
            results = api.wait(handle, timeout=15)
            assert results["e2"] == "finish"
            assert results["e"] == "gone-after-gc"


# -- replay determinism (hypothesis) --------------------------------------------

_TASKS = st.sampled_from(["a", "b", "c"])
_KIND_DATA = st.one_of(
    st.builds(lambda m: ("job-created", {"client": "c", "manager": m}),
              st.sampled_from(["n0/jm", "n1/jm"])),
    st.builds(lambda m: ("job-adopted", {"manager": m}),
              st.sampled_from(["n1/jm", "n2/jm"])),
    st.builds(lambda n: ("task-spec", {"spec": TaskSpec(name=n, jar="j", cls="C")}),
              _TASKS),
    st.builds(lambda n, node, e: ("task-placed", {"task": n, "node": node, "epoch": e}),
              _TASKS, st.sampled_from(["n0/tm", "n1/tm"]), st.integers(0, 4)),
    st.builds(lambda n, s, a: ("task-state", {"task": n, "state": s, "attempts": a}),
              _TASKS, st.sampled_from([s.value for s in TaskState]), st.integers(0, 3)),
    st.builds(lambda n, t: ("checkpoint", {"task": n, "tag": t, "state": {"k": t}}),
              _TASKS, st.integers(0, 9)),
    st.builds(lambda ns: ("delivery",
                          {"messages": [Message.user("x", n, i)
                                        for i, n in enumerate(ns)]}),
              st.lists(_TASKS, min_size=1, max_size=4)),
    st.builds(lambda n, u: ("ledger-gc", {"task": n, "upto": u}),
              _TASKS, st.integers(0, 8)),
    st.builds(lambda f: ("job-finished", {"failed": f}), st.booleans()),
)


def _batches(records):
    """*records* cut into the batches ``append_many`` would write: each
    maximal run of one job's records at one epoch, a checkpoint alone."""
    batches = []
    for (_, _, checkpoint), run in groupby(
        records, lambda r: (r.job_id, r.mepoch, r.kind == "checkpoint")
    ):
        batches += [(r,) for r in run] if checkpoint else [tuple(run)]
    return batches


def _checkpoints_alone(events):
    """One write's ``(kind, data)`` events as ``append_many`` batches:
    each run of other events together, each checkpoint alone."""
    for checkpoint, run in groupby(events, lambda event: event[0] == "checkpoint"):
        yield from ([event] for event in run) if checkpoint else (list(run),)


@st.composite
def journals(draw):
    entries = draw(st.lists(
        st.tuples(_KIND_DATA, st.integers(1, 3), st.sampled_from(["j", "other"])),
        max_size=30,
    ))
    return [
        JournalRecord(seq=i + 1, job_id=job_id, kind=kind, mepoch=mepoch,
                      origin="n0/jm", data=data)
        for i, ((kind, data), mepoch, job_id) in enumerate(entries)
    ]


class TestReplayDeterminism:
    @settings(max_examples=100, deadline=None)
    @given(journals())
    def test_replay_is_a_pure_function_of_the_record_sequence(self, records):
        assert view(replay_job("j", records)) == view(replay_job("j", list(records)))

    @settings(max_examples=100, deadline=None)
    @given(journals())
    def test_replaying_a_fenced_backend_equals_replaying_the_raw_stream(self, records):
        """The backends' epoch fence and replay_job's internal fence drop
        exactly the same records, so recovery does not depend on whether
        zombie writes were filtered at append time or at replay time."""
        journal = MemoryJournal()
        for record in records:
            journal.append(record)
        assert view(replay_job("j", journal.records("j"))) == view(
            replay_job("j", records)
        )

    @settings(max_examples=100, deadline=None)
    @given(journals())
    def test_one_record_at_a_time_is_the_whole_batch(self, records):
        """A batch of one job's records at one epoch, fenced once and
        appended whole, fences, logs and retains as its records written
        one at a time do."""
        single, batched = MemoryJournal(), MemoryJournal()
        accepted = sum(single.extend((record,)) for record in records)
        assert sum(batched.extend(batch) for batch in _batches(records)) == accepted
        assert single.records() == batched.records()
        assert single._high_water == batched._high_water
        for job_id in ("j", "other"):
            assert single.records(job_id) == batched.records(job_id)
        assert single.fenced == batched.fenced
        assert single.superseded == batched.superseded
        assert len(single) == len(batched)

    @settings(max_examples=60, deadline=None)
    @given(journals(), journals())
    def test_other_jobs_never_leak_into_a_snapshot(self, records, noise):
        foreign = [
            JournalRecord(seq=1000 + i, job_id="other", kind=r.kind,
                          mepoch=r.mepoch, origin=r.origin, data=r.data)
            for i, r in enumerate(noise)
        ]
        assert view(replay_job("j", records + foreign)) == view(
            replay_job("j", records)
        )


# -- batches are observationally equal to singles (hypothesis) -------------------

_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["j", "other"]),
        st.integers(1, 3),
        st.lists(_KIND_DATA, min_size=1, max_size=5),
    ),
    max_size=12,
)


def _replicated_trio(directory, tag):
    """A writer and two replicas on one bus, each with its own file."""
    bus = MulticastBus()
    writer, *replicas = (
        ReplicatedJournal(
            FileJournal(os.path.join(directory, f"{tag}-node{i}.jsonl")),
            bus,
            origin=f"node{i}",
        )
        for i in range(3)
    )
    for journal in (writer, *replicas):
        bus.attach_listener(
            journal.origin, lambda topic, batch, j=journal: j.receive(batch)
        )
    return writer, replicas


def _observed(journal):
    """Everything a backend shows, its file bytes included."""
    backend = journal.backend
    backend.close()
    with open(backend.path, "rb") as fh:
        data = fh.read()
    return (
        backend.records(),
        {job_id: backend.records(job_id) for job_id in ("j", "other")},
        list(dict.fromkeys(r.job_id for r in backend.records())),
        {job_id: backend._high_water.get(job_id, 0) for job_id in ("j", "other")},
        backend.fenced,
        data,
    )


def _write_both_ways(writes, raced=None):
    """Run *writes* as ``append_many`` batches on one trio (a write's
    runs of events together, each checkpoint alone) and as N ``append``s
    on another (adjacent writes may share job and epoch, so this is
    every split of the event sequence a writer may make); *raced*, if
    given, lands on node1 of both trios first.  Checks that both trios
    show the same; returns what the batched trio's writer, node1 and
    node2 show, and the records its writer published."""
    with tempfile.TemporaryDirectory() as directory:
        batched, batched_replicas = _replicated_trio(directory, "batched")
        single, single_replicas = _replicated_trio(directory, "single")
        if raced is not None:
            batched_replicas[0].backend.append(raced)
            single_replicas[0].backend.append(raced)
        published = []
        for job_id, mepoch, events in writes:
            for batch in _checkpoints_alone(events):
                published += batched.append_many(job_id, batch, mepoch)
            for kind, data in events:
                single.append(job_id, kind, data, mepoch)
        for job_id in ("j", "other"):
            assert view(replay_job(job_id, batched.records(job_id))) == view(
                replay_job(job_id, single.records(job_id))
            )
        sides = [
            [_observed(j) for j in (writer, *replicas)]
            for writer, replicas in (
                (batched, batched_replicas),
                (single, single_replicas),
            )
        ]
        assert sides[0] == sides[1]
        reloaded = FileJournal(batched.backend.path)
        assert reloaded.records() == batched.records()
        assert reloaded._high_water == batched.backend._high_water
        reloaded.close()
        return (*sides[0], published)


class TestBatchesEqualSingles:
    @settings(max_examples=60, deadline=None)
    @given(_WRITES)
    def test_any_split_into_batches_leaves_the_same_journal(self, writes):
        """Batches or singles: same records, job order, epochs, fenced
        records and bytes on disk on the writer and on every replica, and
        the same replay."""
        writer, node1, node2, _ = _write_both_ways(writes)
        for written in writer[1].values():
            assert [r.seq for r in written] == sorted(r.seq for r in written)
        # a write fenced at the writer is never published
        assert node1 == node2
        assert node2[:5] == (*writer[:4], [])

    @settings(max_examples=60, deadline=None)
    @given(_WRITES)
    def test_a_replica_an_adoption_reached_first_fences_whole_batches(self, writes):
        """An adoption of ``j`` raced the writer's publishes to node1, so
        node1's high-water mark is past every drawn epoch: each of ``j``'s
        batches is fenced whole there and lands on ``fenced`` in publish
        order, while node2 takes them all."""
        adopted = rec(1, "j", "job-adopted", mepoch=4, origin="node9", manager="n9")
        writer, node1, node2, published = _write_both_ways(writes, adopted)
        assert node2[:5] == (*writer[:4], [])
        records, by_job, job_ids, epochs, fenced, _ = node1
        assert records == [adopted] + writer[1]["other"]
        assert by_job == {"j": [adopted], "other": writer[1]["other"]}
        assert job_ids == ["j"] + [j for j in writer[2] if j != "j"]
        assert epochs == {"j": 4, "other": writer[3]["other"]}
        assert fenced == [r for r in published if r.job_id == "j"]


# -- checkpoint API -------------------------------------------------------------


class TestCheckpointAPI:
    def test_job_checkpoint_roundtrip_journals_the_state(self):
        with Cluster(1, registry=echo_registry()) as cluster:
            jm = cluster.servers[0].jobmanager
            job = jm.create_job("client")
            job.save_checkpoint("t", {"k": 3}, tag=3)
            assert job.load_checkpoint("t") == (3, {"k": 3})
            assert job.load_checkpoint("never") is None
            kinds = [r.kind for r in jm.journal.records(job.job_id)]
            assert "checkpoint" in kinds

    def test_task_checkpoint_without_context_is_a_noop(self):
        task = Echo()
        assert task.checkpoint({"x": 1}) is False
        assert task.restore() is None

    def test_checkpointed_state_survives_replay(self):
        with Cluster(1, registry=echo_registry()) as cluster:
            jm = cluster.servers[0].jobmanager
            job = jm.create_job("client")
            job.save_checkpoint("t", {"k": 5}, tag=5)
            replayed = replay_job(job.job_id, jm.journal.records(job.job_id))
            assert replayed.load_checkpoint("t") == (5, {"k": 5})


# -- the checkpoint table: latest state per task, beside the log -----------------


class TestCheckpointTable:
    def test_records_put_each_retained_checkpoint_back_where_it_arrived(self):
        journal = MemoryJournal()
        a, b, c = (rec(i, "j", "task-state", task=f"t{i}") for i in (1, 3, 6))
        first = rec(2, "j", "checkpoint", task="x", tag=0, state="x0")
        other = rec(4, "j", "checkpoint", task="y", tag=0, state="y0")
        second = rec(5, "j", "checkpoint", task="x", tag=1, state="x1")
        noise = rec(7, "k", "checkpoint", task="x", tag=7, state="k7")
        assert sum(journal.append(r) for r in (a, first, b, other, second, c, noise)) == 7
        assert journal.records("j") == [a, b, other, second, c]
        assert journal.records() == [a, b, other, second, c, noise]
        assert journal.records("k") == [noise]
        assert len(journal) == 6 and journal.superseded == 1

    def test_a_superseded_state_is_freed_when_the_last_replica_lets_go(self):
        replicas = [MemoryJournal() for _ in range(3)]
        old = rec(1, "j", "checkpoint", task="t", tag=0, state=np.zeros(8))
        state = weakref.ref(old.data["state"])
        for replica in replicas:
            assert replica.append(old)
        del old
        new = rec(2, "j", "checkpoint", task="t", tag=1, state=np.ones(8))
        for replica in replicas[:2]:
            assert replica.append(new)
        assert state() is not None  # the third replica still restores from it
        assert replicas[2].append(new)
        assert state() is None
        assert [replica.superseded for replica in replicas] == [1, 1, 1]

    def test_a_cut_off_replica_keeps_the_checkpoint_it_last_accepted(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            job = cluster.servers[0].jobmanager.create_job("client")
            job.save_checkpoint("t", np.full(4, 1.0), tag=1)
            cluster.partition(["node0", "node1"], ["node2"])
            job.save_checkpoint("t", np.full(4, 2.0), tag=2)
            job.save_checkpoint("t", np.full(4, 3.0), tag=3)
            seen = {}
            for server in cluster.servers:
                records = server.journal.records(job.job_id)
                tag, state = replay_job(job.job_id, records).load_checkpoint("t")
                seen[server.name] = (tag, state.tolist())
            assert seen == {
                "node0": (3, [3.0] * 4),
                "node1": (3, [3.0] * 4),
                "node2": (1, [1.0] * 4),
            }
            let_go = "cn_journal_checkpoints_superseded_total"
            metrics = cluster.telemetry.metrics
            assert metrics.value(let_go, node="node0") == 2
            assert metrics.value(let_go, node="node2") == 0

    def test_an_epoch_1_checkpoint_survives_two_successive_adoptions(self):
        with Cluster(4, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.Echo", max_retries=3),
            )
            api.start_job(handle)
            handle.job.save_checkpoint("e", {"row": 7}, tag=7)
            for epoch in (2, 3):
                cluster.kill_node(f"node{epoch - 2}")
                cluster.tick(3)
                assert handle.manager.name == f"node{epoch - 1}/jm"
                assert handle.job.manager_epoch == epoch
                assert handle.job.load_checkpoint("e") == (7, {"row": 7})
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=15)["e"] == "done"

    def test_a_stale_epoch_checkpoint_supersedes_nothing(self):
        journal = MemoryJournal()
        journal.append(rec(1, "j", "job-adopted", mepoch=2, manager="n1/jm"))
        live = rec(2, "j", "checkpoint", mepoch=2, task="t", tag=5, state={"i": 5})
        zombie = rec(9, "j", "checkpoint", mepoch=1, task="t", tag=99, state="late")
        assert journal.append(live)
        assert journal.append(zombie) is False
        assert journal.fenced == [zombie] and journal.superseded == 0
        assert replay_job("j", journal.records("j")).load_checkpoint("t") == (
            5,
            {"i": 5},
        )

    def test_a_reloaded_file_keeps_every_line_and_one_state_per_task(self, tmp_path):
        path = str(tmp_path / "node0.jsonl")
        journal = FileJournal(path)
        journal.append(rec(1, "j", "job-created", manager="n0/jm"))
        for step in range(100):
            state = np.full(4, float(step))
            journal.append(
                rec(2 + step, "j", "checkpoint", task="t", tag=step, state=state)
            )
        journal.close()
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 101
        reloaded = FileJournal(path)
        assert len(reloaded) == 2 and reloaded.superseded == 99
        created, kept = reloaded.records("j")
        assert (created.seq, kept.seq, kept.data["tag"]) == (1, 101, 99)
        assert kept.data["state"].tolist() == [99.0] * 4
        reloaded.close()


# -- durable job lifecycle ------------------------------------------------------


class TestDurableJobLifecycle:
    def test_quick_job_leaves_a_complete_journal(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            assert api.wait(handle, timeout=10)["q"] == "ok"
            records = handle.manager.journal.records(handle.job_id)
            kinds = [r.kind for r in records]
            assert kinds[0] == "job-created"
            assert "task-spec" in kinds and "task-placed" in kinds
            assert kinds[-1] == "job-finished"
            replayed = replay_job(handle.job_id, records)
            assert replayed.states()["q"] == "COMPLETED"
            assert replayed.results()["q"] == "ok"
            assert replayed.finished

    def test_user_deliveries_ride_the_journal(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            api.send_message(handle, "e", "hello")
            assert api.wait(handle, timeout=10)["e"] == "hello"
            records = handle.manager.journal.records(handle.job_id)
            journaled = [
                m.payload
                for r in records
                if r.kind == "delivery"
                for m in r.data["messages"]
            ]
            assert "hello" in journaled
            # replay reflects the post-completion ledger GC: the terminal
            # task's history is truncated, not resurrected
            replayed = replay_job(handle.job_id, records)
            assert "e" not in replayed.ledger()
            assert replayed.gc_watermarks.get("e", 0) >= 1

    def test_non_durable_cluster_has_no_journal(self):
        with Cluster(2, registry=echo_registry(), durable=False) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            assert api.wait(handle, timeout=10)["q"] == "ok"
            assert handle.manager.journal is None
            # the directory is still wired so handles resolve uniformly
            assert cluster.directory.lookup(handle.job_id) is not None

    def test_file_journal_cluster_persists_across_shutdown(self, tmp_path):
        directory = str(tmp_path / "journals")
        with Cluster(2, registry=echo_registry(), durable=directory) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            api.wait(handle, timeout=10)
            job_id = handle.job_id
        reloaded = FileJournal(f"{directory}/node0.jsonl")
        replayed = replay_job(job_id, reloaded.records(job_id))
        assert replayed.finished and replayed.results()["q"] == "ok"
        reloaded.close()

    def test_every_terminal_record_is_on_disk_when_wait_returns(
        self, tmp_path, monkeypatch
    ):
        """The finished event fires after the last terminal write of every
        task (``task-state``, ``job-finished``, ``ledger-gc``): a client
        that shuts the cluster down the moment ``wait`` returns loses none
        of them, and no task thread writes to a closed journal."""
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        earlier = set(threading.enumerate())  # other tests' leftovers
        persist = FileJournal._persist

        def slow_disk(self, batch):
            time.sleep(0.001)  # every write lets the woken client run
            persist(self, batch)

        monkeypatch.setattr(FileJournal, "_persist", slow_disk)
        names = [f"e{i}" for i in range(8)]
        for round_ in range(3):
            directory = str(tmp_path / f"journals{round_}")
            cluster = Cluster(2, registry=echo_registry(), durable=directory)
            cluster.start()
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_tasks(
                handle, [TaskSpec(name=n, jar="echo.jar", cls="t.Echo") for n in names]
            )
            api.start_job(handle)
            for name in names:
                api.send_message(handle, name, name)
            api.wait(handle, timeout=10)
            job_id = handle.job_id
            cluster.shutdown()
            for thread in set(threading.enumerate()) - earlier:
                if thread.name.startswith("cn-task-"):
                    thread.join(timeout=10)
                    assert not thread.is_alive(), thread.name
            ours = [args.exc_value for args in raised if args.thread not in earlier]
            assert ours == []
            reloaded = FileJournal(f"{directory}/node0.jsonl")
            replayed = replay_job(job_id, reloaded.records(job_id))
            reloaded.close()
            assert replayed.finished
            assert replayed.states() == {name: "COMPLETED" for name in names}
            assert replayed.gc_watermarks == {name: 1 for name in names}

    def test_an_attempt_that_returns_after_shutdown_writes_to_no_closed_journal(
        self, tmp_path, monkeypatch
    ):
        """Shutdown leaves a running attempt running; when it returns, its
        terminal write finds no journal rather than a closed file."""
        raised = []
        monkeypatch.setattr(threading, "excepthook", raised.append)
        release, started = threading.Event(), []

        class Lingers(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                started.append(threading.current_thread())
                release.wait(10.0)
                return "late"

        registry = echo_registry()
        registry.register_class("linger.jar", "t.Lingers", Lingers)
        directory = str(tmp_path / "journals")
        with Cluster(2, registry=registry, durable=directory) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec("l", jar="linger.jar", cls="t.Lingers"))
            api.start_job(handle)
            for _ in range(500):
                if started:
                    break
                time.sleep(0.01)
        release.set()
        [thread] = started
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [args.exc_value for args in raised] == []

    def test_a_tasks_last_terminal_write_is_one_batch(self):
        """``task-state`` and ``job-finished`` reach every replica in one
        ``extend``: no journal holds the task's end without the job's."""
        with Cluster(2, registry=echo_registry()) as cluster:
            batches = {}
            for server in cluster.servers:
                backend = server.journal.backend
                seen = batches[server.name] = []

                def recording(records, extend=backend.extend, seen=seen):
                    seen.append([record.kind for record in records])
                    return extend(records)

                backend.extend = recording
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            assert api.wait(handle, timeout=10)["q"] == "ok"
            for name, seen in batches.items():
                finishing = [kinds for kinds in seen if "job-finished" in kinds]
                assert finishing == [["task-state", "job-finished"]], name


class TestFoldEqualsLiveJob:
    """``replay_job`` of a job's journal is the Job that wrote it, read
    through the simulator's view: states, attempts, epochs, nodes,
    results, GC watermarks, the ledger left, checkpoints, manager epoch,
    finished and failed."""

    def test_a_run_with_deliveries_a_checkpoint_and_a_retry(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_tasks(
                handle,
                [
                    TaskSpec(
                        name="r", jar="retry.jar", cls="t.CheckpointThenRetry",
                        max_retries=2,
                    ),
                    TaskSpec(name="e", jar="echo.jar", cls="t.Echo"),
                ],
            )
            for name, payload in (("r", "first"), ("r", "second"), ("e", "hello")):
                api.send_message(handle, name, payload)
            api.start_job(handle)
            results = api.wait(handle, timeout=15)
            assert results == {"r": [{"seen": "first"}, "second"], "e": "hello"}
            job = handle.job
            assert job.task("r").attempts == 2
            assert job.load_checkpoint("r") == (1, {"seen": "first"})
            records = handle.manager.journal.records(handle.job_id)
            assert view(replay_job(handle.job_id, records)) == view(job)

    def test_a_run_through_a_manager_kill(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.EchoPair", max_retries=2),
            )
            api.start_job(handle)
            api.send_message(handle, "e", "first")
            cluster.kill_node("node0")
            cluster.tick(3)
            assert handle.manager.name == "node1/jm"
            api.send_message(handle, "e", "second")
            assert api.wait(handle, timeout=15)["e"] == ["first", "second"]
            records = cluster.servers[1].journal.records(handle.job_id)
            assert view(replay_job(handle.job_id, records)) == view(handle.job)
            assert view(handle.job)["mepoch"] == 2


# -- manager failover -----------------------------------------------------------


def journal_a_dead_managers_job(cluster, job_id, *events):
    """Replicate node0/jm's journal of *job_id*, written up to *events*."""
    cluster.servers[0].journal.append_many(
        job_id,
        [("job-created", {"client": "c", "manager": "node0/jm"}), *events],
    )


class TestManagerFailover:
    def test_successor_adopts_and_completes_in_flight_job(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.EchoPair", max_retries=2),
            )
            api.start_job(handle)
            api.send_message(handle, "e", "first")
            assert handle.manager.name == "node0/jm"
            cluster.kill_node("node0")
            cluster.tick(3)  # detect death -> lowest survivor adopts
            # the handle transparently re-binds to the successor
            assert handle.manager.name == "node1/jm"
            assert handle.job.manager_epoch == 2
            api.send_message(handle, "e", "second")
            results = api.wait(handle, timeout=15)
            # "first" came back via the replayed delivery ledger
            assert results["e"] == ["first", "second"]
            assert cluster.directory.lookup(handle.job_id).manager is cluster.servers[1].jobmanager
            trace = collect_trace(handle)
            [adoption] = trace.adoptions()
            assert adoption.detail["previous"] == "node0/jm"
            assert adoption.detail["manager"] == "node1/jm"
            assert adoption.detail["manager_epoch"] == 2

    def test_the_dead_managers_cancel_leaves_the_successors_hostings(self):
        # a dead manager's shutdown cancels the Job it still holds; the
        # hostings of that job id the successor placed are not that Job's
        # (at the parent they were ended, and the job never ran)
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_tasks(
                handle,
                [
                    TaskSpec(name="a", jar="echo.jar", cls="t.Echo"),
                    TaskSpec(name="b", jar="echo.jar", cls="t.Echo", depends=("a",)),
                ],
            )
            dead, zombie = handle.manager, handle.job
            cluster.kill_node("node0")
            cluster.tick(3)
            assert handle.job is not zombie
            # the successor restarted "a"; "b" waits for it
            assert handle.job.states() == {"a": "RUNNING", "b": "CREATED"}
            dead.cancel_job(zombie)
            assert handle.job.states() == {"a": "RUNNING", "b": "CREATED"}
            assert all(rt.hosting is not None for rt in handle.job.tasks.values())
            api.send_message(handle, "a", "x")
            api.send_message(handle, "b", "y")  # queued until "b" starts
            assert api.wait(handle, timeout=15) == {"a": "x", "b": "y"}

    def test_adoption_record_fences_the_dead_managers_epoch(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            job_id = handle.job_id
            cluster.kill_node("node0")
            cluster.tick(3)
            successor_journal = cluster.servers[1].journal
            adoptions = successor_journal.records(job_id)
            assert [r.mepoch for r in adoptions if r.kind == "job-adopted"] == [2]
            # a write still stamped with the dead manager's epoch bounces
            assert successor_journal.append(job_id, "task-state", {}, 1) is None
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=15)["e"] == "done"

    def test_adoption_reads_only_the_adopted_jobs_records_once(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            history = cluster.servers[2].journal
            for i in range(200):  # a cluster that has already run 200 jobs
                history.append_many(
                    f"old{i}",
                    [
                        ("job-created", {"client": "c", "manager": "node2/jm"}),
                        ("job-finished", {"failed": False}),
                    ],
                )
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            backend = cluster.servers[1].journal.backend
            in_flight = len(backend.records(handle.job_id))
            # the replica keeps the newest finished jobs of the 200
            assert len(backend) == 2 * RETAINED_FINISHED + in_flight
            reads = []
            real_records = backend.records

            def counting_records(job_id=None):
                found = real_records(job_id)
                if job_id is not None:
                    reads.append((job_id, len(found)))
                return found

            backend.records = counting_records
            cluster.kill_node("node0")
            cluster.tick(3)
            assert handle.manager.name == "node1/jm"
            assert reads == [(handle.job_id, in_flight)]
            [adoption] = collect_trace(handle).adoptions()
            assert adoption.detail["replayed_records"] == in_flight
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=15)["e"] == "done"

    def test_only_the_lowest_ranked_survivor_adopts(self):
        with Cluster(4, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            cluster.kill_node("node0")
            cluster.tick(3)
            adopted = [
                m.payload["manager"] for m in handle.job.client_queue.drain()
                if m.type is MessageType.MANAGER_ADOPTED
            ]
            assert adopted == ["node1/jm"]
            api.send_message(handle, "e", "x")
            assert api.wait(handle, timeout=15)["e"] == "x"

    def test_worker_failure_does_not_trigger_adoption(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle,
                TaskSpec(name="e", jar="echo.jar", cls="t.Echo", max_retries=2),
            )
            api.start_job(handle)
            victim = handle.job.task("e").node_name.split("/")[0]
            cluster.kill_node(victim)
            cluster.tick(3)
            api.send_message(handle, "e", "still here")
            assert api.wait(handle, timeout=15)["e"] == "still here"
            assert cluster.directory.lookup(handle.job_id).manager.name == "node0/jm"

    def test_finished_jobs_are_not_adopted(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            assert api.wait(handle, timeout=10)["q"] == "ok"
            cluster.kill_node("node0")
            cluster.tick(3)
            assert cluster.directory.lookup(handle.job_id).manager.name == "node0/jm"

    def test_adoption_finishes_a_job_whose_tasks_all_ended(self):
        """The manager died between a task's ``task-state`` and the
        ``job-finished`` it owed: the successor writes that at its own
        epoch, so no later failover adopts the job again."""
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            spec = TaskSpec(name="q", jar="quick.jar", cls="t.Quick")
            journal_a_dead_managers_job(
                cluster,
                "j",
                ("task-spec", {"spec": spec}),
                ("task-placed", {"task": "q", "node": "node2/tm", "epoch": 1}),
                ("task-state", {"task": "q", "state": "COMPLETED", "attempts": 1,
                                "result": "ok"}),
            )
            cluster.kill_node("node0")
            cluster.tick(3)
            successor = cluster.servers[1]
            assert cluster.directory.lookup("j").manager is successor.jobmanager
            assert successor.jobmanager.jobs["j"].wait(0) == {"q": "ok"}
            last = successor.journal.records("j")[-1]
            assert (last.kind, last.mepoch, last.data) == (
                "job-finished", 2, {"failed": False}
            )
            assert successor.journal.jobs_managed_by("node1/jm") == []
            cluster.kill_node("node1")
            cluster.tick(3)
            assert cluster.directory.lookup("j").manager is successor.jobmanager

    def test_adoption_does_not_run_a_job_that_already_failed(self):
        """A task FAILED and the manager died before ``job-finished``:
        fail-fast holds across the failover, so the successor finishes
        the job failed and places nothing."""
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            spec_a, spec_b = (
                TaskSpec(name=name, jar="quick.jar", cls="t.Quick") for name in "ab"
            )
            journal_a_dead_managers_job(
                cluster,
                "j",
                ("task-spec", {"spec": spec_a}),
                ("task-spec", {"spec": spec_b}),
                ("task-placed", {"task": "a", "node": "node2/tm", "epoch": 1}),
                ("task-state", {"task": "a", "state": "FAILED", "attempts": 1,
                                "error": "boom"}),
            )
            cluster.kill_node("node0")
            cluster.tick(3)
            successor = cluster.servers[1]
            job = successor.jobmanager.jobs["j"]
            with pytest.raises(TaskFailedError, match="boom"):
                job.wait(0)
            assert job.task("b").state is TaskState.PENDING
            assert job.task("b").node_name is None
            records = successor.journal.records("j")
            written = [(r.kind, r.data) for r in records if r.mepoch == 2]
            assert written == [
                ("job-adopted", {"manager": "node1/jm", "previous": "node0/jm"}),
                ("job-finished", {"failed": True}),
            ]
            assert successor.journal.jobs_managed_by("node1/jm") == []

    def test_a_job_with_no_tasks_yet_is_adopted_open(self):
        """The manager died after ``job-created`` and before any task: the
        successor keeps the job open for the client's tasks, so when it
        dies too a third manager adopts the job and completes it."""
        with Cluster(4, registry=echo_registry()) as cluster:
            for server in cluster.servers[:2]:
                server.accept_tasks = False
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            cluster.kill_node("node0")
            cluster.tick(3)
            assert handle.manager.name == "node1/jm"
            assert not handle.job.finished
            successor = cluster.servers[1]
            assert successor.journal.jobs_managed_by("node1/jm") == [handle.job_id]
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            cluster.kill_node("node1")
            cluster.tick(3)
            assert handle.manager.name == "node2/jm"
            assert handle.job.manager_epoch == 3
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=15)["e"] == "done"

    def test_manager_adopted_notification_reaches_the_client(self):
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            cluster.kill_node("node0")
            cluster.tick(3)
            api.send_message(handle, "e", "m")
            api.wait(handle, timeout=15)
            types = [m.type for m in handle.job.client_queue.drain()]
            assert MessageType.MANAGER_ADOPTED in types


class TestEvictJob:
    def test_evicts_placed_but_unstarted_hostings_and_frees_memory(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(
                handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo", memory=1234)
            )
            tm = cluster.servers[1].taskmanager
            assert tm.free_memory == tm.memory_capacity - 1234
            assert tm.evict_job(handle.job_id) == ["e"]
            assert tm.free_memory == tm.memory_capacity
            assert tm.evict_job(handle.job_id) == []  # idempotent

    def test_evicted_running_task_cannot_publish_its_outcome(self):
        release = threading.Event()

        class Gated(Task):
            def __init__(self, *params):
                pass

            def run(self, ctx):
                release.wait(10)
                return "zombie"

        registry = TaskRegistry()
        registry.register_class("g.jar", "t.G", Gated)
        try:
            with Cluster(2, registry=registry) as cluster:
                worker_only_nodes(cluster)
                api = CNAPI.initialize(cluster)
                handle = api.create_job("client", requirements={"prefer": "node0"})
                api.create_task(handle, TaskSpec(name="g", jar="g.jar", cls="t.G"))
                api.start_job(handle)
                assert handle.job.task("g").state is TaskState.RUNNING
                tm = cluster.servers[1].taskmanager
                assert tm.evict_job(handle.job_id) == ["g"]
                release.set()
                import time

                deadline = time.time() + 5
                while handle.job.task("g").state is TaskState.RUNNING:
                    if time.time() > deadline:
                        break
                    time.sleep(0.01)
                assert handle.job.task("g").result is None
        finally:
            release.set()


# -- heartbeat pumper lifecycle (stop_heartbeats / context manager) -------------


class TestHeartbeatLifecycle:
    def test_stop_heartbeats_joins_the_pumper_thread(self):
        cluster = Cluster(2, registry=echo_registry()).start()
        try:
            cluster.start_heartbeats(interval=0.01)
            pumper = cluster._pumper
            assert pumper is not None and pumper.is_alive()
            cluster.start_heartbeats(interval=0.01)  # idempotent while running
            assert cluster._pumper is pumper
            cluster.stop_heartbeats()
            assert cluster._pumper is None
            assert not pumper.is_alive()
            cluster.stop_heartbeats()  # safe to call again
        finally:
            cluster.shutdown()

    def test_context_manager_exit_stops_the_pumper(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            cluster.start_heartbeats(interval=0.01)
            pumper = cluster._pumper
            assert pumper.is_alive()
        assert not pumper.is_alive()
        assert not any(
            t.name == "cn-heartbeat-pumper" and t.is_alive()
            for t in threading.enumerate()
        )

    def test_heartbeats_can_restart_after_stop(self):
        with Cluster(2, registry=echo_registry()) as cluster:
            cluster.start_heartbeats(interval=0.01)
            first = cluster._pumper
            cluster.stop_heartbeats()
            cluster.start_heartbeats(interval=0.01)
            second = cluster._pumper
            assert second is not first and second.is_alive()


class TestActiveJobs:
    def test_an_offer_skips_retired_jobs_and_counts_an_adopted_one(self, monkeypatch):
        """A JobManager's offer to manage a job counts its unfinished
        jobs by reading the jobs it holds: the read of ``Job.finished``
        takes the job's lock, once per job per solicitation, and a job
        that left the cluster is never read again."""
        with Cluster(3, registry=echo_registry()) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            successor = cluster.servers[1].jobmanager
            done = []
            for _ in range(RETAINED_FINISHED + 5):
                handle = api.create_job("client", requirements={"prefer": "node1"})
                api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
                api.start_job(handle)
                assert api.wait(handle, timeout=15) == {"q": "ok"}
                assert handle.manager is successor
                done.append(handle.job)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            cluster.kill_node("node0")
            cluster.tick(3)  # node1 adopts the running job
            assert handle.manager is successor
            read = []
            finished = Job.finished
            monkeypatch.setattr(
                Job, "finished", property(lambda job: read.append(job) or finished.fget(job))
            )
            offer = Solicitation("jobmanager", {}, "client")
            assert successor.willing_to_manage(offer)["active_jobs"] == 1
            assert sorted(map(id, read)) == sorted(map(id, [*done[5:], handle.job]))
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=15) == {"e": "done"}
            read.clear()
            assert successor.willing_to_manage(offer)["active_jobs"] == 0
            # the adopted job's end retired the oldest job left
            assert sorted(map(id, read)) == sorted(map(id, [*done[6:], handle.job]))
