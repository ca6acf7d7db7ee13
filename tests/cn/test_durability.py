"""Durable job journal, replication, replay, and manager failover.

Unit coverage for the ``repro.cn.durability`` layer (backends, fencing,
replication, the pure ``replay_job`` fold, the job directory) plus
deterministic end-to-end manager-failover scenarios on small clusters:
explicit ``Cluster.tick`` calls, no background pumpers, no chaos rates.
"""

import json
import os
import tempfile
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import (
    CNAPI,
    Cluster,
    FileJournal,
    JobDirectory,
    JournalError,
    JournalRecord,
    MemoryJournal,
    Message,
    MessageType,
    ReplicatedJournal,
    Task,
    TaskRegistry,
    TaskSpec,
    TaskState,
    collect_trace,
    replay_job,
)
from repro.cn.durability import _decode_data, _encode_data, journal_factory_for_dir
from repro.cn.multicast import MulticastBus


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


def echo_registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("echo.jar", "t.Echo", Echo)
    registry.register_class("echo.jar", "t.EchoPair", EchoPair)
    registry.register_class("quick.jar", "t.Quick", Quick)
    return registry


def worker_only_nodes(cluster: Cluster) -> None:
    """node0 hosts the JobManager but never any task, so killing it is a
    pure *manager* failure (no orphaned hostings die with it)."""
    cluster.servers[0].accept_tasks = False


def rec(seq, job_id, kind, mepoch=1, origin="n0/jm", **data) -> JournalRecord:
    return JournalRecord(
        seq=seq, job_id=job_id, kind=kind, mepoch=mepoch, origin=origin, data=data
    )


# -- journal backends -----------------------------------------------------------


class TestMemoryJournal:
    def test_append_records_and_job_ids(self):
        journal = MemoryJournal()
        a = rec(1, "j1", "job-created", manager="n0/jm")
        b = rec(2, "j2", "job-created", manager="n1/jm")
        assert journal.append(a) and journal.append(b)
        assert journal.records() == [a, b]
        assert journal.records("j1") == [a]
        assert journal.job_ids() == ["j1", "j2"]
        assert len(journal) == 2

    def test_epoch_fence_rejects_stale_writes(self):
        journal = MemoryJournal()
        assert journal.append(rec(1, "j", "job-created", mepoch=1))
        assert journal.append(rec(2, "j", "job-adopted", mepoch=2))
        stale = rec(3, "j", "task-state", mepoch=1, task="t", state="COMPLETED")
        assert journal.append(stale) is False
        assert journal.fenced == [stale]
        assert stale not in journal.records("j")
        assert journal.manager_epoch("j") == 2

    def test_fence_is_per_job(self):
        journal = MemoryJournal()
        journal.append(rec(1, "a", "job-adopted", mepoch=5))
        assert journal.append(rec(2, "b", "job-created", mepoch=1))
        assert journal.manager_epoch("a") == 5
        assert journal.manager_epoch("b") == 1
        assert journal.manager_epoch("never-seen") == 0


    def test_extend_fences_per_record_inside_one_batch(self):
        journal = MemoryJournal()
        created = rec(1, "j", "job-created", mepoch=1)
        adopted = rec(2, "j", "job-adopted", mepoch=2)
        stale = rec(3, "j", "task-state", mepoch=1, task="t")
        other = rec(4, "k", "job-created", mepoch=1)
        assert journal.extend((created, adopted, stale, other)) == 3
        assert journal.records() == [created, adopted, other]
        assert journal.fenced == [stale]
        assert journal.extend(()) == 0

    def test_reading_one_job_touches_no_other_jobs_records(self):
        """records(job_id) / job_ids() come from the per-job index: the
        cost of a replay does not grow with the cluster's history."""

        class Tripwire(JournalRecord):
            touched = 0

            def __getattribute__(self, name):
                if name == "job_id":
                    Tripwire.touched += 1
                return object.__getattribute__(self, name)

        journal = MemoryJournal()
        journal.extend(
            Tripwire(i, f"old{i // 2}", "job-finished", 1, "n0/jm", {})
            for i in range(400)
        )
        mine = [rec(1000 + i, "mine", "task-state", task=f"t{i}") for i in range(3)]
        journal.extend(mine)
        Tripwire.touched = 0
        assert journal.records("mine") == mine
        assert journal.records("never-seen") == []
        assert len(journal.job_ids()) == 201 and journal.job_ids()[-1] == "mine"
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
        assert reloaded.manager_epoch("j") == 3
        assert reloaded.append(rec(9, "j", "task-state", mepoch=2, task="t")) is False
        reloaded.close()

    def test_reload_fills_the_per_job_index(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FileJournal(path)
        journal.extend([rec(1, "a", "job-created"), rec(2, "b", "job-created")])
        journal.extend([rec(3, "a", "job-finished", failed=False)])
        journal.close()
        reloaded = FileJournal(path)
        assert reloaded.job_ids() == ["a", "b"]
        assert [r.seq for r in reloaded.records("a")] == [1, 3]
        assert [r.seq for r in reloaded.records()] == [1, 2, 3]
        reloaded.close()

    def test_batch_is_on_disk_when_extend_returns(self, tmp_path):
        path = str(tmp_path / "j.jsonl")
        journal = FileJournal(path)
        journal.extend([rec(i, "j", "task-state", task=f"t{i}") for i in range(5)])
        # read through a second handle *before* close: the flush happened
        with open(path, encoding="utf-8") as fh:
            assert len(fh.readlines()) == 5
        journal.close()

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
        assert _decode_data(_encode_data(data)) == data


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
        assert journal.jobs_managed_by("n0/jm", unfinished_only=False) == ["a"]


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


# -- replay ---------------------------------------------------------------------


class TestReplayJob:
    def journal_for_one_task(self):
        spec = TaskSpec(name="t", jar="x.jar", cls="X")
        return [
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
        snapshot = replay_job("j", self.journal_for_one_task())
        assert (snapshot.client, snapshot.manager) == ("c", "n0/jm")
        assert snapshot.descriptor == "<cn2/>"
        assert snapshot.order == ["t"]
        assert snapshot.states["t"] == "COMPLETED"
        assert snapshot.results["t"] == 7
        assert snapshot.attempts["t"] == 2
        assert snapshot.epochs["t"] == 2  # highest placement epoch wins
        assert snapshot.nodes["t"] == "n2/tm"
        assert snapshot.checkpoints["t"] == (0, {"k": 0})
        assert snapshot.finished and not snapshot.failed
        assert snapshot.terminal_tasks() == ["t"]
        assert snapshot.pending_tasks() == []

    def test_pending_tasks_are_the_successors_worklist(self):
        records = self.journal_for_one_task()[:5]  # still RUNNING
        snapshot = replay_job("j", records)
        assert snapshot.pending_tasks() == ["t"]
        assert not snapshot.finished

    def test_stale_epoch_records_are_ignored(self):
        records = self.journal_for_one_task()[:6]
        records += [
            rec(7, "j", "job-adopted", mepoch=2, manager="n1/jm"),
            # a zombie write stamped with the dead manager's epoch
            rec(8, "j", "task-state", mepoch=1, task="t", state="COMPLETED", result=666),
        ]
        snapshot = replay_job("j", records)
        assert snapshot.manager == "n1/jm"
        assert snapshot.mepoch == 2
        assert snapshot.states["t"] == "RUNNING"
        assert "t" not in snapshot.results

    def test_other_jobs_records_are_skipped(self):
        records = self.journal_for_one_task()
        noise = [rec(99, "other", "job-created", manager="n3/jm")]
        assert replay_job("j", noise + records) == replay_job("j", records)


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
            replay_job("j", batched).deliveries
            == replay_job("j", singles).deliveries
            == {"t": messages}
        )

    def test_mixed_recipient_batch_fans_out_per_task(self):
        messages = [
            Message.user("s", "a", 1),
            Message.user("s", "b", 2),
            Message.user("s", "a", 3),
        ]
        snapshot = replay_job("j", [rec(1, "j", "delivery", messages=messages)])
        assert [m.payload for m in snapshot.deliveries["a"]] == [1, 3]
        assert [m.payload for m in snapshot.deliveries["b"]] == [2]

    def test_ledger_gc_truncates_replayed_deliveries(self):
        messages = self.deliveries("t", ["m1", "m2", "m3"])
        records = [rec(1, "j", "delivery", messages=messages)]
        # GC after the recipient's attempt completed: all three are gone
        snapshot = replay_job("j", records + [rec(2, "j", "ledger-gc", task="t", upto=3)])
        assert snapshot.deliveries["t"] == []
        assert snapshot.gc_watermarks == {"t": 3}

    def test_crash_before_gc_watermark_still_replays_everything(self):
        # no ledger-gc record landed before the crash: the successor's
        # replay must resurrect the full history (at-least-once holds)
        messages = self.deliveries("t", ["m1", "m2"])
        snapshot = replay_job("j", [rec(1, "j", "delivery", messages=messages)])
        assert snapshot.deliveries["t"] == messages
        assert snapshot.gc_watermarks == {}

    def test_gc_watermark_is_cumulative_across_attempts(self):
        first = self.deliveries("t", ["a1", "a2"])
        second = self.deliveries("t", ["b1"])
        records = [
            rec(1, "j", "delivery", messages=first),
            rec(2, "j", "ledger-gc", task="t", upto=2),
            rec(3, "j", "delivery", messages=second),
        ]
        snapshot = replay_job("j", records)
        # only the post-GC delivery survives
        assert [m.payload for m in snapshot.deliveries["t"]] == ["b1"]
        # a successor journaling the next truncation continues the count
        snapshot = replay_job("j", records + [rec(4, "j", "ledger-gc", task="t", upto=3)])
        assert snapshot.deliveries["t"] == []

    def test_a_delivery_journaled_after_the_gc_that_collected_it_stays_collected(
        self,
    ):
        # route_many ledgers m2 under the job lock and journals it after;
        # the recipient goes terminal in between, and its ledger-gc counts
        # m2 before m2's own record lands
        first, late = self.deliveries("t", ["m1", "m2"])
        records = [
            rec(1, "j", "delivery", messages=[first]),
            rec(2, "j", "ledger-gc", task="t", upto=2),
            rec(3, "j", "delivery", messages=[late]),
        ]
        snapshot = replay_job("j", records)
        assert snapshot.deliveries["t"] == []
        assert snapshot.gc_watermarks == {"t": 2}

    def test_duplicated_gc_record_is_idempotent(self):
        messages = self.deliveries("t", ["m1", "m2"])
        records = [
            rec(1, "j", "delivery", messages=messages),
            rec(2, "j", "ledger-gc", task="t", upto=1),
            rec(3, "j", "ledger-gc", task="t", upto=1),  # replica duplicate
        ]
        snapshot = replay_job("j", records)
        assert [m.payload for m in snapshot.deliveries["t"]] == ["m2"]

    def test_delivery_record_roundtrips_through_a_file_journal(self, tmp_path):
        path = str(tmp_path / "n.jsonl")
        journal = FileJournal(path)
        messages = self.deliveries("t", ["m1", np.arange(4.0)])
        journal.append(rec(1, "j", "delivery", messages=messages))
        journal.append(rec(2, "j", "ledger-gc", task="t", upto=1))
        journal.close()
        reloaded = FileJournal(path)
        snapshot = replay_job("j", reloaded.records("j"))
        [survivor] = snapshot.deliveries["t"]
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
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
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
        assert replay_job("j", records) == replay_job("j", list(records))

    @settings(max_examples=100, deadline=None)
    @given(journals())
    def test_replaying_a_fenced_backend_equals_replaying_the_raw_stream(self, records):
        """The backends' epoch fence and replay_job's internal fence drop
        exactly the same records, so recovery does not depend on whether
        zombie writes were filtered at append time or at replay time."""
        journal = MemoryJournal()
        for record in records:
            journal.append(record)
        assert replay_job("j", journal.records("j")) == replay_job("j", records)

    @settings(max_examples=60, deadline=None)
    @given(journals(), journals())
    def test_other_jobs_never_leak_into_a_snapshot(self, records, noise):
        foreign = [
            JournalRecord(seq=1000 + i, job_id="other", kind=r.kind,
                          mepoch=r.mepoch, origin=r.origin, data=r.data)
            for i, r in enumerate(noise)
        ]
        assert replay_job("j", records + foreign) == replay_job("j", records)


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
    """A file-backed writer and two memory replicas on one bus."""
    bus = MulticastBus()
    writer = ReplicatedJournal(
        FileJournal(os.path.join(directory, f"{tag}.jsonl")), bus, origin="node0"
    )
    replicas = [
        ReplicatedJournal(MemoryJournal(), bus, origin=f"node{i}") for i in (1, 2)
    ]
    for journal in (writer, *replicas):
        bus.attach_listener(
            journal.origin, lambda topic, batch, j=journal: j.receive(batch)
        )
    return writer, replicas


class TestBatchesEqualSingles:
    @settings(max_examples=60, deadline=None)
    @given(_WRITES)
    def test_any_split_into_batches_leaves_the_same_journal(self, writes):
        """Each write is one ``append_many`` on one side and N ``append``s
        on the other (adjacent writes may share job and epoch, so this is
        every split of the event sequence): same records on the writer and
        on every replica, same replay, same bytes on disk."""
        with tempfile.TemporaryDirectory() as directory:
            batched, batched_replicas = _replicated_trio(directory, "batched")
            single, single_replicas = _replicated_trio(directory, "single")
            for job_id, mepoch, events in writes:
                batched.append_many(job_id, events, mepoch)
                for kind, data in events:
                    single.append(job_id, kind, data, mepoch)
            written = batched.records()
            assert written == single.records()
            assert [r.seq for r in written] == sorted(r.seq for r in written)
            # a write fenced at the writer is never published
            assert batched.backend.fenced == single.backend.fenced
            for replica in batched_replicas + single_replicas:
                assert replica.records() == written
                assert replica.backend.fenced == []
            for job_id in ("j", "other"):
                assert replay_job(job_id, batched.records(job_id)) == replay_job(
                    job_id, single.records(job_id)
                )
            batched.backend.close()
            single.backend.close()
            with open(batched.backend.path, "rb") as a, open(
                single.backend.path, "rb"
            ) as b:
                assert a.read() == b.read()
            reloaded = FileJournal(batched.backend.path)
            assert reloaded.records() == written
            assert reloaded.job_ids() == batched.backend.job_ids()
            reloaded.close()


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
            snapshot = replay_job(job.job_id, jm.journal.records(job.job_id))
            assert snapshot.checkpoints["t"] == (5, {"k": 5})


# -- the checkpoint table: latest state per task, beside the log -----------------


class TestCheckpointTable:
    def test_records_put_each_retained_checkpoint_back_where_it_arrived(self):
        journal = MemoryJournal()
        a, b, c = (rec(i, "j", "task-state", task=f"t{i}") for i in (1, 3, 6))
        first = rec(2, "j", "checkpoint", task="x", tag=0, state="x0")
        other = rec(4, "j", "checkpoint", task="y", tag=0, state="y0")
        second = rec(5, "j", "checkpoint", task="x", tag=1, state="x1")
        noise = rec(7, "k", "checkpoint", task="x", tag=7, state="k7")
        assert journal.extend((a, first, b, other, second, c, noise)) == 7
        assert journal.records("j") == [a, b, other, second, c]
        assert journal.records() == [a, b, other, second, c, noise]
        assert journal.records("k") == [noise]
        assert len(journal) == 6 and journal.superseded == 1

    def test_two_jobs_with_no_log_record_between_come_back_in_seq_order(self):
        # hypothesis found it (TestBatchesEqualSingles): both tables sit at
        # the same log position, and j's table is older than k's
        journal = MemoryJournal()
        old = rec(1, "j", "checkpoint", task="t", tag=0, state="j0")
        other = rec(2, "k", "checkpoint", task="t", tag=0, state="k0")
        new = rec(3, "j", "checkpoint", task="t", tag=1, state="j1")
        assert journal.extend((old, other)) == 2 and journal.append(new)
        assert journal.records() == [other, new]

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
                tag, state = replay_job(job.job_id, records).checkpoints["t"]
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
        with Cluster(4, registry=echo_registry(), failure_k=2) as cluster:
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
        assert replay_job("j", journal.records("j")).checkpoints == {
            "t": (5, {"i": 5})
        }

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
            snapshot = replay_job(handle.job_id, records)
            assert snapshot.states["q"] == "COMPLETED"
            assert snapshot.results["q"] == "ok"
            assert snapshot.finished

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
            snapshot = replay_job(handle.job_id, records)
            assert snapshot.deliveries.get("e", []) == []
            assert snapshot.gc_watermarks.get("e", 0) >= 1

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
        journal_dir = str(tmp_path / "journals")
        with Cluster(2, registry=echo_registry(), journal_dir=journal_dir) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            api.wait(handle, timeout=10)
            job_id = handle.job_id
        reloaded = FileJournal(f"{journal_dir}/node0.jsonl")
        snapshot = replay_job(job_id, reloaded.records(job_id))
        assert snapshot.finished and snapshot.results["q"] == "ok"
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

        def slow_disk(self, start, arrived):
            time.sleep(0.001)  # every write lets the woken client run
            persist(self, start, arrived)

        monkeypatch.setattr(FileJournal, "_persist", slow_disk)
        names = [f"e{i}" for i in range(8)]
        for round_ in range(3):
            journal_dir = str(tmp_path / f"journals{round_}")
            cluster = Cluster(2, registry=echo_registry(), journal_dir=journal_dir)
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
            reloaded = FileJournal(f"{journal_dir}/node0.jsonl")
            snapshot = replay_job(job_id, reloaded.records(job_id))
            reloaded.close()
            assert snapshot.finished
            assert snapshot.states == {name: "COMPLETED" for name in names}
            assert snapshot.gc_watermarks == {name: 1 for name in names}


# -- manager failover -----------------------------------------------------------


class TestManagerFailover:
    def test_successor_adopts_and_completes_in_flight_job(self):
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
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
            jm = cluster.servers[1].jobmanager
            assert handle.job_id in jm.adopted_jobs
            trace = collect_trace(handle)
            [adoption] = trace.adoptions()
            assert adoption.detail["previous"] == "node0/jm"
            assert adoption.detail["manager"] == "node1/jm"
            assert adoption.detail["manager_epoch"] == 2

    def test_adoption_record_fences_the_dead_managers_epoch(self):
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            job_id = handle.job_id
            cluster.kill_node("node0")
            cluster.tick(3)
            successor_journal = cluster.servers[1].journal
            assert successor_journal.backend.manager_epoch(job_id) == 2
            # a write still stamped with the dead manager's epoch bounces
            assert successor_journal.append(job_id, "task-state", {}, 1) is None
            api.send_message(handle, "e", "done")
            assert api.wait(handle, timeout=15)["e"] == "done"

    def test_adoption_reads_only_the_adopted_jobs_records_once(self):
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
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
            assert len(backend) == 400 + in_flight
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
        with Cluster(4, registry=echo_registry(), failure_k=2) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="e", jar="echo.jar", cls="t.Echo"))
            api.start_job(handle)
            cluster.kill_node("node0")
            cluster.tick(3)
            adopters = [
                s.name for s in cluster.alive_servers()
                if handle.job_id in s.jobmanager.adopted_jobs
            ]
            assert adopters == ["node1"]
            api.send_message(handle, "e", "x")
            assert api.wait(handle, timeout=15)["e"] == "x"

    def test_worker_failure_does_not_trigger_adoption(self):
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
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
            for server in cluster.alive_servers():
                assert server.jobmanager.adopted_jobs == []

    def test_finished_jobs_are_not_adopted(self):
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
            worker_only_nodes(cluster)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="q", jar="quick.jar", cls="t.Quick"))
            api.start_job(handle)
            assert api.wait(handle, timeout=10)["q"] == "ok"
            cluster.kill_node("node0")
            cluster.tick(3)
            for server in cluster.alive_servers():
                assert server.jobmanager.adopted_jobs == []

    def test_manager_adopted_notification_reaches_the_client(self):
        with Cluster(3, registry=echo_registry(), failure_k=2) as cluster:
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
