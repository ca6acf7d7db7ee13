"""Transport-level fault modes: duplication, bounded reordering, payload
corruption -- and the corruption-safe path (CRC digests, dequeue
verification, poison quarantine, dead-letter journaling).

Also the structural-fault recording regressions: ``Cluster.partition``
and ``heal_partition`` land in the chaos fault log, and a revived node
rejoins default bus reachability even if it died mid-partition.
"""

import numpy as np
import pytest

from repro.apps.floyd import floyd_registry, floyd_warshall, random_weighted_graph
from repro.apps.floyd.io import store_matrix
from repro.apps.floyd.model import (
    JOIN_CLASS,
    JOIN_JAR,
    SPLIT_CLASS,
    SPLIT_JAR,
    WORKER_CLASS,
    WORKER_JAR,
)
from repro.cn import (
    CNAPI,
    ChaosPolicy,
    Cluster,
    Message,
    MessageQueue,
    TaskSpec,
    replay_job,
)
from repro.cn.errors import MessageTimeout
from repro.cn.messages import CORRUPT_MARKER, payload_digest


class FakeChaos:
    """Scripted per-put fates, for deterministic ordering assertions."""

    enabled = True
    reorder_hold = 2

    def __init__(self, fates):
        self.fates = dict(fates)  # put index -> fate

    def register_queue(self, owner):
        return owner

    def queue_fate(self, owner, index):
        return self.fates.get(index, "deliver")


def put_range(queue, count):
    for i in range(count):
        queue.put(Message.user("s", "t", i))


class TestDuplicateFate:
    def test_duplicate_admits_same_frame_twice(self):
        q = MessageQueue(owner="j/t", chaos=ChaosPolicy(queue_duplicate_rate=1.0))
        put_range(q, 3)
        drained = q.drain()
        assert [m.payload for m in drained] == [0, 0, 1, 1, 2, 2]
        # the retransmit is the *same* frame: serials pair up
        serials = [m.serial for m in drained]
        assert serials[0] == serials[1] and serials[2] == serials[3]

    def test_duplicates_recorded_in_fault_log(self):
        chaos = ChaosPolicy(queue_duplicate_rate=1.0)
        q = MessageQueue(owner="j/t", chaos=chaos)
        put_range(q, 2)
        kinds = [k for k, _, _ in chaos.fault_summary()]
        assert kinds == ["queue-duplicate", "queue-duplicate"]


class TestReorderFate:
    def test_reorder_holds_for_two_puts(self):
        # put 1 is held back for reorder_hold=2 successful puts: the
        # consumer sees 2, 3, then the held-back 1 -- bounded reordering
        q = MessageQueue(owner="j/t", chaos=FakeChaos({1: "reorder"}))
        put_range(q, 3)
        assert [m.payload for m in q.drain()] == [1, 2, 0]

    def test_reorder_rate_never_loses_messages(self):
        chaos = ChaosPolicy(seed=5, queue_reorder_rate=0.3)
        q = MessageQueue(owner="j/t", chaos=chaos)
        put_range(q, 30)
        drained = q.drain()
        assert sorted(m.payload for m in drained) == list(range(30))
        assert [m.payload for m in drained] != list(range(30))
        assert ("queue-reorder", "queue:j/t", "j/t") in chaos.fault_summary()


class TestCorruptFate:
    def test_corruption_damages_payload_keeps_envelope(self):
        q = MessageQueue(owner="j/t", chaos=ChaosPolicy(corrupt_rate=1.0))
        original = Message.user("s", "t", {"rows": [1, 2]}).seal()
        q.put(original)
        [damaged] = q.drain()
        assert damaged.payload == (CORRUPT_MARKER, original.serial)
        assert damaged.serial == original.serial
        assert damaged.digest == original.digest  # stale checksum kept
        assert not damaged.digest_ok()

    def test_without_verification_damage_flows_through(self):
        # checksums off: the corrupt frame is delivered as-is -- exactly
        # the failure mode dequeue verification exists to close
        q = MessageQueue(owner="j/t", chaos=ChaosPolicy(corrupt_rate=1.0))
        q.put(Message.user("s", "t", "payload").seal())
        got = q.get(timeout=1.0)
        assert got.payload[0] == CORRUPT_MARKER

    def test_verification_quarantines_never_delivers(self):
        poisoned = []
        q = MessageQueue(
            owner="j/t",
            chaos=ChaosPolicy(corrupt_rate=1.0),
            verify_digests=True,
            on_poison=poisoned.append,
        )
        q.put(Message.user("s", "t", "payload").seal())
        with pytest.raises(MessageTimeout):
            q.get(timeout=0.05)
        assert q.poisoned == 1
        assert [m.payload[0] for m in poisoned] == [CORRUPT_MARKER]

    def test_unsealed_frames_pass_verification(self):
        # digest None means unprotected, not corrupt: selective receive
        # and get still deliver the (damaged) frame
        q = MessageQueue(
            owner="j/t", chaos=ChaosPolicy(corrupt_rate=1.0), verify_digests=True
        )
        q.put(Message.user("s", "t", "unsealed"))
        assert q.get(timeout=1.0).payload[0] == CORRUPT_MARKER
        assert q.poisoned == 0

    def test_scripted_corruption_is_one_shot(self):
        chaos = ChaosPolicy().corrupt_message("j/t", index=2)
        q = MessageQueue(owner="j/t", chaos=chaos)
        put_range(q, 4)
        payloads = [m.payload for m in q.drain()]
        assert payloads[0] == 0
        assert payloads[1][0] == CORRUPT_MARKER  # exactly index 2
        assert payloads[2:] == [2, 3]
        assert chaos.fault_summary() == [("queue-corrupt", "queue:j/t", "j/t")]


def build_floyd_job(api, source, workers=2):
    handle = api.create_job("client", requirements={"prefer": "node0"})
    api.create_task(
        handle,
        TaskSpec(name="split", jar=SPLIT_JAR, cls=SPLIT_CLASS, params=(source,)),
    )
    names = [f"w{i}" for i in range(workers)]
    for index, name in enumerate(names):
        api.create_task(
            handle,
            TaskSpec(
                name=name,
                jar=WORKER_JAR,
                cls=WORKER_CLASS,
                params=(index + 1,),
                depends=("split",),
            ),
        )
    api.create_task(
        handle,
        TaskSpec(
            name="join",
            jar=JOIN_JAR,
            cls=JOIN_CLASS,
            params=("",),
            depends=tuple(names),
        ),
    )
    api.start_job(handle)
    return handle


class TestCorruptionQuarantineEndToEnd:
    def test_corrupt_frame_becomes_dead_letter_and_job_completes(self):
        # a single scripted bit-flip on a worker's queue: the digest
        # check quarantines the frame, the job journals a dead-letter,
        # re-offers the pristine ledgered copy, and still converges to
        # the correct matrix
        chaos = ChaosPolicy().corrupt_message("/w1", index=2)
        matrix = random_weighted_graph(6, seed=3)
        with Cluster(
            3, registry=floyd_registry(), chaos=chaos, checksums=True
        ) as cluster:
            api = CNAPI.initialize(cluster)
            source = store_matrix("corrupt-e2e", matrix)
            handle = build_floyd_job(api, source)
            results = api.wait(handle, timeout=30)
            assert np.allclose(results["join"], floyd_warshall(matrix))
            job = handle.job
            assert job.messages_poisoned >= 1
            [entry] = job.dead_letters[:1]
            assert entry["task"] == "w1"
            assert entry["expected_digest"] != entry["observed_digest"]
            # the dead letter is journaled: it survives a pure replay
            records = cluster.servers[0].journal.records(handle.job_id)
            snapshot = replay_job(handle.job_id, records)
            assert snapshot.dead_letters
            assert snapshot.dead_letters[0]["serial"] == entry["serial"]
            assert snapshot.finished and not snapshot.failed
            # and the quarantined serial is still ledgered for replay
            serials = {
                m.serial
                for r in records
                if r.kind == "delivery"
                for m in r.data["messages"]
                if m.recipient == "w1"
            }
            assert entry["serial"] in serials
            assert ("queue-corrupt", "node-crash", "partition") not in {
                (k, k, k) for k, _, _ in chaos.fault_summary()
            }
            assert any(k == "queue-corrupt" for k, _, _ in chaos.fault_summary())

    def test_checksums_off_means_no_quarantine_machinery(self):
        matrix = random_weighted_graph(5, seed=4)
        with Cluster(2, registry=floyd_registry()) as cluster:
            api = CNAPI.initialize(cluster)
            source = store_matrix("no-checksums", matrix)
            handle = build_floyd_job(api, source)
            results = api.wait(handle, timeout=30)
            assert np.allclose(results["join"], floyd_warshall(matrix))
            assert handle.job.messages_poisoned == 0
            assert handle.job.dead_letters == []


class TestPartitionFaultRecords:
    def test_partition_and_heal_are_recorded(self):
        chaos = ChaosPolicy()
        with Cluster(2, chaos=chaos) as cluster:
            cluster.partition(["node1"], ["node0"])
            cluster.heal_partition()
        summary = chaos.fault_summary()
        # groups are normalized (sorted) so the record is seed-stable
        assert ("partition", "bus", "node0 | node1") in summary
        assert ("partition-heal", "bus", "*") in summary

    def test_kill_node_records_nothing(self):
        chaos = ChaosPolicy()
        with Cluster(2, chaos=chaos) as cluster:
            cluster.kill_node("node1")
        assert chaos.fault_summary() == []

    def test_revive_is_recorded(self):
        chaos = ChaosPolicy()
        with Cluster(2, chaos=chaos) as cluster:
            cluster.kill_node("node1")
            cluster.revive_node("node1")
        assert ("node-revive", "node", "node1") in chaos.fault_summary()


class TestHealOnRevive:
    def test_revived_node_rejoins_default_reachability(self):
        with Cluster(3) as cluster:
            cluster.partition(["node0", "node2"], ["node1"])
            assert not cluster.bus.reachable("node0", "node1")
            cluster.kill_node("node1")
            cluster.revive_node("node1")
            # the rebooted machine must not stay isolated by its stale
            # group membership; the rest of the partition persists
            assert cluster.bus.reachable("node0", "node1")
            assert cluster.bus.reachable("node1", "node2")
            assert cluster.bus.reachable("node0", "node2")

    def test_revived_node_heartbeats_across_old_partition(self):
        with Cluster(2, failure_k=2) as cluster:
            cluster.partition(["node0"], ["node1"])
            cluster.tick(3)  # node1's beats cannot cross: declared dead
            jm = cluster.servers[0].jobmanager
            assert "node1/tm" in jm.failure_detector.dead_nodes()
            cluster.kill_node("node1")
            cluster.revive_node("node1")
            cluster.tick(1)  # readmitted: the next beat resurrects it
            assert jm.failure_detector.dead_nodes() == set()
