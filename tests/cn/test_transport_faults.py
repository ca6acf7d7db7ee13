"""Transport-level fault modes: duplication and bounded reordering.

Also the structural-fault recording regressions: ``Cluster.partition``
and ``heal_partition`` land in the chaos fault log, and a revived node
rejoins default bus reachability even if it died mid-partition.
"""

from repro.cn import ChaosPolicy, Cluster
from repro.cn.messages import Message
from repro.cn.multicast import Solicitation
from repro.cn.queues import MessageQueue


class FakeChaos:
    """Scripted per-put fates, for deterministic ordering assertions."""

    enabled = True

    def __init__(self, fates):
        self.fates = dict(fates)  # put index -> fate

    def register_queue(self, owner):
        return owner

    def queue_fate(self, owner, index):
        return self.fates.get(index, "deliver")


def answering(bus, sender):
    """The nodes that answer *sender*'s solicitation, and how many
    deliveries to the others the partition blocked."""
    blocked = bus.stats.partitioned
    offers = bus.solicit(Solicitation("jobmanager", {}, sender))
    return sorted(name for name, _ in offers), bus.stats.partitioned - blocked


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
        # put 1 is held back for REORDER_HOLD (2) successful puts: the
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
            assert answering(cluster.bus, "node0") == (["node0", "node2"], 1)
            cluster.kill_node("node1")
            cluster.revive_node("node1")
            # the rebooted machine must not stay isolated by its stale
            # group membership; the rest of the partition persists
            everyone = ["node0", "node1", "node2"]
            assert answering(cluster.bus, "node0") == (everyone, 0)
            assert answering(cluster.bus, "node1") == (everyone, 0)

    def test_revived_node_heartbeats_across_old_partition(self):
        with Cluster(2) as cluster:
            cluster.partition(["node0"], ["node1"])
            cluster.tick(3)  # node1's beats cannot cross: declared dead
            jm = cluster.servers[0].jobmanager
            assert "node1/tm" in jm.failure_detector.dead_nodes()
            cluster.kill_node("node1")
            cluster.revive_node("node1")
            cluster.tick(1)  # readmitted: the next beat resurrects it
            assert jm.failure_detector.dead_nodes() == set()
