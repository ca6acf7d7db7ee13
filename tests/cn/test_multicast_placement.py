"""Multicast discovery, JobManager selection, TaskManager placement."""

import sys
import threading

import pytest

from repro.cn import CNAPI, ChaosPolicy, Cluster, RunModel, TaskSpec
from repro.cn.errors import NoWillingJobManager, NoWillingTaskManager
from repro.cn.multicast import MulticastBus, Solicitation

from ..conftest import basic_registry


class TestBus:
    def test_solicit_collects_offers(self):
        bus = MulticastBus()
        bus.subscribe("a", lambda s: {"v": 1})
        bus.subscribe("b", lambda s: None)  # unwilling
        bus.subscribe("c", lambda s: {"v": 3})
        offers = bus.solicit(Solicitation("rule", {}, "client"))
        assert [name for name, _ in offers] == ["a", "c"]

    def test_crashing_responder_skipped(self):
        bus = MulticastBus()

        def boom(s):
            raise RuntimeError("node down")

        bus.subscribe("bad", boom)
        bus.subscribe("good", lambda s: {"ok": True})
        offers = bus.solicit(Solicitation("jobmanager", {}, "client"))
        assert [name for name, _ in offers] == ["good"]

    def test_unsubscribe(self):
        bus = MulticastBus()
        bus.subscribe("a", lambda s: {})
        bus.unsubscribe("a")
        assert bus.solicit(Solicitation("jobmanager", {}, "c")) == []

    def test_stats_accounting(self):
        bus = MulticastBus()
        for name in "abc":
            bus.subscribe(name, lambda s: {})
        bus.solicit(Solicitation("jobmanager", {}, "c"))
        assert bus.stats.solicitations == 1
        assert bus.stats.deliveries == 3
        assert bus.stats.responses == 3

    def test_raising_listener_is_counted_and_the_others_still_hear(self):
        bus = MulticastBus()
        heard = []

        def full_disk(topic, payload):
            raise OSError("no space left on device")

        bus.attach_listener("a", lambda topic, payload: heard.append(("a", payload)))
        bus.attach_listener("bad", full_disk)
        bus.attach_listener("c", lambda topic, payload: heard.append(("c", payload)))
        assert bus.publish("journal", "batch", sender="a") == 2
        assert heard == [("a", "batch"), ("c", "batch")]
        assert bus.stats.listener_errors == 1
        assert bus.stats.publishes == 1

    def test_raising_bid_is_counted_not_taken_for_unwillingness(
        self, registry, monkeypatch
    ):
        with Cluster(2, registry=registry) as cluster:
            broken = cluster.servers[1].taskmanager

            def compute_bid(rule):
                raise RuntimeError("bid arithmetic overflowed")

            monkeypatch.setattr(broken, "compute_bid", compute_bid)
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client")
            api.create_task(handle, TaskSpec(name="t", jar="echo.jar", cls="test.Echo"))
            assert handle.job.tasks["t"].node_name == "node0/tm"
            assert cluster.bus.stats.responder_errors == 1
            metrics = cluster.telemetry.metrics
            assert metrics.value("cn_bus_responder_errors_total") == 1

    def test_partition_and_chaos_are_consulted_per_receiver(self):
        """The fast path skips both checks only while neither is active:
        a partition still blocks per receiver, and an armed chaos policy
        still advances the bus-wide delivery index once per delivery."""
        chaos = ChaosPolicy(seed=7, bus_drop_rate=0.5)
        bus = MulticastBus(chaos=chaos)
        heard = []
        for name in ("node0", "node1", "node2"):
            bus.attach_listener(name, lambda topic, payload, n=name: heard.append(n))
            bus.subscribe(name, lambda s: {})
        bus.set_partition([["node0", "node1"], ["node2"]])
        delivered = bus.publish("journal", (), sender="node0")
        offers = bus.solicit(Solicitation("rule", {}, "node0"))
        assert "node2" not in heard and "node2" not in [n for n, _ in offers]
        assert bus.stats.partitioned == 2
        # 2 reachable receivers per call, each one chaos decision
        assert bus._delivery_index == 4
        assert delivered + len(offers) + bus.stats.dropped == 4

    def test_concurrent_rounds_lose_no_count(self):
        """Rounds on several threads at once: every round's counts land
        in ``BusStats`` (a lost read-modify-write would undercount)."""
        bus = MulticastBus()
        for name in ("node0", "node1", "node2"):
            bus.subscribe(name, lambda s: {})
            bus.attach_listener(name, lambda topic, payload: None)
        threads, rounds = 6, 300

        def worker():
            for _ in range(rounds):
                bus.solicit(Solicitation("rule", {}, "node0"))
                bus.publish("journal", (), sender="node0")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = [threading.Thread(target=worker) for _ in range(threads)]
            for thread in pool:
                thread.start()
            for thread in pool:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in pool)
        total = threads * rounds
        assert bus.stats.solicitations == bus.stats.publishes == total
        assert bus.stats.deliveries == bus.stats.responses == 3 * total


NODES = ("node0", "node1", "node2", "node3")
HALVES = [["node0", "node1"], ["node2", "node3"]]


class TestOneRoundOneMap:
    """A round reads the partition map once: a receiver that partitions,
    heals or readmits mid-round changes who the next round reaches, not
    who the rest of this one does."""

    CASES = {
        # (map the round starts under, what node1 does, reached this round,
        #  reached by the next round)
        "partition": (
            [list(NODES)],
            lambda bus: bus.set_partition(HALVES),
            list(NODES),
            ["node0", "node1"],
        ),
        "heal": (
            HALVES,
            lambda bus: bus.heal_partition(),
            ["node0", "node1"],
            list(NODES),
        ),
        "readmit": (
            HALVES,
            lambda bus: bus.readmit("node2"),
            ["node0", "node1"],
            ["node0", "node1", "node2"],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("via", ["solicit", "publish"])
    def test_mid_round_change_applies_to_the_next_round(self, via, case):
        start, change, this_round, next_round = self.CASES[case]
        bus = MulticastBus()
        reached = []

        def receiver(name):
            def deliver(*_):
                reached.append(name)
                if name == "node1" and len(reached) == 2:
                    change(bus)
                return {}

            return deliver

        for name in NODES:
            if via == "solicit":
                bus.subscribe(name, receiver(name))
            else:
                bus.attach_listener(name, receiver(name))

        def round_():
            reached.clear()
            if via == "solicit":
                bus.solicit(Solicitation("rule", {}, "node0"))
            else:
                bus.publish("journal", (), sender="node0")
            return list(reached)

        bus.set_partition(start)
        assert round_() == this_round
        assert bus.stats.partitioned == len(NODES) - len(this_round)
        assert round_() == next_round


class TestJobManagerSelection:
    def test_create_job_selects_a_manager(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        assert handle.job_id
        first = api.get_message(handle, timeout=1)
        assert first.type == "JOB_CREATED"

    def test_no_managers(self, registry):
        cluster = Cluster(2, registry=registry)
        for server in cluster.servers:
            server.accept_jobs = False
        cluster.start()
        try:
            api = CNAPI(cluster)
            with pytest.raises(NoWillingJobManager):
                api.create_job("client")
        finally:
            cluster.shutdown()

    def test_prefer_requirement(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client", requirements={"prefer": "node2"})
        assert handle.job_id.startswith("node2/")

    def test_max_jobs_respected(self, registry):
        cluster = Cluster(1, registry=registry)
        cluster.servers[0].jobmanager.max_jobs = 2
        cluster.start()
        try:
            api = CNAPI(cluster)
            api.create_job("c1")
            api.create_job("c2")
            with pytest.raises(NoWillingJobManager):
                api.create_job("c3")
        finally:
            cluster.shutdown()


class TestTaskPlacement:
    def spec(self, name="t", memory=1000, **kwargs):
        return TaskSpec(name=name, jar="echo.jar", cls="test.Echo", memory=memory, **kwargs)

    def test_placement_prefers_most_free_memory(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        # 4 nodes x 8000: first placements spread across nodes
        for i in range(4):
            api.create_task(handle, self.spec(f"t{i}", memory=4000))
        nodes = {handle.job.task(f"t{i}").node_name for i in range(4)}
        assert len(nodes) == 4, f"expected spread, got {nodes}"

    def test_memory_exhaustion(self, registry):
        cluster = Cluster(1, registry=registry, memory_per_node=1500)
        cluster.start()
        try:
            api = CNAPI(cluster)
            handle = api.create_job("client")
            api.create_task(handle, self.spec("t1", memory=1000))
            with pytest.raises(NoWillingTaskManager):
                api.create_task(handle, self.spec("t2", memory=1000))
        finally:
            cluster.shutdown()

    def test_memory_released_after_completion(self, registry):
        cluster = Cluster(1, registry=registry, memory_per_node=1500)
        cluster.start()
        try:
            api = CNAPI(cluster)
            h1 = api.create_job("client")
            api.create_task(h1, self.spec("t1", memory=1000))
            api.start_job(h1)
            api.wait(h1, timeout=10)
            h2 = api.create_job("client")
            api.create_task(h2, self.spec("t2", memory=1000))  # fits again
            api.start_job(h2)
            api.wait(h2, timeout=10)
        finally:
            cluster.shutdown()

    def test_oversized_task_never_places(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        with pytest.raises(NoWillingTaskManager):
            api.create_task(handle, self.spec(memory=10**9))

    def test_run_in_jobmanager_stays_local(self, cluster):
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        spec = self.spec("local", runmodel=RunModel.RUN_IN_JOBMANAGER)
        api.create_task(handle, spec)
        manager_node = handle.manager.name.split("/")[0]
        assert handle.job.task("local").node_name == f"{manager_node}/tm"

    def test_nodes_that_reject_tasks(self, registry):
        cluster = Cluster(2, registry=registry)
        cluster.servers[0].accept_tasks = False
        cluster.start()
        try:
            api = CNAPI(cluster)
            handle = api.create_job("client")
            for i in range(3):
                api.create_task(handle, self.spec(f"t{i}"))
            nodes = {handle.job.task(f"t{i}").node_name for i in range(3)}
            assert nodes == {"node1/tm"}
        finally:
            cluster.shutdown()


class TestClusterLifecycle:
    def test_context_manager(self, registry):
        wanted = Solicitation("jobmanager", {}, "c")
        with Cluster(2, registry=registry) as cluster:
            assert len(cluster.bus.solicit(wanted)) == 2
        reached = cluster.bus.stats.deliveries
        assert cluster.bus.solicit(wanted) == []
        assert cluster.bus.stats.deliveries == reached  # no subscriber left

    def test_bad_node_count(self, registry):
        with pytest.raises(ValueError):
            Cluster(0, registry=registry)

    def test_server_lookup(self, cluster):
        assert cluster.server("node1").name == "node1"
        with pytest.raises(KeyError):
            cluster.server("ghost")

    def test_total_free_memory(self, registry):
        with Cluster(3, registry=registry, memory_per_node=1000) as cluster:
            assert cluster.total_free_memory() == 3000
