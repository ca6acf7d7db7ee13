"""A finished job leaves the cluster: every per-job store keeps the
newest ``RETAINED_FINISHED`` finished jobs and whatever is unfinished.

The stores: each manager's ``jobs``, each replica's logs and checkpoint
tables, the span store's traces, the directory's entries and
registrations (and the Portal's submissions, see ``test_portal.py``).
"""

import gc
import sys
import threading
import weakref

from repro.cn import CNAPI, Cluster, Task, TaskRegistry, TaskSpec
from repro.cn.durability import RETAINED_FINISHED, FileJournal, JournalRecord, MemoryJournal
from repro.cn.multicast import Solicitation

N = RETAINED_FINISHED


class Producer(Task):
    """Checkpoints, hands the client a payload no size can be computed
    for, and sends its sibling one message."""

    def __init__(self, *params):
        pass

    def run(self, ctx):
        self.checkpoint({"step": 1}, tag=1)
        ctx.send("client", threading.Lock())
        ctx.send("b", "hello")
        return "sent"


class Consumer(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.recv_user(timeout=30.0).payload


def registry() -> TaskRegistry:
    registry = TaskRegistry()
    registry.register_class("pair.jar", "t.Producer", Producer)
    registry.register_class("pair.jar", "t.Consumer", Consumer)
    return registry


def pair(api, node):
    """One finished two-task job managed on *node*; returns its id."""
    handle = api.create_job("client", requirements={"prefer": node})
    api.create_tasks(
        handle,
        [
            TaskSpec(name="a", jar="pair.jar", cls="t.Producer"),
            TaskSpec(name="b", jar="pair.jar", cls="t.Consumer"),
        ],
    )
    api.start_job(handle)
    assert api.wait(handle, timeout=30) == {"a": "sent", "b": "hello"}
    return handle.job_id


def rec(seq, job_id, kind, **data):
    return JournalRecord(seq, job_id, kind, 1, "n0/jm", data)


def finished_job(journal, i):
    """Journal job ``j<i>`` whole: created, one checkpoint, finished."""
    journal.extend((rec(3 * i, f"j{i}", "job-created", manager="n0/jm"),))
    journal.extend((rec(3 * i + 1, f"j{i}", "checkpoint", task="t", tag=1, state=i),))
    journal.extend((rec(3 * i + 2, f"j{i}", "job-finished", failed=False),))


class TestEveryStore:
    def test_after_3n_jobs_each_store_keeps_the_newest_n_and_the_unfinished(self):
        with Cluster(3, registry=registry()) as cluster:
            api = CNAPI.initialize(cluster)
            # one job stays unfinished throughout: nothing retires it
            open_job = api.create_job("client", requirements={"prefer": "node2"})
            api.create_task(open_job, TaskSpec(name="b", jar="pair.jar", cls="t.Consumer"))
            api.start_job(open_job)
            done = [pair(api, f"node{i % 3}") for i in range(3 * N)]
            kept = {*done[-N:], open_job.job_id}
            managers = [server.jobmanager for server in cluster.servers]
            assert set().union(*(m.jobs for m in managers)) == kept
            assert sum(len(m.jobs) for m in managers) == N + 1
            for server in cluster.servers:
                backend = server.journal.backend
                assert set(backend._by_job) == kept
                assert set(backend._checkpoints) == set(done[-N:])
            assert set(cluster.telemetry.spans.trace_ids()) == kept
            directory = cluster.directory
            assert set(directory.job_ids()) == set(directory._registered) == kept
            # the unfinished job still runs, and its end retires the oldest
            api.send_message(open_job, "b", "late")
            assert api.wait(open_job, timeout=30) == {"b": "late"}
            assert set(directory.job_ids()) == {*done[-N + 1 :], open_job.job_id}

    def test_a_zombie_batch_for_a_retired_job_is_refused_and_recreates_nothing(self):
        with Cluster(2, registry=registry()) as cluster:
            api = CNAPI.initialize(cluster)
            done = [pair(api, "node0") for _ in range(N + 1)]
            oldest = done[0]
            writer = cluster.servers[0].journal
            # still stamped with the epoch the job finished at
            zombie = writer.append(oldest, "task-state", {"task": "a", "state": "RUNNING"}, 1)
            assert zombie is None
            for server in cluster.servers:
                assert server.journal.records(oldest) == []
                assert oldest not in server.journal.backend._by_job
            assert writer.backend.fenced[-1].job_id == oldest

    def test_a_failed_over_job_leaves_the_dead_managers_jobs_too(self):
        """The dead manager's copy of an adopted job goes when the job
        retires: revived, that manager counts no job that never ends."""
        with Cluster(3, registry=registry()) as cluster:
            cluster.servers[0].accept_tasks = False  # a pure manager failure
            api = CNAPI.initialize(cluster)
            handle = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(handle, TaskSpec(name="b", jar="pair.jar", cls="t.Consumer"))
            api.start_job(handle)
            job_id, dead = handle.job_id, cluster.servers[0].jobmanager
            cluster.kill_node("node0")
            cluster.tick(3)
            adopter = cluster.directory.lookup(job_id).manager
            assert adopter is not dead and job_id in dead.jobs
            api.send_message(handle, "b", "x")
            assert api.wait(handle, timeout=30) == {"b": "x"}
            cluster.revive_node("node0")
            for _ in range(N):
                pair(api, "node1")
            assert job_id not in dead.jobs and job_id not in adopter.jobs
            offer = Solicitation("jobmanager", {}, "client")
            assert dead.willing_to_manage(offer)["active_jobs"] == 0

    def test_the_counters_never_fall_across_3n_jobs(self):
        with Cluster(2, registry=registry()) as cluster:
            api = CNAPI.initialize(cluster)
            metrics = cluster.telemetry.metrics
            routed, unsized = [], []
            for i in range(3 * N):
                pair(api, f"node{i % 2}")
                routed.append(metrics.total("cn_messages_routed_total"))
                unsized.append(metrics.value("cn_payload_unsized_total"))
            assert routed == sorted(routed) and routed[-1] == 3 * N * routed[0]
            assert unsized == list(range(1, 3 * N + 1))
            # one series per manager, none per job
            series = [m for m in metrics.all_metrics() if m.name == "cn_messages_routed_total"]
            assert sorted(m.labels["manager"] for m in series) == ["node0/jm", "node1/jm"]

    def test_concurrent_jobs_retire_without_losing_a_count(self):
        """Four clients finish 2N jobs at once on two managers while a
        reader folds the registry: no read sees a total fall, and none is
        lost when the jobs that counted it retire."""
        with Cluster(2, registry=registry()) as cluster:
            api = CNAPI.initialize(cluster)
            metrics = cluster.telemetry.metrics
            pair(api, "node0")
            per_job = metrics.total("cn_messages_routed_total")
            done, falls = threading.Event(), []

            def client(node):
                for _ in range(N // 2):
                    pair(api, node)

            def read():
                last = 0.0
                while not done.is_set():
                    now = metrics.total("cn_messages_routed_total")
                    if now < last:
                        falls.append((last, now))
                    last = now

            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-5)
            try:
                reader = threading.Thread(target=read)
                clients = [
                    threading.Thread(target=client, args=(f"node{i % 2}",)) for i in range(4)
                ]
                reader.start()
                for thread in clients:
                    thread.start()
                for thread in clients:
                    thread.join(timeout=60)
                done.set()
                reader.join(timeout=60)
            finally:
                sys.setswitchinterval(interval)
            assert not reader.is_alive() and not any(t.is_alive() for t in clients)
            assert falls == []
            jobs = 1 + 4 * (N // 2)
            assert metrics.total("cn_messages_routed_total") == jobs * per_job
            assert metrics.value("cn_payload_unsized_total") == jobs
            assert len(cluster.directory.job_ids()) == N
            managers = [server.jobmanager for server in cluster.servers]
            assert sum(len(manager.jobs) for manager in managers) == N

    def test_a_retired_job_is_freed_by_one_collection(self):
        with Cluster(2, registry=registry()) as cluster:
            api = CNAPI.initialize(cluster)
            first = api.create_job("client", requirements={"prefer": "node0"})
            api.create_task(first, TaskSpec(name="a", jar="pair.jar", cls="t.Consumer"))
            api.start_job(first)
            api.send_message(first, "a", "x")
            api.wait(first, timeout=30)
            job = weakref.ref(first.job)
            del first
            for _ in range(N - 1):
                pair(api, "node0")
            assert job() is not None  # the newest N finished jobs include it
            pair(api, "node0")
            gc.collect()
            assert job() is None

    def test_a_retired_job_is_freed_by_reference_count(self):
        """No cycle holds a finished job: an ended hosting is not its
        task's, and the journal hook holds the journal, not the job."""
        with Cluster(2, registry=registry()) as cluster:
            api = CNAPI.initialize(cluster)
            gc.disable()
            try:
                jobs = [weakref.ref(cluster.directory.lookup(pair(api, "node0")).job)]
                jobs += [weakref.ref(cluster.directory.lookup(pair(api, "node0")).job)]
                for _ in range(N):
                    pair(api, "node0")
                assert [job() for job in jobs] == [None, None]
            finally:
                gc.enable()


class TestJournalBackends:
    def test_a_zombie_batch_for_a_retired_job_re_creates_nothing(self):
        journal = MemoryJournal()
        for i in range(N + 1):
            finished_job(journal, i)
        assert journal.records("j0") == [] and journal.records("j1")
        zombie = rec(999, "j0", "task-state", task="t", state="RUNNING")
        assert journal.extend((zombie,)) == 0
        assert journal.records("j0") == [] and "j0" not in journal._by_job
        assert journal.fenced == [zombie]

    def test_a_file_keeps_every_record_and_a_reload_the_newest_n(self, tmp_path):
        path = str(tmp_path / "node0.jsonl")
        journal = FileJournal(path)
        for i in range(3 * N):
            finished_job(journal, i)
        journal.close()
        with open(path, encoding="utf-8") as fh:
            assert sum(1 for line in fh if line.strip()) == 3 * 3 * N
        reloaded = FileJournal(path)
        newest = [f"j{i}" for i in range(2 * N, 3 * N)]
        assert list(reloaded._by_job) == list(reloaded._checkpoints) == newest
        assert len(reloaded) == 3 * N
        # the retired jobs' fences survive the reload
        assert reloaded.extend((rec(9999, "j0", "task-state", task="t"),)) == 0
        reloaded.close()
