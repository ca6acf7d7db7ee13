"""Unit tests for job/task runtime internals and node components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import (
    CNAPI,
    Cluster,
    ClusterConfig,
    CnError,
    Job,
    MessageType,
    RunModel,
    TaskRegistry,
    TaskSpec,
)
from repro.cn.durability import ReplicatedJournal
from repro.cn.errors import ShutdownError, UnknownTaskError
from repro.cn.job import TaskState, payload_nbytes
from repro.cn.messages import Message
from repro.cn.multicast import MulticastBus, Solicitation
from repro.cn.scheduler import PlacementRule
from repro.cn.server import CNServer
from repro.cn.taskmanager import TaskManager
from repro.cn.transport import InProcTransport
from repro.core.cnx import CnxParam, CnxTask, CnxTaskReq

from ..conftest import Echo, Hosting, basic_registry


class TestTaskSpec:
    def test_from_cnx_coerces_params(self):
        task = CnxTask(
            "t",
            "x.jar",
            "p.T",
            depends=["a", "b"],
            task_req=CnxTaskReq(memory=512, runmodel="RUN_AS_PROCESS"),
            params=[CnxParam("Integer", "3"), CnxParam("String", "s")],
        )
        spec = TaskSpec.from_cnx(task)
        assert spec.depends == ("a", "b")
        assert spec.memory == 512
        assert spec.runmodel is RunModel.RUN_AS_PROCESS
        assert spec.params == (3, "s")

    def test_from_cnx_bad_runmodel(self):
        task = CnxTask("t", "x.jar", "p.T", task_req=CnxTaskReq(runmodel="NOPE"))
        with pytest.raises(ValueError, match="runmodel"):
            TaskSpec.from_cnx(task)

    def test_with_instance(self):
        spec = TaskSpec(name="w", jar="x.jar", cls="p.T", depends=("root",))
        instance = spec.with_instance(3, (9,))
        assert instance.name == "w3"
        assert instance.params == (9,)
        assert instance.depends == ("root",)

    def test_spec_immutable(self):
        spec = TaskSpec(name="w", jar="x.jar", cls="p.T")
        with pytest.raises(Exception):
            spec.name = "other"  # type: ignore[misc]


class TestJobObject:
    def make_job(self):
        job = Job("j1", "client")
        job.add_task(TaskSpec(name="a", jar="x.jar", cls="p.T"))
        job.add_task(TaskSpec(name="b", jar="x.jar", cls="p.T", depends=("a",)))
        return job

    def test_duplicate_task_rejected(self):
        job = self.make_job()
        with pytest.raises(Exception, match="duplicate"):
            job.add_task(TaskSpec(name="a", jar="x.jar", cls="p.T"))

    def test_unknown_task_lookup(self):
        job = self.make_job()
        with pytest.raises(UnknownTaskError):
            job.task("ghost")

    def test_route_to_client(self):
        job = self.make_job()
        job.route(Message.user("a", "client", "hello"))
        assert job.client_queue.get(0.1).payload == "hello"

    def test_route_to_unplaced_task_is_ledgered(self):
        # the recipient exists but has no queue yet (placement window):
        # the sender must not crash -- the message is ledgered and replay
        # delivers it once the task is placed
        from repro.cn.queues import MessageQueue

        job = self.make_job()
        job.route(Message.user("client", "a", "x"))
        assert job.has_ledgered("a")
        queue = MessageQueue(owner="j1/a")
        job.tasks["a"].hosting = Hosting(queue)
        assert job.replay_into("a") == 1
        assert queue.get(0.1).payload == "x"

    def test_route_to_unknown_task_still_raises(self):
        job = self.make_job()
        with pytest.raises(UnknownTaskError):
            job.route(Message.user("client", "ghost", "x"))

    def test_route_many_batches_accounting_and_interns_payloads(self):
        from repro.cn.queues import MessageQueue

        job = self.make_job()
        for name in ("a", "b"):
            job.tasks[name].hosting = Hosting(MessageQueue(owner=f"j1/{name}"))
        payload = b"x" * 100
        job.route_many(
            [
                Message.user("client", "a", payload),
                Message.user("client", "b", payload),
            ]
        )
        assert job.messages_routed == 2
        assert job.payload_bytes == 200     # both charged ...
        assert job.payload_sizings == 1     # ... but sized once (shared ref)
        assert job.payload_reuses == 1
        assert job.payloads_pickle_sized == 0  # bytes take the fast path
        assert job.tasks["a"].hosting.queue.get(0.1).payload == payload
        assert job.tasks["b"].hosting.queue.get(0.1).payload == payload

    def test_route_many_unknown_recipient_routes_nothing(self):
        from repro.cn.queues import MessageQueue

        job = self.make_job()
        job.tasks["a"].hosting = Hosting(MessageQueue(owner="j1/a"))
        with pytest.raises(UnknownTaskError):
            job.route_many(
                [
                    Message.user("client", "a", "ok"),
                    Message.user("client", "ghost", "boom"),
                ]
            )
        # validation happens before any delivery: no partial fan-out
        assert job.messages_routed == 0
        assert len(job.tasks["a"].hosting.queue) == 0

    def test_ready_tasks_gate_on_dependencies(self):
        job = self.make_job()
        # not placed yet: nothing ready
        assert job.ready_tasks() == []
        for name in ("a", "b"):
            job.tasks[name].state = TaskState.CREATED
        ready = [t.name for t in job.ready_tasks()]
        assert ready == ["a"]
        job.tasks["a"].state = TaskState.COMPLETED
        job.note_terminal("a")
        ready = [t.name for t in job.ready_tasks()]
        assert ready == ["b"]

    def test_fail_fast_finishes_job(self):
        job = self.make_job()
        job.tasks["a"].state = TaskState.FAILED
        job.tasks["a"].error = "boom"
        job.note_terminal("a")
        assert job.finished
        assert job.failed is not None

    def test_dependents_of(self):
        job = self.make_job()
        assert [t.name for t in job.dependents_of("a")] == ["b"]
        assert job.dependents_of("b") == []

    def test_a_rebound_job_that_finishes_still_reads_rebound(self):
        # a deposed manager's Job may finish its side of a partition after
        # the successor re-bound the id: its waiter must re-resolve, not
        # take the deposed manager's results
        job = self.make_job()
        job.mark_rebound()
        job.tasks["a"].state = TaskState.FAILED
        job.note_terminal("a")
        assert job.finished
        assert job.wait_or_rebind(0) == "rebound"

    def test_a_refused_append_changes_nothing(self):
        from repro.cn.queues import MessageQueue

        job = self.make_job()
        queue = MessageQueue(owner="j1/a")
        job.tasks["a"].hosting = Hosting(queue)
        refused = []
        job.set_journal(lambda job_id, events, mepoch: refused.append(events) or ())
        job.route(Message.user("client", "a", "x"))
        job.save_checkpoint("a", {"k": 1}, tag=1)
        assert len(refused) == 2
        assert not job.has_ledgered("a") and len(queue) == 0
        assert job.load_checkpoint("a") is None
        # the same writes, accepted, are applied
        journal = ReplicatedJournal()
        job.set_journal(journal.append_many)
        job.route(Message.user("client", "a", "x"))
        job.save_checkpoint("a", {"k": 1}, tag=1)
        assert job.has_ledgered("a") and queue.get(0.1).payload == "x"
        assert job.load_checkpoint("a") == (1, {"k": 1})
        job.gc_ledger("a")
        assert not job.has_ledgered("a") and job.gc_watermarks == {"a": 1}


def nbytes_by_definition(payload, depth=0):
    """What :func:`payload_nbytes` estimates, item by item: 1 for None and
    bool, 8 for a number, ``len`` for str/bytes, ``nbytes`` where an
    object has one, 8 per container plus 8 per item (16 per dict pair)
    and None for anything unsizable or nested deeper than 12."""
    if payload is None or type(payload) is bool:
        return 1
    if type(payload) in (int, float, complex):
        return 8
    if type(payload) in (str, bytes, bytearray):
        return len(payload)
    if isinstance(getattr(payload, "nbytes", None), int):
        return payload.nbytes
    if depth >= 12:
        return None
    if type(payload) in (tuple, list, set, frozenset):
        sizes = [nbytes_by_definition(item, depth + 1) for item in payload]
        return None if None in sizes else 8 + sum(size + 8 for size in sizes)
    if type(payload) is dict:
        sizes = [
            nbytes_by_definition(x, depth + 1) for pair in payload.items() for x in pair
        ]
        return None if None in sizes else 8 + sum(sizes) + 16 * len(payload)
    return None


_NUMBERS = st.one_of(
    st.integers(), st.floats(allow_nan=False), st.complex_numbers(allow_nan=False)
)
_SCALARS = st.one_of(
    _NUMBERS, st.none(), st.booleans(), st.text(max_size=3), st.binary(max_size=3)
)
#: long rows of numbers, some with one item that is not a number
_ROWS = st.lists(_NUMBERS, min_size=12, max_size=40).flatmap(
    lambda row: st.one_of(
        st.just(row),
        st.builds(
            lambda i, x: row[:i] + [x] + row[i:],
            st.integers(0, len(row)),
            st.one_of(st.booleans(), st.text(max_size=2), st.builds(object)),
        ),
    )
)
_PAYLOADS = st.recursive(
    st.one_of(_SCALARS, _ROWS, _ROWS.map(tuple), st.lists(_NUMBERS, max_size=40)),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=2), children, max_size=3),
        st.frozensets(_NUMBERS, max_size=40),
    ),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(payload=_PAYLOADS, nesting=st.integers(0, 13))
def test_payload_nbytes_is_its_definition(payload, nesting):
    """The fast path for long rows of numbers returns the number the item
    by item definition does, inside the depth limit and at it."""
    for _ in range(nesting):
        payload = [payload]
    assert payload_nbytes(payload) == nbytes_by_definition(payload)


@pytest.mark.parametrize(
    "options", [{}, {"telemetry": None}], ids=["telemetry", "no-telemetry"]
)
def test_notifications_are_built_with_their_causal_context(monkeypatch, options):
    """A TASK_CREATED notification is built with the context the router
    would have stamped on it, ``(job_id, "job")`` when the job has
    telemetry, so ``route_many`` copies none of them; a client's message,
    built without one, is the router's to stamp (one ``replace``)."""
    import repro.cn.job as job_module

    calls = []

    def counted_replace(obj, **changes):
        calls.append(sorted(changes))
        return replace(obj, **changes)

    replace = job_module.replace
    monkeypatch.setattr(job_module, "replace", counted_replace)
    with Cluster(
        4, registry=basic_registry(), memory_per_node=10**6,
        slots_per_node=1024, scheduler="bid", **options,
    ) as cluster:
        api = CNAPI.initialize(cluster)
        handle = api.create_job("client")
        handle.job.client_queue.drain()
        calls.clear()
        api.create_tasks(
            handle,
            [TaskSpec(name=f"t{i}", jar="echo.jar", cls="test.Echo")
             for i in range(256)],
        )
        created = handle.job.client_queue.drain()
        notified = list(calls)
        calls.clear()
        api.send_message(handle, "t0", "probe")
        sent = list(calls)
        api.cancel(handle)
    assert notified == []
    assert [m.type for m in created] == [MessageType.TASK_CREATED] * 256
    traced = options.get("telemetry", True) is not None
    context = (handle.job_id, "job") if traced else None
    assert {m.trace_ctx for m in created} == {context}
    assert sent == ([["trace_ctx"]] if traced else [])


class TestTaskManagerAccounting:
    def make(self):
        return TaskManager("tm", ClusterConfig(memory_per_node=2000, slots_per_node=2))

    def hosted_job(self, tm, name="t", memory=1000, runmodel=RunModel.RUN_AS_THREAD_IN_TM):
        job = Job("j1", "c")
        runtime = job.add_task(
            TaskSpec(name=name, jar="x.jar", cls="p.T", memory=memory, runmodel=runmodel)
        )
        tm.host_task(job, runtime, Echo)
        return job, runtime

    def test_memory_reserved_on_host(self):
        tm = self.make()
        self.hosted_job(tm, memory=1500)
        assert tm.free_memory == 500
        rule = PlacementRule("j1", "x.jar", 1000, RunModel.RUN_AS_THREAD_IN_TM, ("t",))
        assert tm.compute_bid(rule) is None

    def test_host_beyond_capacity_rejected(self):
        tm = self.make()
        with pytest.raises(Exception, match="cannot host"):
            self.hosted_job(tm, memory=5000)

    def test_slots_consumed_only_while_running(self):
        tm = self.make()
        job, runtime = self.hosted_job(tm)
        assert tm.free_slots == 2  # hosting does not consume a slot
        tm.start_task(job, "t")
        job.wait(5)
        assert tm.free_slots == 2  # released after completion
        assert tm.free_memory == 2000

    def test_run_in_jobmanager_skips_slot(self):
        tm = self.make()
        job, runtime = self.hosted_job(tm, runmodel=RunModel.RUN_IN_JOBMANAGER)
        tm.start_task(job, "t")
        job.wait(5)
        assert tm.free_slots == 2

    def test_double_start_rejected(self):
        tm = self.make()
        job, _ = self.hosted_job(tm)
        tm.start_task(job, "t")
        job.wait(5)
        with pytest.raises(Exception, match="cannot start"):
            tm.start_task(job, "t")

    def test_start_unhosted_rejected(self):
        tm = self.make()
        job = Job("j2", "c")
        job.add_task(TaskSpec(name="x", jar="x.jar", cls="p.T"))
        with pytest.raises(Exception, match="does not host"):
            tm.start_task(job, "x")

    def test_shutdown_refuses_new_tasks(self):
        tm = self.make()
        tm.shutdown()
        with pytest.raises(Exception):
            self.hosted_job(tm)

    def test_hosted_count(self):
        tm = self.make()
        job, _ = self.hosted_job(tm)
        assert tm.hosted_count() == 1
        tm.start_task(job, "t")
        job.wait(5)
        assert tm.hosted_count() == 0


def _fill_slots(tm):
    with tm._lock:
        tm._slots_used = tm.slots


def _upload(tm, memory, runmodel=RunModel.RUN_AS_THREAD_IN_TM, name="resident"):
    """Host one task on *tm*; whether the upload was accepted."""
    job = Job("j0", "c")
    spec = TaskSpec(name=name, jar="x.jar", cls="p.T", memory=memory, runmodel=runmodel)
    try:
        tm.host_task(job, job.add_task(spec), Echo)
    except (CnError, ShutdownError):
        return False
    return True


THREAD, IN_JM = RunModel.RUN_AS_THREAD_IN_TM, RunModel.RUN_IN_JOBMANAGER

#: node state, task memory, run model -> what the node bids for a 3-task
#: rule (2000 memory, 2 slots; 0 = no bid)
ADMISSION_GATES = {
    "fits": (lambda tm: None, 100, THREAD, 2),
    "shut down": (lambda tm: tm.shutdown(), 100, THREAD, 0),
    "crashed": (lambda tm: tm.crash(), 100, THREAD, 0),
    "unhealthy executor": (
        lambda tm: setattr(tm.executor, "healthy", lambda: False), 100, THREAD, 0
    ),
    "memory short": (lambda tm: _upload(tm, 1500), 1000, THREAD, 0),
    "memory for one": (lambda tm: _upload(tm, 1500), 400, THREAD, 1),
    "slots short": (_fill_slots, 100, THREAD, 0),
    "RUN_IN_JOBMANAGER": (_fill_slots, 100, IN_JM, 3),
}


@pytest.mark.parametrize("gate", list(ADMISSION_GATES))
def test_bid_and_upload_agree(gate):
    """``compute_bid`` bids nothing exactly when ``host_task``, the
    upload, refuses, and the capacity it bids is ``_room``'s: one
    statement of the admission gates."""
    setup, memory, runmodel, capacity = ADMISSION_GATES[gate]
    tm = TaskManager("tm", ClusterConfig(memory_per_node=2000, slots_per_node=2))
    setup(tm)
    rule = PlacementRule("j1", "x.jar", memory, runmodel, ("a", "b", "c"))
    bid = tm.compute_bid(rule)
    with tm._lock:
        room = tm._room(memory, runmodel, len(rule.tasks))
    assert (bid.capacity if bid is not None else 0) == room == capacity
    assert _upload(tm, memory, runmodel, name="a") == (bid is not None)


class TestCNServerResponder:
    def make(self, **flags):
        bus = MulticastBus()
        config = ClusterConfig(registry=basic_registry(), memory_per_node=1000)
        server = CNServer("n0", bus, config, transport=InProcTransport())
        for flag, value in flags.items():
            setattr(server, flag, value)
        server.start()
        return bus, server

    def test_jobmanager_offer(self):
        bus, server = self.make()
        offers = bus.solicit(Solicitation("jobmanager", {"tasks": 2}, "c"))
        assert offers and offers[0][0] == "n0"
        assert offers[0][1]["free_job_slots"] > 0

    @staticmethod
    def round_of_one(memory):
        """What a placement round puts on the bus for one task."""
        rule = PlacementRule(
            "j1", "echo.jar", memory, RunModel.RUN_AS_THREAD_IN_TM, ("t",)
        )
        return Solicitation("rule", {"rule": rule}, "c")

    def test_taskmanager_offer_respects_memory(self):
        bus, server = self.make()
        [(name, bid)] = bus.solicit(self.round_of_one(500))
        assert (name, bid.taskmanager, bid.free_memory) == ("n0", "n0/tm", 1000)
        assert not bus.solicit(self.round_of_one(5000))

    def test_crashed_taskmanager_does_not_answer(self):
        bus, server = self.make()
        server.taskmanager.crash()
        assert bus.solicit(self.round_of_one(1)) == []

    def test_unknown_kind_ignored(self):
        bus, server = self.make()
        assert bus.solicit(Solicitation("teapot", {}, "c")) == []

    def test_accept_flags(self):
        bus, server = self.make(accept_jobs=False, accept_tasks=False)
        assert bus.solicit(Solicitation("jobmanager", {}, "c")) == []
        assert bus.solicit(self.round_of_one(1)) == []

    def test_shutdown_unsubscribes(self):
        bus, server = self.make()
        server.shutdown()
        assert bus.solicit(Solicitation("jobmanager", {}, "c")) == []
        assert bus.stats.deliveries == 0  # the round reached no subscriber

    def test_double_start_is_idempotent(self):
        bus, server = self.make()
        server.start()
        offers = bus.solicit(Solicitation("jobmanager", {}, "c"))
        assert [name for name, _ in offers] == ["n0"]


class TestArchiveEndToEnd:
    """The full 'jar' path: task classes loaded from real zip archives on
    disk, resolved through the registry search path, run on a cluster."""

    SOURCE = '''
from repro.cn.task import Task

class Doubler(Task):
    def __init__(self, value=0):
        self.value = value
    def run(self, ctx):
        for dependent in ctx.my_dependents():
            ctx.send(dependent, self.value * 2)
        return self.value * 2

class Summer(Task):
    def __init__(self):
        pass
    def run(self, ctx):
        total = 0
        for _ in ctx.my_dependencies():
            total += ctx.recv_user(timeout=10).payload
        return total
'''

    def test_job_from_disk_archives(self, tmp_path):
        from repro.cn.archive import create_archive
        from repro.cn import CNAPI

        create_archive(
            "math.jar",
            {
                "org.example.Doubler": "mathtasks.py:Doubler",
                "org.example.Summer": "mathtasks.py:Summer",
            },
            {"mathtasks.py": self.SOURCE},
            path=tmp_path / "math.jar",
        )
        registry = TaskRegistry()
        registry.add_search_dir(tmp_path)
        with Cluster(2, registry=registry) as cluster:
            api = CNAPI.initialize(cluster)
            handle = api.create_job("archived")
            for i in (1, 2, 3):
                api.create_task(
                    handle,
                    TaskSpec(name=f"d{i}", jar="math.jar",
                             cls="org.example.Doubler", params=(i,)),
                )
            api.create_task(
                handle,
                TaskSpec(name="sum", jar="math.jar", cls="org.example.Summer",
                         depends=("d1", "d2", "d3")),
            )
            api.start_job(handle)
            results = api.wait(handle, timeout=15)
        assert results["sum"] == 2 + 4 + 6
