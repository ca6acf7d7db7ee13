"""Placement rounds: award determinism, the round of one, locality, and
chaos between bid and award.

Placement's correctness story has three legs, each tested here:

* :func:`~repro.cn.scheduler.award_bids` is a *pure fold*: same
  ``(rule, bids)`` in, same awards out, independent of the order
  bids arrived in (hypothesis properties below).
* the paper's per-task solicitation is the round of one: its award is
  the general fold's on the same bids (most free memory, then locality,
  load, name), and a batch placed one task per round (``solicit``)
  spreads exactly like the same batch placed by one rule (``bid``).
* awards are epoch-fenced: a node killed -- or filled up -- between
  submitting the winning bid and receiving the award fails the upload,
  triggers a re-bid, and can never leave a double placement behind (the
  epoch only advances on a successful host), under either scheduler.
"""

import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cn import CNAPI, Cluster, RunModel, Task, TaskRegistry, TaskSpec
from repro.cn.config import SCHEDULERS
from repro.cn.errors import CnError, ConfigError, NoWillingTaskManager
from repro.cn.scheduler import Bid, PlacementRule, _canonical, _fold, award_bids


class Echo(Task):
    def __init__(self, *params):
        pass

    def run(self, ctx):
        return ctx.task_name


def registry():
    r = TaskRegistry()
    r.register_class("echo.jar", "s.Echo", Echo)
    return r


def spec(name, memory=10, depends=()):
    return TaskSpec(
        name=name, jar="echo.jar", cls="s.Echo", memory=memory, depends=tuple(depends)
    )


def rule_for(tasks, memory=10):
    return PlacementRule(
        job_id="job1",
        jar="echo.jar",
        memory=memory,
        runmodel=RunModel.RUN_AS_THREAD_IN_TM,
        tasks=tuple(tasks),
    )


# -- pure award fold -----------------------------------------------------------

bid_strategy = st.builds(
    Bid,
    taskmanager=st.sampled_from([f"n{i}/tm" for i in range(6)]),
    capacity=st.integers(min_value=0, max_value=8),
    free_memory=st.integers(min_value=0, max_value=500),
    load=st.integers(min_value=0, max_value=16),
    locality=st.integers(min_value=0, max_value=3),
)


@settings(max_examples=200, deadline=None)
@given(
    bids=st.lists(bid_strategy, max_size=12),
    n_tasks=st.integers(min_value=1, max_value=10),
    memory=st.sampled_from([0, 10, 60]),
    permutation=st.randoms(use_true_random=False),
)
def test_awards_deterministic_and_arrival_order_independent(
    bids, n_tasks, memory, permutation
):
    rule = rule_for([f"t{i}" for i in range(n_tasks)], memory=memory)
    shuffled = list(bids)
    permutation.shuffle(shuffled)
    first = award_bids(rule, bids)
    again = award_bids(rule, bids)
    reordered = award_bids(rule, shuffled)
    assert first == again  # deterministic given the bids
    assert first == reordered  # independent of bid arrival order

    awards, unplaced = first
    # every task accounted for exactly once
    assert sorted([t for t, _ in awards] + unplaced) == sorted(rule.tasks)
    # capacity and memory limits respected per bidder (best bid per name)
    best = {}
    for b in bids:
        prev = best.get(b.taskmanager)
        if (
            b.capacity > 0
            and (memory == 0 or b.free_memory >= memory)
            and (
                prev is None
                or (b.free_memory, b.locality, b.capacity, -b.load)
                > (prev.free_memory, prev.locality, prev.capacity, -prev.load)
            )
        ):
            best[b.taskmanager] = b
    taken: dict[str, int] = {}
    for _, tm in awards:
        taken[tm] = taken.get(tm, 0) + 1
    for tm, count in taken.items():
        assert count <= best[tm].capacity
        if memory > 0:
            assert count * memory <= best[tm].free_memory


@settings(max_examples=300, deadline=None)
@given(
    bids=st.lists(bid_strategy, max_size=12),
    memory=st.sampled_from([0, 10, 60]),
    permutation=st.randoms(use_true_random=False),
)
def test_round_of_one_awards_what_the_general_fold_awards(bids, memory, permutation):
    """The one-task round takes a ``min`` where the fold builds a heap; on
    the same bids -- duplicates from one node, zero-capacity and
    under-memory bids included, in any arrival order -- both name the
    same winner."""
    rule = rule_for(["t0"], memory=memory)
    shuffled = list(bids)
    permutation.shuffle(shuffled)
    best = _canonical(rule, bids)
    expected = _fold(rule, best) if best else ([], ["t0"])
    assert award_bids(rule, bids) == expected
    assert award_bids(rule, shuffled) == expected


def test_degenerate_single_task_matches_solicit_best_fit():
    # most free memory first; locality, then load, then name only break
    # exact ties -- by the fast path and by the fold alike
    rule = rule_for(["t0"])
    bids = [
        Bid("n2/tm", capacity=4, free_memory=500, load=9, locality=0),
        Bid("n0/tm", capacity=4, free_memory=300, load=0, locality=3),
        Bid("n1/tm", capacity=4, free_memory=500, load=0, locality=0),
    ]
    # n2 and n1 tie on memory and locality, so load decides for n1
    assert award_bids(rule, bids) == ([("t0", "n1/tm")], [])
    assert _fold(rule, {b.taskmanager: b for b in bids}) == ([("t0", "n1/tm")], [])


def test_batch_award_spreads_like_sequential_best_fit():
    rule = rule_for([f"t{i}" for i in range(9)], memory=10)
    bids = [Bid(f"n{i}/tm", capacity=9, free_memory=100) for i in range(3)]
    awards, unplaced = award_bids(rule, bids)
    assert unplaced == []
    counts = {}
    for _, tm in awards:
        counts[tm] = counts.get(tm, 0) + 1
    # virtual free memory shrinks as awards land, so the batch spreads
    # exactly like the per-task solicit loop: 3 tasks per node
    assert counts == {"n0/tm": 3, "n1/tm": 3, "n2/tm": 3}


def test_unplaced_overflow_reported():
    rule = rule_for([f"t{i}" for i in range(5)], memory=10)
    bids = [Bid("n0/tm", capacity=2, free_memory=100)]
    awards, unplaced = award_bids(rule, bids)
    assert len(awards) == 2
    assert unplaced == ["t2", "t3", "t4"]


# -- cluster integration -------------------------------------------------------


def test_bid_cluster_runs_jobs_and_spreads():
    for scheduler in SCHEDULERS:
        with Cluster(
            8, registry=registry(), memory_per_node=10**4, scheduler=scheduler
        ) as c:
            api = CNAPI.initialize(c)
            handle = api.create_job("cli")
            api.create_tasks(handle, [spec(f"t{i}") for i in range(64)])
            api.start_job(handle)
            results = api.wait(handle, timeout=30)
            assert len(results) == 64
            placed = [handle.job.task(f"t{i}").node_name for i in range(64)]
            counts = {n: placed.count(n) for n in set(placed)}
            assert len(counts) == 8
            assert max(counts.values()) - min(counts.values()) <= 1


def test_one_task_per_round_spreads_like_one_rule():
    """256 homogeneous specs on a quiescent 32-node cluster: placed one
    per round (``solicit``) or by one rule (``bid``), every node ends up
    with the same number of them -- virtual free memory in the fold
    stands for the real free memory the per-task rounds see shrink."""
    specs = [spec(f"t{i}") for i in range(256)]
    counts = {}
    for scheduler in SCHEDULERS:
        with Cluster(
            32, registry=registry(), memory_per_node=10**4, scheduler=scheduler,
            telemetry=None, durable=False,
        ) as c:
            api = CNAPI.initialize(c)
            handle = api.create_job("cli")
            before = c.bus.stats.solicitations
            api.create_tasks(handle, specs)
            rounds = c.bus.stats.solicitations - before
            assert rounds == (256 if scheduler == "solicit" else 1)
            counts[scheduler] = Counter(
                handle.job.task(s.name).node_name for s in specs
            )
    assert counts["solicit"] == counts["bid"]
    assert set(counts["bid"].values()) == {8} and len(counts["bid"]) == 32


def test_bid_scheduler_uses_one_rule_per_batch():
    with Cluster(
        4, registry=registry(), scheduler="bid", telemetry=None, durable=False
    ) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        before = c.bus.stats.solicitations
        api.create_tasks(handle, [spec(f"t{i}") for i in range(32)])
        # one rule solicitation placed the whole homogeneous batch
        assert c.bus.stats.solicitations - before == 1


def test_locality_breaks_free_memory_ties():
    # memory-0 tasks leave every node's free memory identical, so the
    # archive/producer locality score decides: the consumer must land on
    # the node already hosting its producer (and its unpacked archive)
    with Cluster(4, registry=registry(), scheduler="bid") as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli")
        api.create_tasks(handle, [spec("producer", memory=0)])
        producer_node = handle.job.task("producer").node_name
        api.create_tasks(
            handle, [spec("consumer", memory=0, depends=("producer",))]
        )
        assert handle.job.task("consumer").node_name == producer_node


def test_rejecting_nodes_never_bid():
    for scheduler in SCHEDULERS:
        with Cluster(2, registry=registry(), scheduler=scheduler) as c:
            for server in c.servers:
                server.accept_tasks = False
            api = CNAPI.initialize(c)
            handle = api.create_job("cli")
            with pytest.raises(NoWillingTaskManager):
                api.create_tasks(handle, [spec("t0"), spec("t1")])


def test_unknown_scheduler_rejected():
    with pytest.raises(ConfigError):
        Cluster(2, registry=registry(), scheduler="best-effort")


# -- chaos: kill between bid and award ----------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_failed_upload_rebids_instead_of_failing_the_call(scheduler):
    """node0 answers, then refuses the upload (it filled up, or died, in
    between): the bidder is excluded and the task lands on the next best
    node.  At the parent the default scheduler let the ``CnError`` out of
    ``create_task``."""
    with Cluster(3, registry=registry(), scheduler=scheduler) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli", requirements={"prefer": "node1"})
        tm0 = c.server("node0").taskmanager
        real_host_task, refused = tm0.host_task, []

        def full_once(job, runtime, task_class):
            if not refused:
                refused.append(runtime.name)
                raise CnError("node0/tm cannot host: filled up since its bid")
            real_host_task(job, runtime, task_class)

        tm0.host_task = full_once
        before = c.bus.stats.solicitations
        api.create_task(handle, spec("t0"))
        assert refused == ["t0"]  # node0 won the first round by name
        assert c.bus.stats.solicitations - before == 2  # ...and was re-bid around
        runtime = handle.job.task("t0")
        assert (runtime.node_name, runtime.epoch) == ("node1/tm", 1)
        placed = [
            r.data
            for r in handle.manager.journal.records(handle.job_id)
            if r.kind == "task-placed"
        ]
        assert placed == [{"task": "t0", "node": "node1/tm", "epoch": 1}]
        api.start_job(handle)
        assert api.wait(handle, timeout=30) == {"t0": "t0"}


@pytest.mark.parametrize("refuse", [False, True], ids=["plain", "re-bid"])
@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_one_task_placed_batch_per_create_tasks_call(scheduler, refuse):
    """However the call is cut into rounds, every replica is handed its
    ``task-placed`` records as one batch of 12: in roster order, or --
    after node0 refused an upload and the task was re-bid -- each hosting
    once, with its final node and epoch.  At the parent ``solicit``
    handed each replica 12 batches of one."""
    names = [f"t{i}" for i in range(12)]
    with Cluster(3, registry=registry(), scheduler=scheduler) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli", requirements={"prefer": "node1"})
        batches: dict[str, list[list]] = {server.name: [] for server in c.servers}
        for server in c.servers:
            backend = server.journal.backend

            def extend(records, _extend=backend.extend, _name=server.name):
                records = list(records)
                placed = [r.data for r in records if r.kind == "task-placed"]
                if placed:
                    batches[_name].append(placed)
                return _extend(records)

            backend.extend = extend
        if refuse:
            tm0 = c.server("node0").taskmanager
            real_host_task, refused = tm0.host_task, []

            def full_once(job, runtime, task_class):
                if not refused:
                    refused.append(runtime.name)
                    raise CnError("node0/tm cannot host: filled up since its bid")
                real_host_task(job, runtime, task_class)

            tm0.host_task = full_once
        api.create_tasks(handle, [spec(n) for n in names])
        final = [
            {"task": n, "node": rt.node_name, "epoch": rt.epoch}
            for n, rt in ((n, handle.job.task(n)) for n in names)
        ]
        assert all(record["epoch"] == 1 for record in final)
        for server in c.servers:
            (batch,) = batches[server.name]
            if refuse:
                assert refused and len(batch) == 12
                assert sorted(batch, key=lambda r: names.index(r["task"])) == final
            else:
                assert batch == final, server.name
        api.start_job(handle)
        assert api.wait(handle, timeout=30) == {n: n for n in names}


def test_kill_node_between_bid_and_award():
    """A node that wins bids and dies before the award upload: the award
    fails, a re-bid round places the tasks elsewhere, and the epoch
    fence guarantees no double placement."""
    for scheduler in SCHEDULERS:
        with Cluster(
            4, registry=registry(), memory_per_node=10**4, scheduler=scheduler
        ) as c:
            api = CNAPI.initialize(c)
            handle = api.create_job("cli")
            manager_base = handle.manager.name.split("/")[0]

            sabotage = {"killed": None, "rule_solicits": 0}
            original = c.bus.solicit
            lock = threading.Lock()

            def solicit_and_kill(solicitation):
                offers = original(solicitation)
                if solicitation.kind != "rule":
                    return offers
                with lock:
                    sabotage["rule_solicits"] += 1
                    if sabotage["killed"] is None:
                        rule = solicitation.requirements["rule"]
                        awards, _ = award_bids(rule, [b for _, b in offers])
                        # kill a winning bidder that is not the manager's node
                        for _, tm_name in awards:
                            node = tm_name.split("/")[0]
                            if node != manager_base:
                                sabotage["killed"] = node
                                c.kill_node(node)
                                break
                return offers

            c.bus.solicit = solicit_and_kill
            try:
                api.create_tasks(handle, [spec(f"t{i}") for i in range(12)])
            finally:
                c.bus.solicit = original

            killed = sabotage["killed"]
            assert killed is not None, "no winning bidder was available to kill"
            assert sabotage["rule_solicits"] >= 2, "no re-bid round happened"

            # every task placed on a live node, never on the killed one
            for i in range(12):
                runtime = handle.job.task(f"t{i}")
                assert runtime.node_name is not None
                assert runtime.node_name.split("/")[0] != killed

            # no double placement: across all surviving TaskManagers exactly
            # one live hosting (epoch matches the runtime's) per task
            for i in range(12):
                runtime = handle.job.task(f"t{i}")
                live = [
                    server.name
                    for server in c.servers
                    for (job_id, name), h in server.taskmanager._hosted.items()
                    if job_id == handle.job.job_id
                    and name == runtime.name
                    and h.epoch == runtime.epoch
                ]
                assert len(live) == 1, (runtime.name, live)

            # journal invariant: the final task-placed record per task names
            # the surviving node and the runtime's current epoch
            journal = handle.manager.journal
            assert journal is not None
            placed = {}
            for record in journal.records(handle.job.job_id):
                if record.kind == "task-placed":
                    placed[record.data["task"]] = record.data
            for i in range(12):
                runtime = handle.job.task(f"t{i}")
                assert placed[runtime.name]["node"] == runtime.node_name
                assert placed[runtime.name]["epoch"] == runtime.epoch

            # and the job still runs to completion on the survivors
            api.start_job(handle)
            results = api.wait(handle, timeout=30)
            assert len(results) == 12


# -- chaos: the manager dies inside an award round ----------------------------


class Counted(Task):
    """Echoes its name and counts how often each task body really ran."""

    runs: Counter = Counter()
    _runs_lock = threading.Lock()

    def __init__(self, *params):
        pass

    def run(self, ctx):
        with Counted._runs_lock:
            Counted.runs[ctx.task_name] += 1
        return ctx.task_name


class ManagerDied(RuntimeError):
    """The managing node's thread stops here (not a CnError: no re-bid)."""


@pytest.mark.parametrize(
    ("scheduler", "k"),
    [(scheduler, k) for scheduler in ("bid", "solicit") for k in (0, 1, 5, 11)],
)
def test_manager_dies_inside_an_award_round(scheduler, k):
    """node0 manages a 12-task batch and dies after *k* uploads, before
    the call's ``task-placed`` batch is journaled.  The
    successor adopts from the replicated task-spec batch alone, every task
    runs exactly once, nothing the dead epoch hosted outlives the
    adoption, and the batch the dying manager still writes is fenced
    whole on every survivor -- under either scheduler, since a call's
    ``task-placed`` records are one batch written after its last round."""
    names = [f"t{i}" for i in range(12)]
    r = TaskRegistry()
    r.register_class("count.jar", "s.Counted", Counted)
    Counted.runs.clear()
    with Cluster(
        4,
        registry=r,
        memory_per_node=10**4,
        scheduler=scheduler,
        transport="inproc",  # Counted.runs is counted in this process
    ) as c:
        api = CNAPI.initialize(c)
        handle = api.create_job("cli", requirements={"prefer": "node0"})
        assert handle.manager.name == "node0/jm"
        dead_job, job_id = handle.job, handle.job_id
        uploads = {"seen": 0, "armed": True}

        def dying_after_k(real_host_task):
            def host_task(job, runtime, task_class):
                if uploads["armed"]:  # the successor's uploads pass through
                    if uploads["seen"] == k:
                        uploads["armed"] = False
                        c.kill_node("node0")
                        c.tick(3)  # detection: node1 adopts and re-places
                        raise ManagerDied
                    uploads["seen"] += 1
                real_host_task(job, runtime, task_class)

            return host_task

        for server in c.servers:
            tm = server.taskmanager
            tm.host_task = dying_after_k(tm.host_task)

        with pytest.raises(ManagerDied):
            api.create_tasks(
                handle,
                [TaskSpec(name=n, jar="count.jar", cls="s.Counted") for n in names],
            )
        assert uploads["seen"] == k

        assert handle.manager.name == "node1/jm"
        assert handle.job is not dead_job and handle.job.manager_epoch == 2
        results = api.wait(handle, timeout=30)
        assert results == {n: n for n in names}  # the serial reference
        assert Counted.runs == Counter(names)  # ...each body exactly once

        survivors = c.servers[1:]
        for server in survivors:
            with server.taskmanager._lock:
                hosted = list(server.taskmanager._hosted.values())
            assert all(h.job is not dead_job for h in hosted), server.name
            # a dead-epoch hosting that leaked would still hold its memory
            assert server.taskmanager.free_memory == 10**4, server.name

        # the dying manager's batch: accepted by its own cut-off replica,
        # fenced whole (epoch 1 < 2) on every survivor, never replayed
        for server in survivors:
            backend = server.journal.backend
            fenced = [x for x in backend.fenced if x.job_id == job_id]
            assert [x.kind for x in fenced] == ["task-placed"] * k, server.name
            assert all(x.mepoch == 1 for x in fenced)
            placed_by_dead = [
                x
                for x in backend.records(job_id)
                if x.kind == "task-placed" and x.mepoch == 1
            ]
            assert placed_by_dead == []
