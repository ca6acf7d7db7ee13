"""Schedule generation: determinism, serialization, convergence bias."""

import json
from dataclasses import replace

import pytest

from repro.cn import ClusterConfig
from repro.sim import Schedule, generate
from repro.sim.schedule import FaultEvent, converging

SEED_SWEEP = range(120)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1, "meteor", "node1")

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1, "kill", "node1")

    def test_dict_round_trip(self):
        event = FaultEvent(4, "partition", "node0,node2", arg=0)
        assert FaultEvent.from_dict(event.to_dict()) == event


class TestScheduleModel:
    def test_dict_round_trip_and_json(self):
        schedule = generate(5)
        data = schedule.to_dict()
        json.dumps(data)  # must be plain-JSON serializable
        assert Schedule.from_dict(data) == schedule

    def test_has_faults(self):
        assert not Schedule(seed=1).has_faults()
        assert Schedule(seed=1, drop_rate=0.01).has_faults()
        assert Schedule(seed=1, queue_maxsize=8, queue_policy="shed_oldest").has_faults()
        assert Schedule(seed=1, events=(FaultEvent(0, "stall", "w0"),)).has_faults()

    def test_describe(self):
        assert Schedule(seed=1).describe() == "fault-free"
        text = Schedule(seed=1, drop_rate=0.01).describe()
        assert "drop=0.010" in text

    def test_with_events_replaces(self):
        schedule = generate(3)
        bare = schedule.with_events(())
        assert bare.events == ()
        assert bare.seed == schedule.seed


class TestGenerator:
    def test_deterministic_per_seed(self):
        for seed in (0, 7, 99):
            assert generate(seed) == generate(seed)

    def test_seeds_diverge(self):
        schedules = {generate(seed).describe() for seed in range(20)}
        assert len(schedules) > 10

    def test_events_sorted_by_tick(self):
        for seed in SEED_SWEEP:
            ticks = [e.at_tick for e in generate(seed).events]
            assert ticks == sorted(ticks)

    def test_kills_always_paired_with_revives(self):
        # convergence bias: every killed node is revived later, and at
        # most one node is ever down at a time
        for seed in SEED_SWEEP:
            down = set()
            for event in generate(seed).events:
                if event.kind == "kill":
                    assert down == set(), f"seed {seed}: overlapping kills"
                    down.add(event.target)
                elif event.kind == "revive":
                    assert event.target in down, f"seed {seed}: orphan revive"
                    down.discard(event.target)
            assert down == set(), f"seed {seed}: unrevived node {down}"

    def test_partitions_always_heal_and_keep_a_worker_with_the_manager(self):
        for seed in SEED_SWEEP:
            events = generate(seed).events
            partitions = [e for e in events if e.kind == "partition"]
            heals = [e for e in events if e.kind == "heal"]
            assert len(partitions) == len(heals) <= 1
            for cut, heal in zip(partitions, heals):
                assert heal.at_tick > cut.at_tick
                group = cut.target.split(",")
                assert "node0" in group  # the manager stays in-group
                assert len(group) >= 2  # ...with a task-accepting peer

    def test_rates_stay_convergence_sized(self):
        for seed in SEED_SWEEP:
            schedule = generate(seed)
            assert 0.0 <= schedule.drop_rate <= 0.012
            assert 0.0 <= schedule.delay_rate <= 0.03
            assert 0.0 <= schedule.duplicate_rate <= 0.10
            assert 0.0 <= schedule.reorder_rate <= 0.05
            assert 0.0 <= schedule.corrupt_rate <= 0.04
            if schedule.queue_maxsize:
                assert schedule.queue_maxsize >= 10


class TestTheDrawnCluster:
    def test_every_draw_converges_and_is_accepted(self):
        # what the generator draws is run, never refused and never skipped
        for seed in SEED_SWEEP:
            schedule = generate(seed)
            assert converging(schedule) == schedule
            ClusterConfig(4, **schedule.cluster_options())

    def test_no_manager_kill_without_a_journal(self):
        outage = (FaultEvent(3, "kill", "node0"), FaultEvent(6, "revive", "node0"))
        worker = (FaultEvent(8, "kill", "node1"), FaultEvent(9, "revive", "node1"))
        schedule = Schedule(seed=1, durable=False, events=outage + worker)
        assert converging(schedule).events == worker
        assert converging(replace(schedule, durable=True)).events == outage + worker

    def test_no_corruption_without_checksums(self):
        assert converging(Schedule(seed=1, corrupt_rate=0.02)).corrupt_rate == 0.0
        kept = Schedule(seed=1, corrupt_rate=0.02, checksums=True)
        assert converging(kept) == kept

    def test_the_manager_side_of_a_partition_keeps_a_live_node(self):
        cut = (FaultEvent(4, "partition", "node0,node1"), FaultEvent(7, "heal"))
        stranding = (FaultEvent(5, "kill", "node1"), FaultEvent(10, "revive", "node1"))
        elsewhere = (FaultEvent(5, "kill", "node2"), FaultEvent(10, "revive", "node2"))
        assert converging(Schedule(seed=1, events=cut + stranding)).events == cut
        kept = Schedule(seed=1, events=cut + elsewhere)
        assert converging(kept) == kept

    def test_config_round_trips_and_shows_in_the_summary(self):
        schedule = Schedule(
            seed=3, scheduler="bid", journal_dir="journal", fan_call="create_tasks"
        )
        as_json = json.loads(json.dumps(schedule.to_dict()))
        assert Schedule.from_dict(as_json) == schedule
        assert schedule.drawn() == {
            "scheduler": "bid",
            "journal_dir": "journal",
            "fan_call": "create_tasks",
        }
        assert schedule.describe() == (
            "fault-free | scheduler=bid,journal_dir=journal,fan_call=create_tasks"
        )
