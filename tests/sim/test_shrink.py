"""Delta-debugging shrinker unit tests (fake predicates, no sim runs)."""

from repro.sim import Schedule
from repro.sim.schedule import FaultEvent, converging
from repro.sim.shrink import shrink_schedule


def event(i):
    return FaultEvent(i, "burst", arg=i + 1)


def make_schedule(n_events, **rates):
    return Schedule(seed=1, events=tuple(event(i) for i in range(n_events)), **rates)


class TestEventShrinking:
    def test_single_culprit_found(self):
        culprit = event(3)

        def fails(schedule):
            return culprit in schedule.events

        shrunk, probes = shrink_schedule(make_schedule(8), fails)
        assert shrunk.events == (culprit,)
        assert probes >= 1

    def test_pair_dependency_keeps_both(self):
        a, b = event(1), event(5)

        def fails(schedule):
            return a in schedule.events and b in schedule.events

        shrunk, _ = shrink_schedule(make_schedule(8), fails)
        assert set(shrunk.events) == {a, b}

    def test_rate_only_failure_drops_all_events(self):
        def fails(schedule):
            return schedule.duplicate_rate > 0

        shrunk, probes = shrink_schedule(
            make_schedule(6, duplicate_rate=0.5, drop_rate=0.1), fails
        )
        assert shrunk.events == ()
        assert shrunk.duplicate_rate == 0.5  # the necessary rate survives
        assert shrunk.drop_rate == 0.0  # the incidental one is zeroed
        # the empty-events probe short-circuits the whole ddmin pass
        assert probes <= 4

    def test_probe_budget_respected(self):
        calls = []

        def fails(schedule):
            calls.append(1)
            return len(schedule.events) >= 6  # nothing ever shrinks

        shrunk, probes = shrink_schedule(make_schedule(6), fails, max_probes=5)
        assert probes <= 5
        assert len(calls) <= 5
        assert len(shrunk.events) == 6  # unshrinkable: original preserved

    def test_shrink_is_deterministic(self):
        culprit = event(4)

        def fails(schedule):
            return culprit in schedule.events

        first = shrink_schedule(make_schedule(10), fails)
        second = shrink_schedule(make_schedule(10), fails)
        assert first == second


class TestClusterShrinking:
    def test_unneeded_dimensions_go_back_to_their_defaults(self):
        def fails(schedule):
            return schedule.scheduler == "bid"

        start = Schedule(
            seed=1,
            scheduler="bid",
            durable="journal",
            verify_locking=True,
            fan_call="create_tasks",
        )
        shrunk, _ = shrink_schedule(start, fails)
        assert shrunk.drawn() == {"scheduler": "bid"}

    def test_a_reset_keeps_the_schedule_convergent(self):
        # no probe is a schedule the generator could not have drawn
        probed = []

        def fails(schedule):
            probed.append(schedule)
            return outage[0] in schedule.events

        outage = (FaultEvent(3, "kill", "node0"), FaultEvent(6, "revive", "node0"))
        start = Schedule(
            seed=1, drop_rate=0.01, scheduler="bid", durable="journal", events=outage
        )
        shrink_schedule(start, fails)
        assert probed and all(converging(s) == s for s in probed)

