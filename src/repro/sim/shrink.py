"""Delta-debugging shrinker: minimize a failing fault schedule.

Given a schedule under which some oracle fails and a predicate that
re-runs the simulation, :func:`shrink_schedule` produces a smaller
schedule that still fails:

1. try the empty event list first (rate-driven failures shrink to zero
   structural events in one probe);
2. classic ddmin over the event sequence (subsets, then complements,
   doubling granularity) until no single-event removal keeps failing;
3. put each fault rate, the queue bound and every other cluster
   dimension back to its default where the failure does not need it
   (through :func:`~repro.sim.schedule.converging`: nothing the
   generator could not draw is probed).

Every probe is one full simulation run, so the budget is bounded by
``max_probes``; on budget exhaustion the best schedule found so far is
returned.  The result is what lands in a reproducer file: the minimal
fault plan a human has to stare at.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .schedule import FaultEvent, Schedule, converging

__all__ = ["shrink_schedule", "ShrinkBudget"]


class ShrinkBudget:
    """Probe counter shared across the shrink passes."""

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.used = 0

    def spend(self) -> bool:
        """Whether one more probe may run."""
        if self.used >= self.limit:
            return False
        self.used += 1
        return True


def _ddmin(
    events: tuple[FaultEvent, ...],
    fails: Callable[[tuple[FaultEvent, ...]], bool],
    budget: ShrinkBudget,
) -> tuple[FaultEvent, ...]:
    """Zeller/Hildebrandt ddmin over the event sequence."""
    current = list(events)
    granularity = 2
    while len(current) >= 2:
        chunk = max(1, len(current) // granularity)
        subsets = [
            current[start : start + chunk] for start in range(0, len(current), chunk)
        ]
        reduced = False
        for index, subset in enumerate(subsets):
            if len(subsets) > 1:
                complement = [
                    event
                    for other, subset_ in enumerate(subsets)
                    if other != index
                    for event in subset_
                ]
            else:
                complement = []
            if not budget.spend():
                return tuple(current)
            if fails(tuple(subset)):
                current = list(subset)
                granularity = 2
                reduced = True
                break
            if complement and len(subsets) > 2:
                if not budget.spend():
                    return tuple(current)
                if fails(tuple(complement)):
                    current = complement
                    granularity = max(granularity - 1, 2)
                    reduced = True
                    break
        if not reduced:
            if granularity >= len(current):
                break
            granularity = min(len(current), granularity * 2)
    if len(current) == 1 and budget.spend() and fails(()):
        current = []
    return tuple(current)


def shrink_schedule(
    schedule: Schedule,
    still_fails: Callable[[Schedule], bool],
    *,
    max_probes: int = 60,
) -> tuple[Schedule, int]:
    """Minimize *schedule* while ``still_fails`` holds.

    Returns ``(minimal schedule, probes used)``.  ``still_fails`` runs
    one full simulation per call and must be deterministic for the
    shrink to be sound (which the seeded harness provides).
    """
    budget = ShrinkBudget(max_probes)
    current = schedule

    # rate-driven failures collapse to zero structural events immediately
    if current.events and budget.spend():
        bare = current.with_events(())
        if still_fails(bare):
            current = bare
    if current.events:
        events = _ddmin(
            current.events,
            lambda evs: still_fails(current.with_events(evs)),
            budget,
        )
        current = current.with_events(events)

    # the defaults, one rate at a time, the queue bound as one
    blank, queue = Schedule(current.seed), ("queue_maxsize", "queue_policy")
    resets = [{name: getattr(blank, name)} for name in Schedule.RATE_FIELDS]
    resets.append({name: getattr(blank, name) for name in queue})
    resets += [{n: getattr(blank, n)} for n in Schedule.DIMENSIONS if n not in queue]
    for reset in resets:
        if all(getattr(current, name) == value for name, value in reset.items()):
            continue
        if not budget.spend():
            return current, budget.used
        candidate = converging(replace(current, **reset))
        if still_fails(candidate):
            current = candidate

    return current, budget.used
