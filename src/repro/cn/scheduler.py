"""Placement rounds: one rule published, one bid per node, one award fold.

Every placement is a round (see :meth:`JobManager._place
<repro.cn.jobmanager.JobManager._place>`): the JobManager publishes one
compact :class:`PlacementRule` -- a template plus the names of the tasks
to place, the shape of PYME's rule-based ActionManager -- every node
scores it locally against its own capability, free memory, load and data
locality (archive cache + already-hosted producers) and answers with a
single :class:`Bid`, and the pure, deterministic :func:`award_bids` fold
turns the bids into awards.

The paper's per-task solicitation is the round of one: a rule naming one
task, answered by every node, won by the node with the most free memory.
``Cluster(scheduler=...)`` only says how many tasks a round carries.
"""

from __future__ import annotations

import heapq
from typing import Iterable, List, NamedTuple, Tuple

from .runmodel import RunModel

__all__ = ["PlacementRule", "Bid", "award_bids"]


class PlacementRule(NamedTuple):
    """What one round asks every node: a template and the tasks to place.

    The only things that cross the bus are the requirements every task of
    the round shares and the task names themselves; ``depends`` is the
    union of their dependencies, which a node scores for producer
    locality.
    """

    job_id: str
    jar: str
    memory: int
    runmodel: RunModel
    tasks: Tuple[str, ...]
    depends: Tuple[str, ...] = ()


class Bid(NamedTuple):
    """A node's answer to a rule: how much it can take and how well.

    ``capacity`` is the number of tasks from the rule the node could
    host right now; ``free_memory``/``load`` describe its current
    occupancy; ``locality`` counts O(1) "do I have this?" hits (archive
    cache, already-hosted upstream tasks of the same job).
    """

    taskmanager: str
    capacity: int
    free_memory: int
    load: int = 0
    locality: int = 0


def award_bids(
    rule: PlacementRule, bids: Iterable[Bid]
) -> Tuple[List[Tuple[str, str]], List[str]]:
    """Deterministically convert bids into awards.

    Returns ``(awards, unplaced)`` where ``awards`` is a list of
    ``(task_name, taskmanager)`` pairs and ``unplaced`` lists tasks no
    bidder could take. The fold is pure: given the same ``(rule, bids)``
    it returns the same awards regardless of bid arrival order (bids are
    canonicalized by taskmanager name first).

    Award order is the paper's best-fit: highest *virtual* free memory
    wins (free memory minus memory already awarded this round), locality
    breaks ties, then lowest load, then name rank -- so a batch of
    memory-reserving tasks spreads exactly like the same tasks placed
    one round each.
    """
    best = _canonical(rule, bids)
    if not best:
        return [], list(rule.tasks)
    if len(rule.tasks) == 1:
        # the round of one: the fold's first award is the minimum of the
        # heap's own key (name rank orders as the name does), so neither
        # the sort nor the heap is built for one pop
        winner = min(
            best.values(),
            key=lambda b: (-b.free_memory, -b.locality, b.load, b.taskmanager),
        )
        return [(rule.tasks[0], winner.taskmanager)], []
    return _fold(rule, best)


def _canonical(rule: PlacementRule, bids: Iterable[Bid]) -> dict[str, Bid]:
    """One bid per taskmanager (its best), useless bids dropped, so
    arrival order cannot matter."""
    best: dict[str, Bid] = {}
    for bid in bids:
        if bid.capacity <= 0:
            continue
        if rule.memory > 0 and bid.free_memory < rule.memory:
            continue
        prev = best.get(bid.taskmanager)
        # Compare every field so duplicate bids from one node dedupe
        # identically regardless of arrival order (equal keys mean the
        # bids are interchangeable).
        if prev is None or (
            bid.free_memory,
            bid.locality,
            bid.capacity,
            -bid.load,
        ) > (prev.free_memory, prev.locality, prev.capacity, -prev.load):
            best[bid.taskmanager] = bid
    return best


def _fold(
    rule: PlacementRule, best: dict[str, Bid]
) -> Tuple[List[Tuple[str, str]], List[str]]:
    """The award fold over canonical bids (at least one): what every
    round is awarded by, and what the round of one is held to."""
    order = sorted(best)
    # Heap of (-virtual_free_memory, -locality, load + taken, rank).
    # Each pop awards one task and re-pushes the node with its virtual
    # occupancy updated (free memory shrinks as awards land).
    heap: list[tuple[int, int, int, int]] = []
    state: dict[int, tuple[Bid, int]] = {}  # rank -> (bid, taken)
    for rank, name in enumerate(order):
        bid = best[name]
        state[rank] = (bid, 0)
        heapq.heappush(heap, (-bid.free_memory, -bid.locality, bid.load, rank))

    awards: List[Tuple[str, str]] = []
    unplaced: List[str] = []
    for task in rule.tasks:
        placed = False
        while heap:
            neg_vmem, neg_loc, load, rank = heap[0]
            bid, taken = state[rank]
            vmem = -neg_vmem
            if taken >= bid.capacity or (rule.memory > 0 and vmem < rule.memory):
                heapq.heappop(heap)
                continue
            heapq.heapreplace(
                heap,
                (-(vmem - rule.memory), neg_loc, load + 1, rank),
            )
            state[rank] = (bid, taken + 1)
            awards.append((task, bid.taskmanager))
            placed = True
            break
        if not placed:
            unplaced.append(task)
    return awards, unplaced
