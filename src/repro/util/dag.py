"""The one dependency-graph walker: order, batches, cycle witness and
reachability over ``graphlib.TopologicalSorter``.

Task dependencies (``depends``), the client-level job order
(``after``), activity-graph transitions and message waits are all the
same question -- "what must come first, and is there a cycle" -- so
they share this answer.  Nothing here recurses: a 5 000-task chain is
as fine as a five-task fan.

Nodes are any hashables.  A relation is a mapping ``node -> iterable of
nodes``; a node that appears only on the right-hand side is part of the
graph too.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Hashable, Iterable, Mapping, TypeVar

__all__ = ["CycleError", "order", "batches", "cycle", "descendants"]

N = TypeVar("N", bound=Hashable)


def order(deps: Mapping[N, Iterable[N]]) -> list[N]:
    """Nodes so that each follows everything *deps* maps it to.  Raises
    :class:`CycleError` on a cyclic relation."""
    return list(TopologicalSorter(deps).static_order())


def batches(deps: Mapping[N, Iterable[N]]) -> tuple[list[list[N]], list[N]]:
    """``(layers, stuck)``: layer *k* holds the nodes whose prerequisites
    all sit in layers before *k* (they may run concurrently); *stuck*
    holds the nodes on or behind a cycle, which no layer could take
    (empty for a DAG)."""
    sorter = TopologicalSorter(deps)
    try:
        sorter.prepare()
    except CycleError:
        pass  # the sorter still hands out everything no cycle blocks
    layers: list[list[N]] = []
    while sorter.is_active():
        ready = list(sorter.get_ready())
        sorter.done(*ready)
        layers.append(ready)
    placed = {node for layer in layers for node in layer}
    return layers, [node for node in deps if node not in placed]


def cycle(edges: Mapping[N, Iterable[N]]) -> list[N]:
    """Some cycle of the directed graph *edges* (node -> successors) as
    ``[a, b, ..., a]``; empty when acyclic.  The search is depth first
    from the nodes in mapping order along each node's successors in
    order, so the witness is the same on every run."""
    sorter = TopologicalSorter()
    for node in edges:
        sorter.add(node)
    for node, successors in edges.items():
        for successor in successors:
            sorter.add(successor, node)
    try:
        sorter.prepare()
    except CycleError as exc:
        return exc.args[1]
    return []


def descendants(edges: Mapping[N, Iterable[N]]) -> dict[N, set[N]]:
    """Map each node to every node reachable from it along *edges*
    (node -> successors).  A node on a cycle, or one that reaches a
    cycle, has no finite answer and is left out."""
    layers, _ = batches(edges)  # successors come out first
    reach: dict[N, set[N]] = {}
    for layer in layers:
        for node in layer:
            reach[node] = set()
            for successor in edges.get(node, ()):
                reach[node].add(successor)
                reach[node] |= reach[successor]
    return reach
