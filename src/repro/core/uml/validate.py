"""Well-formedness validation for CN job activity graphs.

Catching modeling mistakes before the transform runs is most of the value
of the model-driven approach, so the checks are strict:

* exactly one initial pseudostate, at least one final state,
* every vertex reachable from the initial state,
* transitions respect vertex arity (initial has no incoming, final no
  outgoing, forks have one incoming/many outgoing, joins the reverse),
* the induced task dependency relation is acyclic (a CN job is a DAG of
  tasks, paper section 4),
* every action state carries the required CN tags and well-formed
  parameter tags; dynamic states declare a multiplicity.

Violations raise :class:`GraphValidationError` listing *all* problems at
once, which is kinder to modelers than stop-at-first.
"""

from __future__ import annotations

from repro.util import dag

from .activity import (
    PSEUDO_FORK,
    PSEUDO_INITIAL,
    PSEUDO_JOIN,
    ActionState,
    ActivityGraph,
    FinalState,
    Pseudostate,
    StateVertex,
)
from .tags import CNProfile

__all__ = ["GraphValidationError", "validate_graph", "collect_problems"]


class GraphValidationError(ValueError):
    """Raised when a graph fails validation; ``problems`` lists messages."""

    def __init__(self, graph_name: str, problems: list[str]) -> None:
        self.graph_name = graph_name
        self.problems = problems
        joined = "\n  - ".join(problems)
        super().__init__(f"activity graph {graph_name!r} is not well-formed:\n  - {joined}")


def collect_problems(graph: ActivityGraph) -> list[str]:
    """All validation problems of *graph* (empty list = valid)."""
    problems: list[str] = []
    problems.extend(_check_shape(graph))
    problems.extend(_check_reachability(graph))
    problems.extend(_check_arity(graph))
    problems.extend(_check_acyclic(graph))
    problems.extend(_check_tags(graph))
    return problems


def validate_graph(graph: ActivityGraph) -> ActivityGraph:
    """Validate *graph*, raising :class:`GraphValidationError` on problems."""
    problems = collect_problems(graph)
    if problems:
        raise GraphValidationError(graph.name, problems)
    return graph


def _check_shape(graph: ActivityGraph) -> list[str]:
    problems = []
    initials = graph.initial_states()
    if len(initials) != 1:
        problems.append(f"expected exactly one initial state, found {len(initials)}")
    if not graph.final_states():
        problems.append("no final state")
    if not graph.action_states():
        problems.append("no action states (a job needs at least one task)")
    return problems


def _check_reachability(graph: ActivityGraph) -> list[str]:
    initials = graph.initial_states()
    if not initials:
        return []  # shape check already reported it
    reached: set[int] = set()
    stack: list[StateVertex] = list(initials)
    while stack:
        vertex = stack.pop()
        if id(vertex) in reached:
            continue
        reached.add(id(vertex))
        stack.extend(vertex.successors())
    unreachable = [v.name for v in graph.vertices if id(v) not in reached]
    if unreachable:
        return [f"unreachable vertices: {', '.join(sorted(unreachable))}"]
    return []


def _check_arity(graph: ActivityGraph) -> list[str]:
    problems = []
    for vertex in graph.vertices:
        n_in, n_out = len(vertex.incoming), len(vertex.outgoing)
        if isinstance(vertex, Pseudostate):
            if vertex.pseudo_kind == PSEUDO_INITIAL:
                if n_in:
                    problems.append(f"initial state {vertex.name!r} has incoming transitions")
                if n_out != 1:
                    problems.append(
                        f"initial state {vertex.name!r} must have exactly one outgoing "
                        f"transition, has {n_out}"
                    )
            elif vertex.pseudo_kind == PSEUDO_FORK:
                if n_in != 1:
                    problems.append(f"fork {vertex.name!r} must have one incoming, has {n_in}")
                if n_out < 2:
                    problems.append(f"fork {vertex.name!r} must have >=2 outgoing, has {n_out}")
            elif vertex.pseudo_kind == PSEUDO_JOIN:
                if n_out != 1:
                    problems.append(f"join {vertex.name!r} must have one outgoing, has {n_out}")
                if n_in < 2:
                    problems.append(f"join {vertex.name!r} must have >=2 incoming, has {n_in}")
        elif isinstance(vertex, FinalState):
            if n_out:
                problems.append(f"final state {vertex.name!r} has outgoing transitions")
            if not n_in:
                problems.append(f"final state {vertex.name!r} has no incoming transitions")
        elif isinstance(vertex, ActionState):
            if not n_in:
                problems.append(f"action state {vertex.name!r} has no incoming transition")
            if not n_out:
                problems.append(f"action state {vertex.name!r} has no outgoing transition")
    return problems


def _check_acyclic(graph: ActivityGraph) -> list[str]:
    # every dependency follows a path of transitions, so an acyclic
    # transition graph has an acyclic dependency relation
    if not dag.cycle({vertex: vertex.successors() for vertex in graph.vertices}):
        return []
    try:
        graph.topological_actions()
    except ValueError as exc:
        return [str(exc)]
    # a cycle entirely through pseudostates
    return ["transition graph contains a cycle"]


def _check_tags(graph: ActivityGraph) -> list[str]:
    problems = []
    for action in graph.action_states():
        for required in CNProfile.REQUIRED:
            if not action.get_tag(required):
                problems.append(f"task {action.name!r} missing required tag {required!r}")
        memory = action.get_tag("memory")
        if memory is not None:
            try:
                if int(memory) <= 0:
                    problems.append(f"task {action.name!r} has non-positive memory {memory!r}")
            except ValueError:
                problems.append(f"task {action.name!r} has non-integer memory {memory!r}")
        retries_tag = action.get_tag("retries")
        if retries_tag is not None:
            try:
                if int(retries_tag) < 0:
                    problems.append(
                        f"task {action.name!r} has negative retries {retries_tag!r}"
                    )
            except ValueError:
                problems.append(
                    f"task {action.name!r} has non-integer retries {retries_tag!r}"
                )
        runmodel = action.get_tag("runmodel")
        if runmodel is not None and runmodel not in CNProfile.KNOWN_RUNMODELS:
            problems.append(
                f"task {action.name!r} has unknown runmodel {runmodel!r} "
                f"(known: {', '.join(CNProfile.KNOWN_RUNMODELS)})"
            )
        try:
            CNProfile.params(action)
        except ValueError as exc:
            problems.append(f"task {action.name!r}: {exc}")
        if action.is_dynamic and not action.dynamic_multiplicity:
            problems.append(f"dynamic task {action.name!r} lacks a multiplicity")
    return problems
