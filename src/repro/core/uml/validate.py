"""Well-formedness validation for CN job activity graphs.

Catching modeling mistakes before the transform runs is most of the value
of the model-driven approach, so the checks are strict:

* exactly one initial pseudostate, at least one final state,
* every vertex reachable from the initial state,
* transitions respect vertex arity (initial has no incoming, final no
  outgoing, forks have one incoming/many outgoing, joins the reverse),
* the induced task dependency relation is acyclic (a CN job is a DAG of
  tasks, paper section 4),
* every action state's tagged values satisfy the CN profile
  (:meth:`CNProfile.problems <repro.core.uml.tags.CNProfile.problems>`,
  the checks cnlint reports as CN201-205, CN210 and CN301).

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

__all__ = [
    "GraphValidationError",
    "validate_graph",
    "collect_problems",
    "collect_diagram_problems",
]


class GraphValidationError(ValueError):
    """Raised when a graph fails validation; ``problems`` lists messages."""

    def __init__(self, graph_name: str, problems: list[str]) -> None:
        self.graph_name = graph_name
        self.problems = problems
        joined = "\n  - ".join(problems)
        super().__init__(f"activity graph {graph_name!r} is not well-formed:\n  - {joined}")


def collect_diagram_problems(graph: ActivityGraph) -> list[str]:
    """What only the diagram can say: shape, reachability, arity, cycles."""
    return [
        *_check_shape(graph),
        *_check_reachability(graph),
        *_check_arity(graph),
        *_check_acyclic(graph),
    ]


def collect_problems(graph: ActivityGraph) -> list[str]:
    """All validation problems of *graph* (empty list = valid): the
    diagram's, then each task's violations of the CN profile."""
    return collect_diagram_problems(graph) + _check_tags(graph)


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
        raw, _, param_problem = CNProfile.read(action)
        problems += [
            message
            for _, message in CNProfile.problems(
                action.name, raw, dynamic=action.is_dynamic, param_problem=param_problem
            )
        ]
    return problems
