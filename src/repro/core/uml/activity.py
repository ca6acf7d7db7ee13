"""UML 1.x activity graphs (the subset the paper models jobs with).

An activity graph is a state machine whose states are actions (tasks) or
pseudostates (initial, fork, join) and whose transitions fire on action
completion (paper section 4).  In the CN mapping:

* each **job** is an activity graph,
* each **task** is an :class:`ActionState` carrying CN tagged values,
* **dependencies** are :class:`Transition` edges,
* explicit concurrency (Fig. 3) uses fork/join pseudostates,
* **dynamic invocation** (Fig. 5) is an action state with ``isDynamic``
  and a multiplicity plus run-time argument expression.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.util import dag

from .tags import CNProfile, TaggedElement

__all__ = [
    "StateVertex",
    "ActionState",
    "Pseudostate",
    "FinalState",
    "Transition",
    "ActivityGraph",
    "PSEUDO_INITIAL",
    "PSEUDO_FORK",
    "PSEUDO_JOIN",
]

PSEUDO_INITIAL = "initial"
PSEUDO_FORK = "fork"
PSEUDO_JOIN = "join"


class StateVertex(TaggedElement):
    """Common base for all nodes of the graph."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.outgoing: list["Transition"] = []
        self.incoming: list["Transition"] = []

    @property
    def kind(self) -> str:
        raise NotImplementedError

    def successors(self) -> list["StateVertex"]:
        return [t.target for t in self.outgoing]

    def predecessors(self) -> list["StateVertex"]:
        return [t.source for t in self.incoming]

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ActionState(StateVertex):
    """A task.  ``is_dynamic`` marks dynamic invocation: the number of
    concurrent invocations is left open until run time and determined by
    evaluating ``dynamic_arguments`` (an expression yielding a set of
    argument lists, per UML's dynamicArguments)."""

    def __init__(
        self,
        name: str,
        *,
        is_dynamic: bool = False,
        dynamic_multiplicity: str = "",
        dynamic_arguments: str = "",
    ) -> None:
        super().__init__(name)
        self.is_dynamic = is_dynamic
        self.dynamic_multiplicity = dynamic_multiplicity or (
            CNProfile.MULTIPLICITY.default if is_dynamic else ""
        )
        self.dynamic_arguments = dynamic_arguments

    @property
    def kind(self) -> str:
        return "action"


class Pseudostate(StateVertex):
    def __init__(self, name: str, pseudo_kind: str) -> None:
        if pseudo_kind not in (PSEUDO_INITIAL, PSEUDO_FORK, PSEUDO_JOIN):
            raise ValueError(f"unknown pseudostate kind {pseudo_kind!r}")
        super().__init__(name)
        self.pseudo_kind = pseudo_kind

    @property
    def kind(self) -> str:
        return self.pseudo_kind


class FinalState(StateVertex):
    @property
    def kind(self) -> str:
        return "final"


class Transition:
    """A completion transition between two vertices."""

    def __init__(self, source: StateVertex, target: StateVertex, guard: str = "") -> None:
        self.source = source
        self.target = target
        self.guard = guard

    def __repr__(self) -> str:
        return f"<Transition {self.source.name!r} -> {self.target.name!r}>"


class ActivityGraph:
    """A job: named activity graph with vertices and transitions.

    The graph owns its vertices; helper constructors keep the incoming/
    outgoing lists consistent, so user code never wires them by hand.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.vertices: list[StateVertex] = []
        self.transitions: list[Transition] = []

    # -- construction -----------------------------------------------------
    def _add_vertex(self, vertex: StateVertex) -> StateVertex:
        if any(v.name == vertex.name for v in self.vertices):
            raise ValueError(f"duplicate vertex name {vertex.name!r} in {self.name!r}")
        self.vertices.append(vertex)
        return vertex

    def add_action(self, name: str, **kwargs) -> ActionState:
        state = ActionState(name, **kwargs)
        self._add_vertex(state)
        return state

    def add_initial(self, name: str = "initial") -> Pseudostate:
        return self._add_vertex(Pseudostate(name, PSEUDO_INITIAL))  # type: ignore[return-value]

    def add_fork(self, name: str) -> Pseudostate:
        return self._add_vertex(Pseudostate(name, PSEUDO_FORK))  # type: ignore[return-value]

    def add_join(self, name: str) -> Pseudostate:
        return self._add_vertex(Pseudostate(name, PSEUDO_JOIN))  # type: ignore[return-value]

    def add_final(self, name: str = "final") -> FinalState:
        return self._add_vertex(FinalState(name))  # type: ignore[return-value]

    def add_transition(
        self, source: StateVertex, target: StateVertex, guard: str = ""
    ) -> Transition:
        if source not in self.vertices or target not in self.vertices:
            raise ValueError("transition endpoints must belong to this graph")
        transition = Transition(source, target, guard)
        self.transitions.append(transition)
        source.outgoing.append(transition)
        target.incoming.append(transition)
        return transition

    # -- queries ------------------------------------------------------------
    def find(self, name: str) -> StateVertex:
        for vertex in self.vertices:
            if vertex.name == name:
                return vertex
        raise KeyError(f"no vertex named {name!r} in graph {self.name!r}")

    def action_states(self) -> list[ActionState]:
        return [v for v in self.vertices if isinstance(v, ActionState)]

    def initial_states(self) -> list[Pseudostate]:
        return [
            v
            for v in self.vertices
            if isinstance(v, Pseudostate) and v.pseudo_kind == PSEUDO_INITIAL
        ]

    def final_states(self) -> list[FinalState]:
        return [v for v in self.vertices if isinstance(v, FinalState)]

    def action_dependencies(self) -> dict[str, list[str]]:
        """Map each action state to the names of the action states it
        depends on, skipping over pseudostates.

        This is the relation the CNX ``depends`` attribute encodes: the
        nearest preceding *action* states along incoming transitions,
        treating fork/join/initial as transparent routing nodes.  Names
        come in transition order (depth first, each vertex's incoming
        transitions in the order they were added, first occurrence
        kept) -- the order ``xmi2cnx.xsl`` walks them in, so both
        XMI->CNX paths emit the same ``depends`` text."""
        result: dict[str, list[str]] = {}
        for action in self.action_states():
            deps: list[str] = []
            seen: set[int] = set()
            stack: list[StateVertex] = action.predecessors()[::-1]
            while stack:
                vertex = stack.pop()
                if id(vertex) in seen:
                    continue
                seen.add(id(vertex))
                if isinstance(vertex, ActionState):
                    if vertex.name not in deps:
                        deps.append(vertex.name)
                    continue  # stop at the nearest action
                stack.extend(reversed(vertex.predecessors()))
            result[action.name] = deps
        return result

    def topological_actions(self) -> list[ActionState]:
        """Action states in a dependency-respecting order.

        Raises ``ValueError`` if the dependency relation contains a
        cycle."""
        deps = self.action_dependencies()
        try:
            names = dag.order(deps)
        except dag.CycleError:
            raise ValueError(
                f"dependency cycle through {dag.cycle(deps)[0]!r}"
            ) from None
        by_name = {action.name: action for action in self.action_states()}
        return [by_name[name] for name in names]

    def __iter__(self) -> Iterator[StateVertex]:
        return iter(self.vertices)

    def __repr__(self) -> str:
        return (
            f"<ActivityGraph {self.name!r}: {len(self.vertices)} vertices, "
            f"{len(self.transitions)} transitions>"
        )
