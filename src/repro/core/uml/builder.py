"""Fluent builder for CN job activity diagrams.

This is the programmatic stand-in for the paper's "CN Intelligent Object
Editor" / external UML tool: a small API that makes the common shapes --
split -> fork -> workers -> join -> joiner -- one-liners, while still
producing a full, valid :class:`~repro.core.uml.activity.ActivityGraph`.

Example (the Fig. 3 transitive-closure diagram)::

    b = ActivityBuilder("TransClosure")
    split = b.task("tctask0", jar="tasksplit.jar",
                   cls="org.jhpc.cn2.transcloser.TaskSplit",
                   params=[("String", "matrix.txt")])
    workers = [b.task(f"tctask{i}", jar="tctask.jar",
                      cls="org.jhpc.cn2.trnsclsrtask.TCTask",
                      params=[("Integer", str(i))])
               for i in range(1, 6)]
    join = b.task("tctask999", jar="taskjoin.jar",
                  cls="org.jhpc.cn2.transcloser.TaskJoin",
                  params=[("String", "matrix.txt")])
    b.chain(b.initial(), split)
    b.fan_out_in(split, workers, join)
    b.chain(join, b.final())
    graph = b.build()
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .activity import ActionState, ActivityGraph, FinalState, Pseudostate, StateVertex
from .tags import CNProfile
from .validate import validate_graph

__all__ = ["ActivityBuilder"]


class ActivityBuilder:
    """Incrementally builds (and on :meth:`build`, validates) a job graph."""

    def __init__(self, name: str) -> None:
        self.graph = ActivityGraph(name)
        self._fork_count = 0
        self._join_count = 0

    # -- vertices -----------------------------------------------------------
    def initial(self) -> Pseudostate:
        existing = self.graph.initial_states()
        if existing:
            return existing[0]
        return self.graph.add_initial()

    def final(self) -> FinalState:
        existing = self.graph.final_states()
        if existing:
            return existing[0]
        return self.graph.add_final()

    def task(
        self,
        name: str,
        *,
        jar: str,
        cls: str,
        memory: int = CNProfile.MEMORY.default,
        runmodel: str = CNProfile.RUNMODEL.default,
        params: Iterable[tuple[str, str]] = (),
        retries: int = CNProfile.RETRIES.default,
        sends: Iterable[str] = (),
        receives: Iterable[str] = (),
    ) -> ActionState:
        """An action state with the full CN tagged-value profile.

        *retries* travels to the CNX ``<task-req><retries>`` element;
        *sends* / *receives* declare the task's message peers, carried
        into the CNX task attributes and checked by the static
        analyzer's message-flow pass."""
        state = self.graph.add_action(name)
        CNProfile.apply(
            state, jar=jar, cls=cls, memory=memory, runmodel=runmodel,
            params=params, retries=retries, sends=sends, receives=receives,
        )
        return state

    def dynamic_task(
        self,
        name: str,
        *,
        jar: str,
        cls: str,
        memory: int = CNProfile.MEMORY.default,
        runmodel: str = CNProfile.RUNMODEL.default,
        multiplicity: str = CNProfile.MULTIPLICITY.default,
        argument_expr: str = CNProfile.ARGUMENTS.default,
        retries: int = CNProfile.RETRIES.default,
    ) -> ActionState:
        """A dynamic-invocation action state (paper Fig. 5): worker count
        determined at run time by *argument_expr*, one invocation per
        argument list the expression yields.  *retries* as in
        :meth:`task` (every instance inherits the budget)."""
        state = self.graph.add_action(
            name,
            is_dynamic=True,
            dynamic_multiplicity=multiplicity,
            dynamic_arguments=argument_expr,
        )
        CNProfile.apply(
            state, jar=jar, cls=cls, memory=memory, runmodel=runmodel, retries=retries
        )
        return state

    def fork(self, name: Optional[str] = None) -> Pseudostate:
        self._fork_count += 1
        return self.graph.add_fork(name or f"fork{self._fork_count}")

    def join(self, name: Optional[str] = None) -> Pseudostate:
        self._join_count += 1
        return self.graph.add_join(name or f"join{self._join_count}")

    # -- wiring ---------------------------------------------------------------
    def chain(self, *vertices: StateVertex) -> StateVertex:
        """Connect vertices sequentially; returns the last one."""
        for source, target in zip(vertices, vertices[1:]):
            self.graph.add_transition(source, target)
        return vertices[-1]

    def fan_out_in(
        self,
        source: StateVertex,
        branches: Sequence[StateVertex],
        sink: StateVertex,
    ) -> tuple[Optional[Pseudostate], Optional[Pseudostate]]:
        """source -> fork -> each branch -> join -> sink (Fig. 3 shape).

        With a single branch there is no concurrency to model, so the
        degenerate fork/join pair is omitted (UML forbids 1-way forks)."""
        if not branches:
            raise ValueError("fan_out_in needs at least one branch")
        if len(branches) == 1:
            self.chain(source, branches[0], sink)
            return None, None
        fork = self.fork()
        join = self.join()
        self.graph.add_transition(source, fork)
        for branch in branches:
            self.graph.add_transition(fork, branch)
            self.graph.add_transition(branch, join)
        self.graph.add_transition(join, sink)
        return fork, join

    def pipeline(self, source: StateVertex, *stages: StateVertex) -> StateVertex:
        """Alias of :meth:`chain` starting from *source*."""
        return self.chain(source, *stages)

    # -- result ------------------------------------------------------------------
    def build(self, *, validate: bool = True) -> ActivityGraph:
        if validate:
            validate_graph(self.graph)
        return self.graph
