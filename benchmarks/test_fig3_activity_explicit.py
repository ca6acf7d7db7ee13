"""FIG3 -- paper Fig. 3: "Activity diagram for transitive closure using
explicit concurrency".

Regenerates the diagram (initial -> TaskSplit -> fork -> TCTask1..5 ->
join -> TCJoin -> final) and checks its node and edge sets, level
structure, and rendered forms (ASCII for the report, DOT for tooling).
"""

from __future__ import annotations

import pytest

from repro.apps.floyd.model import build_fig3_model
from repro.core.transform import Pipeline
from repro.core.uml import level_layout, to_ascii, to_dot


@pytest.fixture(scope="module")
def graph():
    return build_fig3_model(n_workers=5)


class TestFig3Shape:
    def test_vertex_census(self, graph):
        kinds = {}
        for v in graph.vertices:
            kinds[v.kind] = kinds.get(v.kind, 0) + 1
        assert kinds == {
            "initial": 1,
            "action": 7,  # split + 5 workers + joiner
            "fork": 1,
            "join": 1,
            "final": 1,
        }

    def test_edge_census(self, graph):
        # init->split, split->fork, 5 fork->worker, 5 worker->join,
        # join->joiner, joiner->final
        assert len(graph.transitions) == 14

    def test_workers_between_fork_and_join(self, graph):
        fork = next(v for v in graph.vertices if v.kind == "fork")
        join = next(v for v in graph.vertices if v.kind == "join")
        worker_names = {f"tctask{i}" for i in range(1, 6)}
        assert {t.target.name for t in fork.outgoing} == worker_names
        assert {t.source.name for t in join.incoming} == worker_names

    def test_workers_concurrent_same_level(self, graph):
        rows = level_layout(graph)
        worker_row = next(r for r in rows if any(v.name == "tctask1" for v in r))
        assert {v.name for v in worker_row} == {f"tctask{i}" for i in range(1, 6)}

    def test_graph_is_wellformed(self, graph):
        _, report = Pipeline().check(graph)
        assert report.diagnostics == []

    def test_static_not_dynamic(self, graph):
        assert all(not a.is_dynamic for a in graph.action_states())

    def test_renderings(self, graph, report):
        ascii_art = to_ascii(graph)
        dot = to_dot(graph)
        assert "tctask1" in ascii_art and "==fork==" in ascii_art
        assert dot.count("->") == 14
        report.line("FIG3 -- activity diagram, explicit concurrency (paper Fig. 3)")
        report.line()
        report.line(ascii_art)
        report.line()
        report.line(dot)


def test_bench_fig3_model_build(benchmark):
    graph = benchmark(build_fig3_model, n_workers=5)
    assert len(graph.vertices) == 11
