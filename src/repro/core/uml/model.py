"""UML model and package containers.

The paper attaches the activity diagram for a client to the package
holding the rest of that client's model (section 4).  A :class:`Model`
holds packages; a :class:`Package` holds activity graphs plus the tag
definitions its tagged values reference.  A client consisting of several
jobs is a package with several graphs plus an ordering relation over
them (``job_order``: pairs meaning "left must finish before right"),
allowing the mix of sequential and concurrent job execution described in
the paper.
"""

from __future__ import annotations

from .activity import ActivityGraph
from .tags import TaggedElement

__all__ = ["Model", "Package"]


class Package(TaggedElement):
    """A UML package: owns activity graphs (jobs) for one client."""

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.graphs: list[ActivityGraph] = []
        # partial order over job names: (before, after) pairs
        self.job_order: list[tuple[str, str]] = []

    def add_graph(self, graph: ActivityGraph) -> ActivityGraph:
        if any(g.name == graph.name for g in self.graphs):
            raise ValueError(f"duplicate graph {graph.name!r} in package {self.name!r}")
        self.graphs.append(graph)
        return graph

    def find_graph(self, name: str) -> ActivityGraph:
        for graph in self.graphs:
            if graph.name == name:
                return graph
        raise KeyError(f"no graph named {name!r} in package {self.name!r}")

    def order_jobs(self, before: str, after: str) -> None:
        """Record that job *before* must complete before *after* starts."""
        self.find_graph(before)
        self.find_graph(after)
        self.job_order.append((before, after))


class Model:
    """A UML model: top-level container exported to XMI."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.packages: list[Package] = []

    def add_package(self, package: Package) -> Package:
        if any(p.name == package.name for p in self.packages):
            raise ValueError(f"duplicate package {package.name!r}")
        self.packages.append(package)
        return package

    def new_package(self, name: str) -> Package:
        return self.add_package(Package(name))

    def all_graphs(self) -> list[ActivityGraph]:
        return [g for p in self.packages for g in p.graphs]

    def job_after(self) -> dict[str, list[str]]:
        """Job name -> the jobs it starts after, for every job a
        package's ``job_order`` mentions.  Those jobs are named in the
        descriptor; the rest stay anonymous (Fig. 2 byte-compatibility)."""
        after: dict[str, list[str]] = {}
        for package in self.packages:
            for before, later in package.job_order:
                after.setdefault(before, [])
                after.setdefault(later, []).append(before)
        return after

    def __repr__(self) -> str:
        return f"<Model {self.name!r}: {len(self.packages)} package(s)>"
