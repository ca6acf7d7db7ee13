"""XMI 1.2 / UML 1.x export and import (paper Fig. 7 vocabulary)."""

from .reader import read_graphs
from .writer import write_graph

__all__ = ["write_graph", "read_graphs"]
