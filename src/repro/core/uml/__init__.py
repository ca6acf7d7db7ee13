"""UML 1.x activity-graph metamodel, builder and rendering.

This is the modeling layer of the pipeline: jobs are activity graphs,
tasks are action states with CN tagged values, dependencies are
transitions (paper section 4).
"""

from .builder import ActivityBuilder
from .model import Model
from .render import level_layout, to_ascii, to_dot
from .tags import CNProfile

__all__ = [
    "ActivityBuilder",
    "Model",
    "CNProfile",
    "to_dot",
    "to_ascii",
    "level_layout",
]
