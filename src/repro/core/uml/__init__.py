"""UML 1.x activity-graph metamodel, builder, validation and rendering.

This is the modeling layer of the pipeline: jobs are activity graphs,
tasks are action states with CN tagged values, dependencies are
transitions (paper section 4).
"""

from .activity import (
    PSEUDO_FORK,
    PSEUDO_INITIAL,
    PSEUDO_JOIN,
    ActionState,
    ActivityGraph,
    FinalState,
    Pseudostate,
    StateVertex,
    Transition,
)
from .builder import ActivityBuilder
from .model import Model, Package
from .render import level_layout, to_ascii, to_dot
from .tags import (
    CNProfile,
    TagDefinition,
    TaggedElement,
    TaggedValue,
    param_tag_names,
)
from .validate import GraphValidationError, collect_problems, validate_graph

__all__ = [
    "ActivityGraph",
    "ActionState",
    "Pseudostate",
    "FinalState",
    "StateVertex",
    "Transition",
    "PSEUDO_INITIAL",
    "PSEUDO_FORK",
    "PSEUDO_JOIN",
    "ActivityBuilder",
    "Model",
    "Package",
    "TagDefinition",
    "TaggedValue",
    "TaggedElement",
    "CNProfile",
    "param_tag_names",
    "GraphValidationError",
    "validate_graph",
    "collect_problems",
    "to_dot",
    "to_ascii",
    "level_layout",
]
