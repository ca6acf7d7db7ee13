"""UML tagged values (UML 1.x extension mechanism) and the CN profile.

The paper configures each task through tagged values on its action state
(Fig. 4): the archive (``jar``), the implementation ``class``, a
``memory`` requirement, the ``runmodel``, and indexed task parameters
``ptype0``/``pvalue0``, ``ptype1``/``pvalue1``, ...  This module models
tag definitions and values generically, and :class:`CNProfile` is the one
declaration of that profile: each value's tag, default, kind, range and
the cnlint code a violation earns, the client attributes, and the
parameter types.  The builder, cnlint's IR and passes, the native
oracle, the CNX parser, ``TaskSpec`` and both code generators read it;
the module imports nothing of the package, so any of them can.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Optional

__all__ = [
    "TagDefinition",
    "TaggedValue",
    "TaggedElement",
    "Field",
    "CNProfile",
    "param_tag_names",
    "split_names",
]

#: an index is written as ``str(int)`` would: ``ptype01`` is no parameter
_PTYPE_RE = re.compile(r"^ptype(0|[1-9][0-9]*)$")
_PVALUE_RE = re.compile(r"^pvalue(0|[1-9][0-9]*)$")


@dataclass(frozen=True)
class TagDefinition:
    """A named tag (``UML:TagDefinition``).  ``xmi_id`` is assigned by the
    XMI writer; model-level code identifies definitions by name."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass
class TaggedValue:
    """A (definition, value) pair attached to a model element."""

    definition: TagDefinition
    value: str

    @property
    def name(self) -> str:
        return self.definition.name


class TaggedElement:
    """Mixin for model elements that carry tagged values."""

    def __init__(self) -> None:
        self.tagged_values: list[TaggedValue] = []

    def set_tag(self, name: str, value: str) -> TaggedValue:
        """Set (or replace) the tagged value *name*."""
        for tv in self.tagged_values:
            if tv.name == name:
                tv.value = value
                return tv
        tv = TaggedValue(TagDefinition(name), str(value))
        self.tagged_values.append(tv)
        return tv

    def get_tag(self, name: str, default: Optional[str] = None) -> Optional[str]:
        for tv in self.tagged_values:
            if tv.name == name:
                return tv.value
        return default

    def has_tag(self, name: str) -> bool:
        return any(tv.name == name for tv in self.tagged_values)

    def tags_dict(self) -> dict[str, str]:
        return {tv.name: tv.value for tv in self.tagged_values}


def param_tag_names(index: int) -> tuple[str, str]:
    """The (ptype, pvalue) tag names for parameter *index*."""
    return f"ptype{index}", f"pvalue{index}"


def split_names(text: str) -> list[str]:
    """A comma-separated name list attribute/tag, stripped and filtered."""
    return [part.strip() for part in text.split(",") if part.strip()]


@dataclass(frozen=True)
class Field:
    """One value a task, or the client, is configured with."""

    tag: str  # the tagged value's name on the action state (Fig. 4)
    kind: str  # "text" | "int" | "choice" | "names" (a comma list)
    default: Any  # None: required
    cnx: str  # where it lands in the descriptor, from <task> / <client>
    code: str = ""  # the cnlint code a violation earns
    least: Optional[int] = None
    most: Optional[int] = None
    choices: tuple[str, ...] = ()
    what: str = ""  # what a required value is called when it is missing


class CNProfile:
    """The CN tagged-value profile: what a task is configured with."""

    JAR = Field("jar", "text", None, "@jar", "CN201", what="archive (jar) reference")
    CLASS = Field("class", "text", None, "@class", "CN202", what="entry class")
    MEMORY = Field("memory", "int", 1000, "task-req/memory", "CN203", least=1)
    RUNMODEL = Field(
        "runmodel", "choice", "RUN_AS_THREAD_IN_TM", "task-req/runmodel", "CN204",
        choices=("RUN_AS_THREAD_IN_TM", "RUN_AS_PROCESS", "RUN_IN_JOBMANAGER"),
    )
    #: how many times the framework re-places and reruns a failed task
    RETRIES = Field("retries", "int", 0, "task-req/retries", "CN205", least=0)
    #: declared message peers (task names, or "*"), paired by cnlint
    SENDS = Field("sends", "names", "", "@sends")
    RECEIVES = Field("receives", "names", "", "@receives")
    #: the dynamic pair (Fig. 5): attributes of the action state, not
    #: tags; the default is a dynamic task's, a static one has neither
    MULTIPLICITY = Field("multiplicity", "text", "0..*", "@multiplicity", "CN301")
    ARGUMENTS = Field("arguments", "text", "", "@arguments")
    TASK = (
        JAR, CLASS, MEMORY, RUNMODEL, RETRIES, SENDS, RECEIVES, MULTIPLICITY, ARGUMENTS,
    )

    LOG = Field("log", "text", "CN_Client.log", "@log")
    PORT = Field("port", "int", 5666, "@port", "CN207", least=1, most=65535)
    CLIENT = (LOG, PORT)

    #: parameter type name -> the kind of value it is coerced to
    PARAM_TYPES: Mapping[str, str] = {
        **dict.fromkeys(("String", "java.lang.String"), "string"),
        **dict.fromkeys(
            ("Integer", "int", "java.lang.Integer", "Long", "java.lang.Long"), "int"
        ),
        **dict.fromkeys(("Double", "Float", "java.lang.Double"), "float"),
        **dict.fromkeys(("Boolean", "java.lang.Boolean"), "bool"),
    }

    @staticmethod
    def apply(
        element: TaggedElement,
        *,
        jar: str,
        cls: str,
        memory: int = MEMORY.default,
        runmodel: str = RUNMODEL.default,
        params: Iterable[tuple[str, str]] = (),
        retries: int = RETRIES.default,
        sends: Iterable[str] = (),
        receives: Iterable[str] = (),
    ) -> None:
        """Attach the CN tag set for one task to *element*.

        *params* is an ordered iterable of ``(type_name, value)`` pairs,
        emitted as ``ptypeN``/``pvalueN`` with N counting from zero
        (matching paper Fig. 4, where TCTask2 has ``ptype0 =
        java.lang.Integer`` and ``pvalue0 = 2``).  ``retries``, ``sends``
        and ``receives`` are tagged only when set, so a task without
        them carries exactly the Fig. 4 tags."""
        element.set_tag(CNProfile.JAR.tag, jar)
        element.set_tag(CNProfile.CLASS.tag, cls)
        element.set_tag(CNProfile.MEMORY.tag, str(memory))
        element.set_tag(CNProfile.RUNMODEL.tag, runmodel)
        for index, (ptype, pvalue) in enumerate(params):
            tname, vname = param_tag_names(index)
            element.set_tag(tname, ptype)
            element.set_tag(vname, str(pvalue))
        if retries:
            element.set_tag(CNProfile.RETRIES.tag, str(retries))
        for field, names in ((CNProfile.SENDS, sends), (CNProfile.RECEIVES, receives)):
            names = ",".join(names)
            if names:
                element.set_tag(field.tag, names)

    @staticmethod
    def params(element: TaggedElement) -> list[tuple[str, str]]:
        """Extract the ordered ``(type, value)`` parameter list from the
        indexed ptype/pvalue tags.  Raises ``ValueError`` on gaps or a
        type without a value."""
        types: dict[int, str] = {}
        values: dict[int, str] = {}
        for tv in element.tagged_values:
            m = _PTYPE_RE.match(tv.name)
            if m:
                types[int(m.group(1))] = tv.value
                continue
            m = _PVALUE_RE.match(tv.name)
            if m:
                values[int(m.group(1))] = tv.value
        if set(types) != set(values):
            missing = sorted(set(types) ^ set(values))
            raise ValueError(f"unpaired ptype/pvalue indices: {missing}")
        if types and sorted(types) != list(range(len(types))):
            raise ValueError(f"parameter indices not contiguous: {sorted(types)}")
        return [(types[i], values[i]) for i in sorted(types)]

    @classmethod
    def read(cls, action) -> tuple[dict[str, str], list[tuple[str, str]], str]:
        """What an action state is configured with: every task field's
        raw string keyed by tag (the default where the tag is absent or
        empty, ``""`` for a required one), the ordered params, and the
        ptype/pvalue pairing problem (``""`` when they pair)."""
        tags = action.tags_dict()
        raw = {
            field.tag: tags.get(field.tag)
            or ("" if field.default is None else str(field.default))
            for field in cls.TASK
        }
        dynamic = action.is_dynamic
        raw[cls.MULTIPLICITY.tag] = action.dynamic_multiplicity if dynamic else ""
        raw[cls.ARGUMENTS.tag] = action.dynamic_arguments if dynamic else ""
        try:
            return raw, cls.params(action), ""
        except ValueError as exc:
            return raw, [], str(exc)

    @classmethod
    def problems(
        cls,
        name: str,
        raw: Mapping[str, str],
        *,
        dynamic: bool = False,
        param_problem: str = "",
    ) -> Iterator[tuple[str, str]]:
        """``(code, message)`` per constraint the raw values of task
        *name* violate -- the one statement of the profile's checks."""
        for field in cls.TASK:
            if not field.code:
                continue  # no constraint of its own (cnlint pairs the peers)
            value = raw[field.tag]
            if field.default is None:
                if not value:
                    yield field.code, f"task {name!r} has no {field.what}"
            elif field.kind == "int":
                try:
                    number = int(value.strip())
                except ValueError:
                    yield field.code, (
                        f"task {name!r} has non-integer {field.tag} {value!r}"
                    )
                    continue
                if number < field.least:
                    sign = "non-positive" if field.least else "negative"
                    yield field.code, f"task {name!r} has {sign} {field.tag} {number}"
            elif field.kind == "choice" and value not in field.choices:
                yield field.code, f"task {name!r} has unknown {field.tag} {value!r}"
        if param_problem:
            yield "CN210", f"task {name!r}: {param_problem}"
        if dynamic and not raw[cls.MULTIPLICITY.tag]:
            yield cls.MULTIPLICITY.code, f"dynamic task {name!r} lacks multiplicity"

    @classmethod
    def coerce(cls, ptype: str, value: str) -> Any:
        """The Python value of a ``(type, value)`` parameter; a type the
        table does not name is a string.  ``ValueError`` when an int or
        float does not parse."""
        kind = cls.PARAM_TYPES.get(ptype, "string")
        if kind == "int":
            return int(value)
        if kind == "float":
            return float(value)
        if kind == "bool":
            return value.strip().lower() == "true"
        return value

    @classmethod
    def java_literal(cls, ptype: str, value: str) -> str:
        """The same parameter as a Java literal."""
        kind = cls.PARAM_TYPES.get(ptype, "string")
        if kind == "int":
            return value
        if kind == "float":
            return value + ("f" if ptype == "Float" else "d")
        if kind == "bool":
            return value.lower()
        return cls.java_string(value)

    @staticmethod
    def java_string(value: str) -> str:
        """*value* as a Java string literal, ``\\`` and ``"`` escaped."""
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
