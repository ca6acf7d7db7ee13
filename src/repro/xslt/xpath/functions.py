"""XPath 1.0 core function library.

Implements the functions from sections 4.1-4.4 of the recommendation
that the XSLT engine and stylesheets use, with spec-faithful type
coercions (delegated to :mod:`repro.xslt.xpath.evaluator` helpers to
avoid an import cycle, the coercions live here and the evaluator imports
them).

Each function receives ``(context, *evaluated_args)`` where *context* is
the :class:`~repro.xslt.xpath.evaluator.Context` at the call site; this
is how zero-argument forms like ``string()`` or ``normalize-space()``
default to the context node.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import TYPE_CHECKING, Any, Callable

from .datamodel import XNode

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Context

__all__ = [
    "CORE_FUNCTIONS",
    "XPathTypeError",
    "to_string",
    "to_number",
    "to_boolean",
    "to_nodeset",
    "number_to_string",
]


class XPathTypeError(TypeError):
    """Raised when a value cannot be coerced to the required XPath type."""


# ---------------------------------------------------------------------------
# Type coercions (XPath 1.0 section 4, and 3.4 for booleans)
# ---------------------------------------------------------------------------

def number_to_string(value: float) -> str:
    """Format a number per the XPath string() rules (integers without a
    decimal point, NaN as 'NaN', infinities as 'Infinity', never an
    exponent -- so :func:`to_number` reads back what this writes)."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    text = repr(value)
    if "e" in text:
        text = format(Decimal(text), "f")
    return text


def to_string(value: Any) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return number_to_string(value)
    if isinstance(value, int):
        return number_to_string(float(value))
    if isinstance(value, list):  # node-set: string-value of first node
        return value[0].string_value() if value else ""
    if isinstance(value, XNode):
        return value.string_value()
    if hasattr(value, "string_value"):  # XSLT result-tree fragment
        return value.string_value()
    raise XPathTypeError(f"cannot convert {type(value).__name__} to string")


#: XPath 1.0 section 4.4 / production [30]: optional whitespace, an
#: optional minus sign, then ``Digits ('.' Digits?)? | '.' Digits`` --
#: no exponent, no plus sign, no underscores, no 'inf'/'nan' words
_NUMBER = re.compile(r"[ \t\r\n]*(-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))[ \t\r\n]*")


def to_number(value: Any) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, (list, XNode)) or hasattr(value, "string_value"):
        return to_number(to_string(value))
    if isinstance(value, str):
        match = _NUMBER.fullmatch(value)
        return float(match.group(1)) if match else float("nan")
    raise XPathTypeError(f"cannot convert {type(value).__name__} to number")


def to_boolean(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return bool(value) and not math.isnan(value)
    if isinstance(value, str):
        return len(value) > 0
    if isinstance(value, list):
        return len(value) > 0
    if isinstance(value, XNode):
        return True
    if hasattr(value, "string_value"):  # result-tree fragment: always true
        return True
    raise XPathTypeError(f"cannot convert {type(value).__name__} to boolean")


def to_nodeset(value: Any) -> list[XNode]:
    if isinstance(value, list):
        return value
    if isinstance(value, XNode):
        return [value]
    raise XPathTypeError(f"expected node-set, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# Node-set functions (4.1)
# ---------------------------------------------------------------------------

def _fn_last(context: "Context") -> float:
    return float(context.size)


def _fn_position(context: "Context") -> float:
    return float(context.position)


def _fn_count(context: "Context", nodes: Any) -> float:
    return float(len(to_nodeset(nodes)))


def _context_or_first(context: "Context", args: tuple) -> XNode | None:
    if args:
        nodeset = to_nodeset(args[0])
        return nodeset[0] if nodeset else None
    return context.node


def _fn_local_name(context: "Context", *args: Any) -> str:
    node = _context_or_first(context, args)
    if node is None or not node.name:
        return ""
    return node.name.rpartition(":")[2]


def _fn_name(context: "Context", *args: Any) -> str:
    node = _context_or_first(context, args)
    return node.name if node is not None else ""


def _fn_namespace_uri(context: "Context", *args: Any) -> str:
    # We run without namespace processing (legacy undeclared-prefix XMI).
    return ""


def _fn_id(context: "Context", value: Any) -> list[XNode]:
    """id() per 4.1, keyed on attributes literally named ``id``.  The XMI
    vocabulary uses ``xmi.id`` instead, so stylesheets use key lookups via
    predicates rather than id(); this exists for completeness."""
    if isinstance(value, list):
        tokens: list[str] = []
        for node in value:
            tokens.extend(node.string_value().split())
    else:
        tokens = to_string(value).split()
    wanted = set(tokens)
    result = []
    root = context.node.root()
    for node in root.descendants():
        if node.node_type == "element":
            ident = node.get("id")  # type: ignore[attr-defined]
            if ident in wanted:
                result.append(node)
    return result


# ---------------------------------------------------------------------------
# String functions (4.2)
# ---------------------------------------------------------------------------

def _fn_string(context: "Context", *args: Any) -> str:
    if args:
        return to_string(args[0])
    return context.node.string_value()


def _fn_concat(context: "Context", *args: Any) -> str:
    if len(args) < 2:
        raise XPathTypeError("concat() requires at least two arguments")
    return "".join([to_string(a) for a in args])


def _fn_starts_with(context: "Context", a: Any, b: Any) -> bool:
    return to_string(a).startswith(to_string(b))


def _fn_contains(context: "Context", a: Any, b: Any) -> bool:
    return to_string(b) in to_string(a)


def _fn_substring_before(context: "Context", a: Any, b: Any) -> str:
    s, sub = to_string(a), to_string(b)
    idx = s.find(sub)
    return s[:idx] if idx >= 0 else ""


def _fn_substring_after(context: "Context", a: Any, b: Any) -> str:
    s, sub = to_string(a), to_string(b)
    idx = s.find(sub)
    return s[idx + len(sub) :] if idx >= 0 else ""


def _round_half_up(value: float) -> float:
    if math.isnan(value) or math.isinf(value):
        return value
    return math.floor(value + 0.5)


def _fn_substring(context: "Context", s: Any, start: Any, length: Any = None) -> str:
    """substring() with the spec's 1-based, rounded, NaN-propagating rules."""
    string = to_string(s)
    begin = _round_half_up(to_number(start))
    if math.isnan(begin):
        return ""
    if length is not None:
        count = _round_half_up(to_number(length))
        if math.isnan(count):
            return ""
        end = begin + count
    else:
        end = float("inf")
    chars = []
    for pos, ch in enumerate(string, start=1):
        if pos >= begin and pos < end:
            chars.append(ch)
    return "".join(chars)


def _fn_string_length(context: "Context", *args: Any) -> float:
    s = to_string(args[0]) if args else context.node.string_value()
    return float(len(s))


_WS_RUN = re.compile(r"\s+")


def _fn_normalize_space(context: "Context", *args: Any) -> str:
    s = to_string(args[0]) if args else context.node.string_value()
    return _WS_RUN.sub(" ", s.strip())


def _fn_translate(context: "Context", s: Any, frm: Any, to: Any) -> str:
    src, out = to_string(frm), to_string(to)
    table: dict[int, int | None] = {}
    for i, ch in enumerate(src):
        if ord(ch) in table:
            continue
        table[ord(ch)] = ord(out[i]) if i < len(out) else None
    return to_string(s).translate(table)


# ---------------------------------------------------------------------------
# Boolean functions (4.3)
# ---------------------------------------------------------------------------

def _fn_boolean(context: "Context", value: Any) -> bool:
    return to_boolean(value)


def _fn_not(context: "Context", value: Any) -> bool:
    return not to_boolean(value)


def _fn_true(context: "Context") -> bool:
    return True


def _fn_false(context: "Context") -> bool:
    return False


# ---------------------------------------------------------------------------
# Number functions (4.4)
# ---------------------------------------------------------------------------

def _fn_lang(context: "Context", wanted: Any) -> bool:
    """lang() per 4.3: matches the nearest xml:lang, case-insensitive,
    with sublanguage suffixes ('en' matches 'en-US')."""
    target = to_string(wanted).lower()
    node = context.node
    while node is not None:
        value = None
        if node.node_type == "element":
            # ElementTree stores xml:lang in Clark notation; accept both
            value = node.get("xml:lang") or node.get(  # type: ignore[attr-defined]
                "{http://www.w3.org/XML/1998/namespace}lang"
            )
        if value is not None:
            actual = value.lower()
            return actual == target or actual.startswith(target + "-")
        node = node.parent
    return False


def _fn_number(context: "Context", *args: Any) -> float:
    if args:
        return to_number(args[0])
    return to_number(context.node.string_value())


def _fn_sum(context: "Context", nodes: Any) -> float:
    return sum(to_number(n.string_value()) for n in to_nodeset(nodes))


def _fn_floor(context: "Context", value: Any) -> float:
    return math.floor(to_number(value))


def _fn_ceiling(context: "Context", value: Any) -> float:
    return math.ceil(to_number(value))


def _fn_round(context: "Context", value: Any) -> float:
    return _round_half_up(to_number(value))


CORE_FUNCTIONS: dict[str, Callable[..., Any]] = {
    "last": _fn_last,
    "position": _fn_position,
    "count": _fn_count,
    "id": _fn_id,
    "local-name": _fn_local_name,
    "namespace-uri": _fn_namespace_uri,
    "name": _fn_name,
    "string": _fn_string,
    "concat": _fn_concat,
    "starts-with": _fn_starts_with,
    "contains": _fn_contains,
    "substring-before": _fn_substring_before,
    "substring-after": _fn_substring_after,
    "substring": _fn_substring,
    "string-length": _fn_string_length,
    "normalize-space": _fn_normalize_space,
    "translate": _fn_translate,
    "boolean": _fn_boolean,
    "not": _fn_not,
    "lang": _fn_lang,
    "true": _fn_true,
    "false": _fn_false,
    "number": _fn_number,
    "sum": _fn_sum,
    "floor": _fn_floor,
    "ceiling": _fn_ceiling,
    "round": _fn_round,
}
