"""The type coercions, and the runtime of the XPath functions
``xmi2cnx.xsl`` calls.

Five of XPath 1.0's 27 core functions: ``concat``, ``name``, ``not``,
``string-length`` and ``substring``; the XSLT engine adds ``key`` and
``generate-id``.  The evaluator compiles a call to one of them inline
(only ``substring`` calls a helper here); a call to any other name
raises its unknown-function error when it is reached, and a call
outside a function's :data:`ARITY` its arity error.  A node-set is a
list of ints, so converting one to a string or a number takes the
document whose nodes they are.
"""

from __future__ import annotations

import math
import re
from decimal import Decimal
from typing import Any, Optional

from .datamodel import XDocument

__all__ = [
    "ARITY",
    "XPathTypeError",
    "to_string",
    "to_number",
    "to_boolean",
    "to_nodeset",
    "number_to_string",
    "substring",
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


def to_string(value: Any, doc: Optional[XDocument] = None) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return number_to_string(value)
    if isinstance(value, list):  # node-set: string-value of first node
        return doc.string_value(value[0]) if value else ""  # type: ignore[union-attr]
    if hasattr(value, "string_value"):  # XSLT result-tree fragment
        return value.string_value()
    raise XPathTypeError(f"cannot convert {type(value).__name__} to string")


#: XPath 1.0 section 4.4 / production [30]: optional whitespace, an
#: optional minus sign, then ``Digits ('.' Digits?)? | '.' Digits`` --
#: no exponent, no plus sign, no underscores, no 'inf'/'nan' words
_NUMBER = re.compile(r"[ \t\r\n]*(-?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+))[ \t\r\n]*")


def to_number(value: Any, doc: Optional[XDocument] = None) -> float:
    if isinstance(value, bool):
        return 1.0 if value else 0.0
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, list) or hasattr(value, "string_value"):
        return to_number(to_string(value, doc))
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
    if hasattr(value, "string_value"):  # result-tree fragment: always true
        return True
    raise XPathTypeError(f"cannot convert {type(value).__name__} to boolean")


def to_nodeset(value: Any) -> list[int]:
    if isinstance(value, list):
        return value
    raise XPathTypeError(f"expected node-set, got {type(value).__name__}")


# ---------------------------------------------------------------------------
# The functions
# ---------------------------------------------------------------------------

def _round(value: float) -> float:
    """XPath round(): half up, NaN and the infinities as they are."""
    return math.floor(value + 0.5) if math.isfinite(value) else value


def substring(string: str, start: float, length: Optional[float] = None) -> str:
    """substring() with the spec's 1-based, rounded, NaN-propagating
    rules: the characters at positions p with start <= p < start + length."""
    begin = _round(start)
    end = begin + _round(length) if length is not None else math.inf
    # a NaN bound compares false, so it keeps no character
    first, last = max(begin, 1), min(end, len(string) + 1)
    if not first < last:
        return ""
    return string[int(first) - 1 : int(last) - 1]


#: name -> (least, most) arguments of every function the subset calls,
#: the XSLT engine's two included; a most of None: any number
ARITY: dict[str, tuple[int, Optional[int]]] = {
    "concat": (2, None),
    "name": (0, 1),
    "not": (1, 1),
    "string-length": (0, 1),
    "substring": (2, 3),
    "key": (2, 2),
    "generate-id": (0, 1),
}
