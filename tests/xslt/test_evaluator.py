"""Evaluator tests: axes, predicates, functions, operators, coercions,
and the refusal, by name, of the XPath 1.0 constructs the subset does
not take."""

import re

import pytest

from repro.xslt.xpath import Context, build_document, evaluate
from repro.xslt.xpath.evaluator import XPathEvalError
from repro.xslt.xpath.functions import to_boolean, to_string
from repro.xslt.xpath.parser import XPathSyntaxError

DOC = """
<library>
  <shelf id="s1">
    <book title="A" year="1999" pages="100"><author>X</author></book>
    <book title="B" year="2005" pages="250"><author>Y</author><author>Z</author></book>
  </shelf>
  <shelf id="s2">
    <book title="C" year="2005" pages="50"><author>X</author></book>
  </shelf>
</library>
"""


LIBRARY = build_document(DOC)


@pytest.fixture(scope="module")
def ctx():
    return Context(LIBRARY)


def titles(nodes):
    return [LIBRARY.string_value(LIBRARY.attribute(n, "title")) for n in nodes]


def boolean(expr, ctx):
    return to_boolean(evaluate(expr, ctx))


def refused(expr, ctx, construct, error=XPathSyntaxError):
    """*expr* raises *error*, and its message names *construct*."""
    with pytest.raises(error, match=re.escape(construct)):
        evaluate(expr, ctx)


class TestAxes:
    def test_child(self, ctx):
        assert len(evaluate("/library/shelf", ctx)) == 2

    def test_descendant_or_self_abbrev(self, ctx):
        assert titles(evaluate("//book", ctx)) == ["A", "B", "C"]

    def test_attribute(self, ctx):
        assert to_string(evaluate("/library/shelf[1]/@id", ctx), ctx.doc) == "s1"

    def test_parent(self, ctx):
        (shelf,) = evaluate("//book[@title='A']/..", ctx)
        assert ctx.doc.string_value(ctx.doc.attribute(shelf, "id")) == "s1"

    def test_ancestor(self, ctx):
        refused("//author[1]/ancestor::*", ctx, "unsupported axis 'ancestor'")

    def test_self(self, ctx):
        assert titles(evaluate("//book[@title='B']/.", ctx)) == ["B"]
        refused("//book/self::book", ctx, "unsupported axis 'self'")

    def test_following_sibling(self, ctx):
        refused("//book[@title='A']/following-sibling::book", ctx, "unsupported axis 'following-sibling'")

    def test_preceding_sibling(self, ctx):
        refused("//book[@title='B']/preceding-sibling::book", ctx, "unsupported axis 'preceding-sibling'")

    def test_preceding_sibling_position_is_reverse(self, ctx):
        # no reverse axis, so no reverse-axis positions
        refused("//a[3]/preceding-sibling::a[1]", ctx, "unsupported axis 'preceding-sibling'")

    def test_following(self, ctx):
        refused("//book[@title='B']/following::book", ctx, "unsupported axis 'following'")

    def test_preceding(self, ctx):
        refused("//book[@title='C']/preceding::book", ctx, "unsupported axis 'preceding'")

    def test_descendant(self, ctx):
        assert len(evaluate("/library//author", ctx)) == 4
        refused("/library/descendant::author", ctx, "unsupported axis 'descendant'")

    def test_a_path_of_more_steps_than_python_nests_loops(self):
        # a loop per step, and CPython nests at most 20 in one function
        doc = build_document("<a x='1'>" * 40 + "</a>" * 40)
        for steps in (16, 17, 25, 35):
            path = "/" + "/".join(["a"] * steps)
            assert evaluate(path, Context(doc)) == [steps]
            assert evaluate(f"{path}//a/@x", Context(doc)) == list(range(steps - 40, 0))

    def test_ancestor_or_self(self, ctx):
        refused("//book[@title='A']/ancestor-or-self::*", ctx, "unsupported axis 'ancestor-or-self'")


class TestPredicates:
    def test_positional(self, ctx):
        assert titles(evaluate("//book[2]", ctx)) == ["B"]

    def test_last(self, ctx):
        refused("//shelf[1]/book[last()]", ctx, "unknown function last()", XPathEvalError)

    def test_attribute_equality(self, ctx):
        assert titles(evaluate("//book[@year='2005']", ctx)) == ["B", "C"]

    def test_numeric_comparison(self, ctx):
        assert titles(evaluate("//book[@pages > 90]", ctx)) == ["A", "B"]

    def test_nested_path_predicate(self, ctx):
        assert titles(evaluate("//book[author='Z']", ctx)) == ["B"]

    def test_chained_predicates_apply_per_parent(self, ctx):
        # //book[...][1] filters within each parent shelf (XPath 1.0
        # abbreviation semantics), NOT across the whole document
        assert titles(evaluate("//book[@year='2005'][1]", ctx)) == ["B", "C"]

    def test_global_first_needs_parentheses(self, ctx):
        assert titles(evaluate("(//book[@year='2005'])[1]", ctx)) == ["B"]

    def test_position_function_is_per_parent(self, ctx):
        assert titles(evaluate("//book[3]", ctx)) == []
        assert titles(evaluate("(//book)[3]", ctx)) == ["C"]
        refused("//book[position() = 3]", ctx, "unknown function position()", XPathEvalError)
        # a number that is not a literal [n] would be a position test too
        refused("//book[1 + 1]", ctx, "a number other than a literal [n]", XPathEvalError)

    def test_count_in_predicate(self, ctx):
        refused("//book[count(author) = 2]", ctx, "unknown function count()", XPathEvalError)


class TestNodesetSemantics:
    def test_document_order(self, ctx):
        # parents gathered from five authors come back once each, in document order
        nodes = evaluate("//author/..", ctx)
        orders = [ctx.doc.number(n) for n in nodes]
        assert orders == sorted(orders)

    def test_dedup(self, ctx):
        nodes = evaluate("//author/..", ctx)
        assert len(nodes) == 3

    def test_an_attribute_has_no_children(self, ctx):
        # a child step from an attribute finds nothing, whatever the rows
        # at the end of the document are called
        assert evaluate("//book/@title/author", ctx) == []
        assert evaluate("//book/@title/*", ctx) == []
        assert evaluate("//@*//author", ctx) == []

    def test_union_mixed(self, ctx):
        refused("//shelf/@id | //book/@title", ctx, "unsupported operator '|'")

    def test_existential_equality(self, ctx):
        # at least one author equals 'Z'
        assert boolean("//author = 'Z'", ctx)
        assert not boolean("//author = 'W'", ctx)

    def test_existential_inequality_both_true(self, ctx):
        assert boolean("//author = 'X'", ctx)
        refused("//author != 'X'", ctx, "unsupported operator '!='")

    def test_nodeset_vs_number(self, ctx):
        assert boolean("//book/@pages = 250", ctx)

    def test_nodeset_vs_boolean_uses_whole_set(self, ctx):
        assert boolean("//book = (1 = 1)", ctx)
        assert boolean("//missing = (1 = 2)", ctx)


class TestOperators:
    #: the rows the subset refuses, by the construct the error names
    REFUSED = {
        "4 * 2.5": "operator '*'",
        "7 div 2": "operator 'div'",
        "7 mod 2": "operator 'mod'",
        "-7 mod 2": "operator: unary minus",
        "- 5": "operator: unary minus",
    }

    @pytest.mark.parametrize(
        "expr,expected",
        [
            ("1 + 2", 3.0),
            ("5 - 3", 2.0),
            ("4 * 2.5", 10.0),
            ("7 div 2", 3.5),
            ("7 mod 2", 1.0),
            ("-7 mod 2", -1.0),
            ("- 5", -5.0),
        ],
    )
    def test_arithmetic(self, ctx, expr, expected):
        """*expected* is XPath 1.0's value: ``+`` and ``-`` give it, and
        each operator the subset does not take is refused by name."""
        if expr in self.REFUSED:
            refused(expr, ctx, f"unsupported {self.REFUSED[expr]}")
        else:
            assert evaluate(expr, ctx) == expected

    def test_div_by_zero_inf(self, ctx):
        refused("1 div 0", ctx, "unsupported operator 'div'")

    def test_zero_div_zero_nan(self, ctx):
        refused("0 div 0", ctx, "unsupported operator 'div'")

    def test_mod_zero_nan(self, ctx):
        refused("1 mod 0", ctx, "unsupported operator 'mod'")

    def test_comparisons(self, ctx):
        assert boolean("2 > 1", ctx)
        assert not boolean("2 > 2", ctx)
        assert boolean("'abc' = 'abc'", ctx)
        assert not boolean("'abc' = 'abd'", ctx)
        for op in ("<", "<=", ">=", "!="):
            refused(f"1 {op} 2", ctx, f"unsupported operator '{op}'")

    def test_nan_comparisons_false(self, ctx):
        assert not boolean("'x' + 0 > 1", ctx)
        assert not boolean("1 > 'x' + 0", ctx)

    def test_boolean_operators_shortcircuit(self, ctx):
        # 'or' must not evaluate the right side when left is true;
        # an unknown function would raise if evaluated
        assert boolean("1 = 1 or nosuchfunction()", ctx)
        refused("1 = 2 and nosuchfunction()", ctx, "unsupported operator 'and'")

    def test_string_number_comparison(self, ctx):
        assert boolean("'10' = 10", ctx)


class TestErrors:
    def test_unbound_variable(self, ctx):
        with pytest.raises(XPathEvalError):
            evaluate("$nope", ctx)

    def test_unknown_function(self, ctx):
        with pytest.raises(XPathEvalError):
            evaluate("nosuch()", ctx)

    def test_nodeset_required(self, ctx):
        with pytest.raises(TypeError, match="expected node-set"):
            evaluate("(1 + 1)/a", ctx)


class TestVariables:
    def test_variable_lookup(self):
        doc = build_document("<r/>")
        ctx = Context(doc, variables={"x": 41.0})
        assert evaluate("$x + 1", ctx) == 42.0

    def test_variable_nodeset(self):
        doc = build_document("<r><a/><a/></r>")
        nodes = evaluate("//a", Context(doc))
        ctx = Context(doc, variables={"nodes": nodes})
        assert evaluate("$nodes[2]", ctx) == [nodes[1]]

    def test_variable_in_predicate(self):
        doc = build_document("<r><a n='1'/><a n='2'/></r>")
        ctx = Context(doc, variables={"want": "2"})
        hits = evaluate("//a[@n = $want]", ctx)
        assert [doc.string_value(doc.attribute(n, "n")) for n in hits] == ["2"]
