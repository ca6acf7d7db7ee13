"""Parser tests: grammar shapes, precedence, error reporting, and the
refusal, by name, of the XPath 1.0 syntax the subset does not take."""

import re

import pytest

from repro.xslt.xpath.ast import (
    BinaryOp,
    FilterExpr,
    FunctionCall,
    LocationPath,
    NumberLiteral,
    PathExpr,
    Step,
    StringLiteral,
    VariableRef,
)
from repro.xslt.xpath.parser import XPathSyntaxError, parse


def refused(expr, construct):
    with pytest.raises(XPathSyntaxError, match=re.escape(f"unsupported {construct}")):
        parse(expr)


class TestPrimary:
    def test_number(self):
        assert parse("42") == NumberLiteral(42.0)

    def test_string(self):
        assert parse("'x'") == StringLiteral("x")

    def test_variable(self):
        assert parse("$v") == VariableRef("v")

    def test_parenthesized(self):
        assert parse("(42)") == NumberLiteral(42.0)

    def test_function_no_args(self):
        assert parse("last()") == FunctionCall("last", ())

    def test_function_args(self):
        tree = parse("concat('a', 'b', 'c')")
        assert isinstance(tree, FunctionCall)
        assert len(tree.args) == 3


class TestPrecedence:
    def test_or_lowest(self):
        tree = parse("1 = 2 or 3 = 4")
        assert isinstance(tree, BinaryOp) and tree.op == "or"

    def test_and_binds_tighter_than_or(self):
        tree = parse("1 or 2 = 3")
        assert tree.op == "or"
        assert isinstance(tree.right, BinaryOp) and tree.right.op == "="
        refused("1 or 2 and 3", "operator 'and'")

    def test_mul_over_add(self):
        tree = parse("1 = 2 + 3")
        assert tree.op == "="
        assert isinstance(tree.right, BinaryOp) and tree.right.op == "+"
        refused("1 + 2 * 3", "operator '*'")

    def test_relational_over_equality(self):
        tree = parse("1 = 2 > 3")
        assert tree.op == "="
        assert isinstance(tree.right, BinaryOp) and tree.right.op == ">"
        refused("1 = 2 < 3", "operator '<'")

    def test_unary_minus(self):
        refused("-1 + 2", "operator: unary minus")
        refused("2 + -1", "operator: unary minus")

    def test_double_negation(self):
        refused("--1", "operator: unary minus")

    def test_left_associativity(self):
        tree = parse("1 - 2 - 3")
        assert tree.op == "-"
        assert isinstance(tree.left, BinaryOp) and tree.left.op == "-"


class TestLocationPaths:
    def test_simple_child(self):
        tree = parse("task")
        assert isinstance(tree, LocationPath)
        assert not tree.absolute
        assert tree.steps[0] == Step("child", "task")

    def test_absolute_root(self):
        tree = parse("/")
        assert tree == LocationPath(True, ())

    def test_absolute_path(self):
        tree = parse("/cn2/client")
        assert tree.absolute and len(tree.steps) == 2

    def test_double_slash_expands(self):
        tree = parse("//task")
        assert tree.absolute
        assert tree.steps == (Step("descendant-or-self", "node()"), Step("child", "task"))

    def test_interior_double_slash(self):
        tree = parse("a//b")
        assert [s.axis for s in tree.steps] == ["child", "descendant-or-self", "child"]

    def test_attribute_abbreviation(self):
        tree = parse("@name")
        assert tree.steps[0].axis == "attribute"

    def test_dot_and_dotdot(self):
        assert parse(".").steps[0].axis == "self"
        assert parse("..").steps[0].axis == "parent"

    def test_explicit_axis(self):
        # only abbreviated steps: no axis is written out, not even child::
        for axis in ("following-sibling", "child", "self", "namespace"):
            refused(f"{axis}::task", f"axis '{axis}'")
            refused(f"a/{axis}::task", f"axis '{axis}'")

    def test_unknown_axis_rejected(self):
        refused("sideways::x", "axis 'sideways'")

    def test_predicates(self):
        tree = parse("task[1][@name='a']")
        assert len(tree.steps[0].predicates) == 2

    def test_wildcard(self):
        assert parse("*").steps[0] == Step("child", "*")
        assert parse("@*").steps[0] == Step("attribute", "*")

    def test_prefix_wildcard(self):
        refused("UML:*", "name test 'UML:*'")

    def test_node_type_tests(self):
        refused("text()", "node test text()")
        refused("//node()", "node test node()")
        refused("a/comment()", "node test comment()")

    def test_pi_with_literal(self):
        refused("processing-instruction('php')", "node test processing-instruction()")

    def test_text_with_arg_rejected(self):
        refused("text('x')", "node test text()")


class TestFilterAndPath:
    def test_variable_with_predicate(self):
        tree = parse("$nodes[1]")
        assert isinstance(tree, FilterExpr)

    def test_function_then_path(self):
        tree = parse("key('k', 'x')/name")
        assert tree == PathExpr(
            FunctionCall("key", (StringLiteral("k"), StringLiteral("x"))), (Step("child", "name"),)
        )

    def test_filter_double_slash_path(self):
        tree = parse("$doc//task")
        assert tree == PathExpr(
            VariableRef("doc"), (Step("descendant-or-self", "node()"), Step("child", "task"))
        )

    def test_union(self):
        refused("a | b | c", "operator '|'")

    def test_union_binds_tighter_than_equality(self):
        refused("a | b = c", "operator '|'")
        refused("a = b | c", "operator '|'")
        refused("f(a | b)", "operator '|'")


class TestErrors:
    @pytest.mark.parametrize(
        "bad",
        ["", "task[", "task[]", "(1", "concat(", "a/", "/..//", "1 +", "$", "a::b"],
    )
    def test_syntax_errors(self, bad):
        with pytest.raises((XPathSyntaxError, Exception)):
            parse(bad)

    def test_trailing_tokens(self):
        with pytest.raises(XPathSyntaxError):
            parse("1 2")


class TestCaching:
    def test_parse_is_memoized(self):
        assert parse("a/b/c") is parse("a/b/c")

    def test_str_roundtrip_is_stable(self):
        for expr in ["a/b[1]", "//task[@name='x']", "string-length(//a) + 1"]:
            assert str(parse(expr)) == str(parse(expr))
