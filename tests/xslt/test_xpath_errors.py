"""Error paths of the XPath lexer, parser, and evaluator.

The happy paths are covered by test_lexer/test_parser/test_evaluator;
this module pins down the failure modes: malformed expressions must
raise the right exception class with a message naming the offender, and
empty node-set coercions must follow the XPath 1.0 rules (NaN / "" /
false) instead of raising."""

import math

import pytest

from repro.xslt.xpath import (
    Context,
    XPathEvalError,
    XPathLexError,
    XPathSyntaxError,
    XPathTypeError,
    build_document,
    evaluate,
    parse,
    to_boolean,
    to_nodeset,
    to_number,
    to_string,
    tokenize,
)

DOC = build_document("<root><a x='1'/><a x='2'/></root>")


def ctx(**kw) -> Context:
    return Context(DOC, **kw)


class TestLexerErrors:
    def test_unterminated_string_literal(self):
        with pytest.raises(XPathLexError, match="unterminated literal"):
            tokenize("'no closing quote")

    def test_unterminated_double_quoted_literal(self):
        with pytest.raises(XPathLexError, match="unterminated literal"):
            tokenize('"still open')

    def test_bad_variable_reference(self):
        with pytest.raises(XPathLexError, match="bad variable reference"):
            tokenize("$ ")

    def test_unexpected_character(self):
        with pytest.raises(XPathLexError, match="unexpected character"):
            tokenize("a # b")

    def test_lone_exclamation_mark(self):
        with pytest.raises(XPathLexError):
            tokenize("a ! b")

    def test_error_message_names_position_and_expression(self):
        with pytest.raises(XPathLexError, match=r"at 2 in 'a #'"):
            tokenize("a #")


class TestParserErrors:
    @pytest.mark.parametrize(
        "expr",
        ["", "   ", "a +", "//", "a[", "a[]", "(a", "a or", "@", "a/", "..a"],
    )
    def test_malformed_expressions_raise_syntax_error(self, expr):
        with pytest.raises((XPathSyntaxError, XPathLexError)):
            parse(expr)

    def test_unknown_axis(self):
        with pytest.raises(XPathSyntaxError, match="unsupported axis 'sideways'"):
            parse("sideways::a")

    def test_trailing_tokens(self):
        with pytest.raises(XPathSyntaxError, match="trailing tokens"):
            parse("a b")

    def test_error_carries_whole_expression(self):
        with pytest.raises(XPathSyntaxError, match=r"a\[\@"):
            parse("a[@")


class TestEvaluatorErrors:
    def test_unknown_function(self):
        with pytest.raises(XPathEvalError, match=r"unknown function frobnicate\(\)"):
            evaluate("frobnicate()", ctx())

    def test_unbound_variable(self):
        with pytest.raises(XPathEvalError, match=r"unbound variable \$missing"):
            evaluate("$missing", ctx())

    def test_bound_variable_still_works(self):
        assert evaluate("$x + 1", ctx(variables={"x": 41.0})) == 42.0

    def test_bad_arity_reported_as_bad_call(self):
        # concat() requires at least two arguments
        with pytest.raises(XPathEvalError, match=r"^concat\(\) takes 2 or more arguments$"):
            evaluate("concat('only-one')", ctx())

    def test_count_of_scalar_is_a_type_error(self):
        # count() is not in the subset; a kept function's coercion of a
        # scalar is still a type error
        with pytest.raises(XPathEvalError, match=r"unknown function count\(\)"):
            evaluate("count(42)", ctx())
        with pytest.raises(XPathTypeError, match="expected node-set, got float"):
            evaluate("name(42)", ctx())

    def test_path_over_scalar_result_fails(self):
        with pytest.raises(XPathTypeError):
            evaluate("string-length(//a)/b", ctx())


class TestEmptyNodeSetCoercions:
    """XPath 1.0: coercing an empty node-set is defined, not an error."""

    def test_number_of_empty_nodeset_is_nan(self):
        assert math.isnan(to_number(evaluate("//nothing", ctx())))

    def test_string_of_empty_nodeset_is_empty(self):
        assert to_string(evaluate("//nothing", ctx())) == ""

    def test_boolean_of_empty_nodeset_is_false(self):
        assert to_boolean(evaluate("//nothing", ctx())) is False

    def test_comparison_with_empty_nodeset(self):
        assert evaluate("//nothing = 'x'", ctx()) is False

    def test_arithmetic_with_empty_nodeset_is_nan(self):
        assert math.isnan(evaluate("//nothing + 1", ctx()))


class TestConversionTypeErrors:
    def test_to_string_rejects_unconvertible(self):
        with pytest.raises(XPathTypeError, match="cannot convert"):
            to_string(object())

    def test_to_number_rejects_unconvertible(self):
        with pytest.raises(XPathTypeError, match="cannot convert"):
            to_number(object())

    def test_to_boolean_rejects_unconvertible(self):
        with pytest.raises(XPathTypeError, match="cannot convert"):
            to_boolean(object())

    def test_to_nodeset_rejects_scalar(self):
        with pytest.raises(XPathTypeError, match="expected node-set"):
            to_nodeset(3.14)

    def test_to_number_of_unparseable_string_is_nan(self):
        assert math.isnan(to_number("three"))
