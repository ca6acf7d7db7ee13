"""Function library tests: the five core functions the subset keeps,
their XPath 1.0 arities, and the refusal of the other 22."""

import re

import pytest

from repro.util.xmlutil import parse_prefixed
from repro.xslt.xpath import Context, build_document, evaluate
from repro.xslt.xpath.evaluator import XPathEvalError
from repro.xslt.xpath.functions import to_number, to_string

DOC = "<r><a>alpha</a><b> beta  gamma </b><n>7</n><n>3.5</n><e/></r>"


@pytest.fixture(scope="module")
def ctx():
    return Context(build_document(DOC))


def string(expr, ctx):
    return to_string(evaluate(expr, ctx))


def unknown(ctx, *calls):
    """Each of *calls* is refused as an unknown function, by name."""
    for call in calls:
        name = call.partition("(")[0]
        with pytest.raises(XPathEvalError, match=re.escape(f"unknown function {name}()")):
            evaluate(call, ctx)


class TestStringFunctions:
    def test_string_of_nodeset_is_first_node(self, ctx):
        assert string("//n", ctx) == "7"
        unknown(ctx, "string(//n)")

    def test_string_of_number(self, ctx):
        assert string("concat(12, '')", ctx) == "12"
        assert string("concat(1.5, '')", ctx) == "1.5"

    def test_string_of_boolean(self, ctx):
        assert string("concat(1 = 1, '')", ctx) == "true"
        assert string("concat(1 = 2, '')", ctx) == "false"

    def test_string_nan_inf(self, ctx):
        assert string("concat('x' + 1, '')", ctx) == "NaN"
        assert to_string(float("inf")) == "Infinity"
        assert to_string(float("-inf")) == "-Infinity"

    def test_concat(self, ctx):
        assert string("concat('a', 'b', 'c', 'd')", ctx) == "abcd"

    def test_concat_requires_two(self, ctx):
        with pytest.raises(XPathEvalError, match=re.escape("concat() takes 2 or more arguments")):
            evaluate("concat('a')", ctx)

    def test_starts_with(self, ctx):
        unknown(ctx, "starts-with('tctask5', 'tctask')")

    def test_contains(self, ctx):
        unknown(ctx, "contains('hello world', 'lo w')")

    def test_substring_before_after(self, ctx):
        unknown(ctx, "substring-before('1999/04/01', '/')", "substring-after('1999/04/01', '/')")

    def test_substring_basic(self, ctx):
        assert string("substring('12345', 2, 3)", ctx) == "234"
        assert string("substring('12345', 2)", ctx) == "2345"

    def test_substring_spec_edge_cases(self, ctx):
        # the famous spec examples; NaN from a string, infinity by hand
        assert string("substring('12345', 1.5, 2.6)", ctx) == "234"
        assert string("substring('12345', 0, 3)", ctx) == "12"
        assert string("substring('12345', 'x' + 0, 3)", ctx) == ""
        assert string("substring('12345', 1, 'x' + 0)", ctx) == ""
        variables = {"inf": float("inf")}
        at = Context(ctx.node, variables)
        assert string("substring('12345', 0 - 42, $inf)", at) == "12345"
        assert string("substring('12345', 0 - $inf, $inf)", at) == ""

    def test_string_length(self, ctx):
        assert evaluate("string-length('abc')", ctx) == 3.0

    def test_string_length_context(self, ctx):
        nodes = evaluate("//a", ctx)
        sub = Context(nodes[0])
        assert evaluate("string-length()", sub) == 5.0

    def test_normalize_space(self, ctx):
        unknown(ctx, "normalize-space('  a   b  c ')")

    def test_normalize_space_context(self, ctx):
        unknown(ctx, "normalize-space()")

    def test_translate(self, ctx):
        unknown(ctx, "translate('bar', 'abc', 'ABC')")

    def test_translate_first_mapping_wins(self, ctx):
        unknown(ctx, "translate('a', 'aa', 'bc')")


class TestNumberFunctions:
    def test_number_of_string(self, ctx):
        assert to_number(" 12.5 ") == 12.5
        unknown(ctx, "number(' 12.5 ')")

    def test_number_of_garbage_is_nan(self, ctx):
        assert evaluate("'abc' + 0", ctx) != evaluate("'abc' + 0", ctx)

    def test_number_of_boolean(self, ctx):
        assert evaluate("(1 = 1) + 0", ctx) == 1.0

    def test_number_context_node(self, ctx):
        unknown(ctx, "number()")

    def test_sum(self, ctx):
        unknown(ctx, "sum(//n)")

    def test_floor_ceiling(self, ctx):
        unknown(ctx, "floor(2.6)", "ceiling(2.2)")

    def test_round_half_up(self, ctx):
        # substring() rounds its bounds half up
        assert string("substring('12345', 2.5, 1)", ctx) == "3"
        assert string("substring('12345', 2.4, 1)", ctx) == "2"
        unknown(ctx, "round(2.5)")


class TestBooleanFunctions:
    def test_boolean_conversions(self, ctx):
        assert evaluate("not('x')", ctx) is False
        assert evaluate("not('')", ctx) is True
        assert evaluate("not(0)", ctx) is True
        assert evaluate("not('x' + 0)", ctx) is True
        assert evaluate("not(//a)", ctx) is False
        assert evaluate("not(//missing)", ctx) is True
        unknown(ctx, "boolean('x')")

    def test_not(self, ctx):
        assert evaluate("not(1 = 2)", ctx) is True

    def test_true_false(self, ctx):
        unknown(ctx, "true()", "false()")


class TestNodesetFunctions:
    def test_count(self, ctx):
        unknown(ctx, "count(//n)")

    def test_position_last_in_context(self, ctx):
        unknown(ctx, "position()", "last()")

    def test_name_and_local_name(self, ctx):
        assert string("name(//a)", ctx) == "a"
        assert evaluate("name()", Context(evaluate("//a", ctx)[0])) == "a"
        unknown(ctx, "local-name(//a)")

    def test_local_name_strips_prefix(self):
        doc = build_document(
            parse_prefixed("<UML:Model xmi.id='m'/>"), restore_prefixes=True
        )
        ctx = Context(doc)
        assert string("name(/*)", ctx) == "UML:Model"
        unknown(ctx, "local-name(/*)")

    def test_name_of_empty_set(self, ctx):
        assert string("name(//missing)", ctx) == ""

    def test_id_function(self):
        unknown(Context(build_document("<r><x id='a'/></r>")), "id('a b')")


class TestLang:
    def test_lang_matching(self):
        unknown(Context(build_document('<r xml:lang="en"/>')), "lang('en')")

    def test_lang_without_declaration(self):
        unknown(Context(build_document("<r/>")), "lang('en')")


class TestArity:
    """Each function takes its XPath arity; a call outside it is refused
    when it is reached, by name, and never runs the function."""

    @pytest.mark.parametrize(
        "call, takes",
        [
            ("name(//a, 1)", "name() takes 0 or 1 arguments"),
            ("string-length('ab', 1, 2)", "string-length() takes 0 or 1 arguments"),
            ("not()", "not() takes 1 argument"),
            ("not(1, 2)", "not() takes 1 argument"),
            ("substring('ab')", "substring() takes 2 or 3 arguments"),
            ("substring('ab', 1, 1, 1)", "substring() takes 2 or 3 arguments"),
            ("concat()", "concat() takes 2 or more arguments"),
            ("key('k')", "key() takes 2 arguments"),
            ("generate-id(/, 1)", "generate-id() takes 0 or 1 arguments"),
        ],
    )
    def test_a_call_outside_its_arity_is_refused(self, ctx, call, takes):
        with pytest.raises(XPathEvalError, match=f"^{re.escape(takes)}$"):
            evaluate(call, ctx)
        # lazily: a branch that is never taken does not raise
        assert evaluate(f"1 = 1 or {call}", ctx) is True

    def test_an_error_inside_a_function_is_not_an_arity_error(self, ctx):
        with pytest.raises(TypeError, match="expected node-set, got str"):
            evaluate("name('a')", ctx)
