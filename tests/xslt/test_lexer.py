"""Tokenizer tests: XPath 1.0 lexical rules including the
context-sensitive disambiguations."""

import pytest

from repro.xslt.xpath.lexer import Token, XPathLexError, tokenize


def kinds(expr):
    return [(t.kind, t.value) for t in tokenize(expr)]


class TestBasicTokens:
    def test_name(self):
        assert kinds("task") == [("name", "task")]

    def test_qname(self):
        assert kinds("UML:ActionState") == [("name", "UML:ActionState")]

    def test_name_with_dots_and_dashes(self):
        assert kinds("task-req") == [("name", "task-req")]
        assert kinds("UML:StateVertex.outgoing") == [("name", "UML:StateVertex.outgoing")]

    def test_integer(self):
        assert kinds("42") == [("number", "42")]

    def test_decimal(self):
        assert kinds("3.14") == [("number", "3.14")]

    def test_leading_dot_decimal(self):
        assert kinds(".5") == [("number", ".5")]

    def test_string_literal_single(self):
        assert kinds("'hello'") == [("literal", "hello")]

    def test_string_literal_double(self):
        assert kinds('"a b"') == [("literal", "a b")]

    def test_empty_literal(self):
        assert kinds("''") == [("literal", "")]

    def test_unterminated_literal(self):
        with pytest.raises(XPathLexError):
            tokenize("'oops")

    def test_variable(self):
        assert kinds("$foo") == [("variable", "foo")]

    def test_variable_qname(self):
        assert kinds("$ns:foo") == [("variable", "ns:foo")]

    def test_unknown_character(self):
        with pytest.raises(XPathLexError):
            tokenize("a # b")

    def test_a_letter_no_name_starts_with_is_an_unexpected_character(self):
        # XML allows it, this lexer's names do not: refused like any
        # other character, not by an assertion
        with pytest.raises(XPathLexError, match="unexpected character 'é' at 2"):
            tokenize("a é")


class TestPunctuation:
    def test_slashes(self):
        assert kinds("a/b") == [("name", "a"), ("punct", "/"), ("name", "b")]

    def test_double_slash(self):
        assert kinds("a//b")[1] == ("punct", "//")

    def test_dotdot_before_dot(self):
        assert kinds("..") == [("punct", "..")]
        assert kinds(".") == [("punct", ".")]

    def test_at(self):
        assert kinds("@name") == [("punct", "@"), ("name", "name")]

    def test_brackets_parens(self):
        assert [k for k, _ in kinds("a[1](b)")] == ["name", "punct", "number", "punct", "punct", "name", "punct"]

    def test_union(self):
        assert ("operator", "|") in kinds("a | b")

    def test_comparison_two_char(self):
        assert ("operator", "<=") in kinds("1 <= 2")
        assert ("operator", ">=") in kinds("1 >= 2")
        assert ("operator", "!=") in kinds("1 != 2")


class TestDisambiguation:
    def test_star_as_wildcard_at_start(self):
        assert kinds("*") == [("wildcard", "*")]

    def test_star_as_wildcard_after_slash(self):
        assert kinds("a/*")[-1] == ("wildcard", "*")

    def test_star_as_operator_after_operand(self):
        assert kinds("2 * 3")[1] == ("operator", "*")

    def test_star_as_operator_after_rparen(self):
        assert kinds("(2) * 3")[-2] == ("operator", "*")

    def test_star_operator_after_rbracket(self):
        toks = kinds("a[1] * 2")
        assert ("operator", "*") in toks

    def test_prefix_wildcard(self):
        assert kinds("UML:*") == [("wildcard", "UML:*")]

    def test_and_as_operator(self):
        assert kinds("1 and 2")[1] == ("operator", "and")

    def test_and_as_name_at_start(self):
        assert kinds("and")[0] == ("name", "and")

    def test_div_mod_operators(self):
        assert kinds("4 div 2")[1] == ("operator", "div")
        assert kinds("4 mod 2")[1] == ("operator", "mod")

    def test_div_as_element_name(self):
        assert kinds("div/p")[0] == ("name", "div")

    def test_function_vs_name(self):
        assert kinds("count(x)")[0] == ("function", "count")
        assert kinds("count")[0] == ("name", "count")

    def test_nodetype_not_function(self):
        assert kinds("text()")[0] == ("nodetype", "text")
        assert kinds("node()")[0] == ("nodetype", "node")
        assert kinds("comment()")[0] == ("nodetype", "comment")

    def test_axis_token(self):
        toks = kinds("child::a")
        assert toks[0] == ("axis", "child")
        assert toks[1] == ("name", "a")

    def test_axis_with_space(self):
        assert kinds("ancestor :: a")[0] == ("axis", "ancestor")

    def test_function_with_space_before_paren(self):
        assert kinds("count (x)")[0] == ("function", "count")


class TestWhitespace:
    def test_whitespace_ignored(self):
        assert kinds("  a  /  b  ") == kinds("a/b")

    def test_positions_recorded(self):
        toks = tokenize("a / b")
        assert toks[0].pos == 0
        assert toks[1].pos == 2
        assert toks[2].pos == 4

    def test_empty_expression(self):
        assert tokenize("") == []
        assert tokenize("   ") == []
