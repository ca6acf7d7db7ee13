"""Property-based tests for the XPath/XSLT substrate (hypothesis)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.xmlutil import canonicalize, pretty_print, xml_equal
from repro.xslt import Stylesheet, Transformer
from repro.xslt.xpath import Context, build_document, evaluate
from repro.xslt.xpath.functions import to_boolean, to_number, to_string
from repro.xslt.xpath.parser import XPathSyntaxError

# -- random tree documents ----------------------------------------------------

_names = st.sampled_from(["a", "b", "c", "task", "param"])
_texts = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd"), max_codepoint=0x7F),
    max_size=8,
)


@st.composite
def xml_trees(draw, depth=3):
    import xml.etree.ElementTree as ET

    def build(level: int) -> ET.Element:
        elem = ET.Element(draw(_names))
        for key in draw(st.lists(st.sampled_from(["x", "y", "z"]), unique=True, max_size=2)):
            elem.set(key, draw(_texts))
        if level < depth:
            for _ in range(draw(st.integers(0, 3))):
                elem.append(build(level + 1))
        if draw(st.booleans()):
            elem.text = draw(_texts)
        return elem

    return build(0)


class TestDataModelProperties:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_doc_order_strictly_increasing(self, tree):
        doc = build_document(tree)
        orders = []

        def walk(node):
            orders.append(doc.number(node))
            for attr in doc.attributes(node):
                orders.append(doc.number(attr))
            for child in doc.children(node):
                walk(child)

        walk(0)
        assert orders == sorted(orders)
        assert len(set(orders)) == len(orders)

    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_descendant_count_consistent(self, tree):
        doc = build_document(tree)
        ctx = Context(doc)
        total = len(evaluate("//*", ctx))
        manual = sum(1 for n in doc.descendants(0) if doc.kind(n) == "element")
        assert total == manual == len(list(tree.iter()))

    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_string_value_equals_concatenated_text(self, tree):
        doc = build_document(tree)
        ctx = Context(doc)
        assert to_string(evaluate("/", ctx), doc) == "".join(tree.itertext())

    @given(xml_trees())
    @settings(max_examples=40, deadline=None)
    def test_parent_child_inverse(self, tree):
        doc = build_document(tree)
        for node in doc.descendants(0):
            if doc.kind(node) == "element":
                assert node in doc.children(doc.parent(node))

    @given(xml_trees(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_name_index_is_the_descendant_walk(self, tree, indented, stripping):
        """``.//Name`` from every element, the bisected run of the name
        index inside the element's subtree, is the element's descendants
        called *Name* by a walk of the source ElementTree: an off-by-one
        in a subtree's end would take a node from, or add one to, a run."""
        source = pretty_print(tree) if indented else tree
        doc = build_document(source, strips=(lambda name: True) if stripping else None)
        # the k-th element in document order is the k-th of tree.iter()
        elements = [row for row in range(len(doc.kinds)) if doc.kind(row) == "element"]
        walked = list(tree.iter())
        assert len(elements) == len(walked)
        row_of = {id(elem): row for elem, row in zip(walked, elements)}
        for name in ("a", "b", "c", "task", "param"):
            expected = [row_of[id(e)] for e in tree.iter(name)]
            assert evaluate(f"//{name}", Context(doc)) == expected
            for row, elem in zip(elements, walked):
                expected = [row_of[id(e)] for e in elem.iter(name) if e is not elem]
                assert evaluate(f".//{name}", Context(doc, node=row)) == expected

    @given(xml_trees(), st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_generate_id_strictly_increases_in_document_order(self, tree, indented, stripping):
        """generate-id() over every node in document order -- the
        document, each element, its attributes, its children -- reads
        strictly increasing numbers, stripped whitespace or not."""
        sheet = Stylesheet.from_string(
            '<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
            '<xsl:output method="text"/>'
            + ('<xsl:strip-space elements="*"/>' if stripping else "")
            + '<xsl:template match="/"><xsl:for-each select="//.">'
            '<xsl:value-of select="concat(generate-id(), \' \')"/>'
            '<xsl:for-each select="@*"><xsl:value-of select="concat(generate-id(), \' \')"/>'
            "</xsl:for-each></xsl:for-each></xsl:template></xsl:stylesheet>"
        )
        source = pretty_print(tree) if indented else tree
        ids = [int(word[2:]) for word in Transformer(sheet).transform(source).split()]
        doc = build_document(source)
        nodes = [
            n for n in doc.descendants(0)
            if not (stripping and doc.kind(n) == "text" and doc.string_value(n).isspace())
        ]
        assert len(ids) == 1 + len(nodes) + len(doc.attr_names)
        assert ids[0] == 0 and all(a < b for a, b in zip(ids, ids[1:]))

    @given(xml_trees())
    @settings(max_examples=40, deadline=None)
    def test_union_self_is_identity(self, tree):
        doc = build_document(tree)
        ctx = Context(doc)
        once = evaluate("//*", ctx)
        assert evaluate("//*/.", ctx) == once
        with pytest.raises(XPathSyntaxError, match="unsupported operator '[|]'"):
            evaluate("//* | //*", ctx)


class TestCoercionProperties:
    @given(st.floats(allow_nan=False, allow_infinity=False, width=32))
    def test_number_string_roundtrip(self, value):
        assert to_number(to_string(float(value))) == float(value)

    @given(st.text(max_size=20))
    def test_to_boolean_matches_nonempty(self, text):
        assert to_boolean(text) == (len(text) > 0)

    @given(st.floats())
    def test_boolean_of_number(self, value):
        expected = bool(value) and not math.isnan(value)
        assert to_boolean(value) == expected

    @given(st.integers(-10**6, 10**6))
    def test_integers_format_without_point(self, n):
        assert "." not in to_string(float(n))


class TestXmlUtilProperties:
    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_pretty_print_reparses_canonically_equal(self, tree):
        text = pretty_print(tree)
        assert xml_equal(text, tree)

    @given(xml_trees())
    @settings(max_examples=60, deadline=None)
    def test_canonicalize_is_deterministic(self, tree):
        assert canonicalize(tree) == canonicalize(tree)


class TestArithmeticProperties:
    @given(st.integers(-1000, 1000), st.integers(-1000, 1000))
    def test_addition_matches_python(self, a, b):
        ctx = Context(build_document("<r/>"))

        def literal(n):  # no unary minus: a negative number is a difference
            return str(n) if n >= 0 else f"(0 - {-n})"

        assert evaluate(f"{literal(a)} + {literal(b)}", ctx) == a + b
        assert evaluate(f"{literal(a)} - {literal(b)}", ctx) == a - b

    @given(st.integers(-1000, 1000), st.integers(1, 100))
    def test_mod_sign_follows_dividend(self, a, b):
        ctx = Context(build_document("<r/>"))
        with pytest.raises(XPathSyntaxError, match="unsupported operator"):
            evaluate(f"{a} mod {b}", ctx)

    @given(st.integers(0, 50), st.integers(0, 50))
    def test_comparison_consistency(self, a, b):
        ctx = Context(build_document("<r/>"))
        assert evaluate(f"{a} > {b}", ctx) == (a > b)
        assert evaluate(f"{b} > {a}", ctx) == (a < b)
        for op in ("<", ">="):
            with pytest.raises(XPathSyntaxError, match=f"unsupported operator '{op}'"):
                evaluate(f"{a} {op} {b}", ctx)
