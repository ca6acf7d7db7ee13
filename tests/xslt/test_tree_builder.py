"""The source-tree builder: one set of rules behind both drivers (XML text
through expat, a parsed ElementTree), and who frees what it built."""

import weakref
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.xmlutil import escape_attr, escape_text, parse_prefixed
from repro.xslt import Stylesheet, Transformer
from repro.xslt.xpath import build_document

XSL = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body: str) -> Stylesheet:
    return Stylesheet.from_string(
        f'<xsl:stylesheet version="1.0" {XSL}><xsl:output method="text"/>{body}</xsl:stylesheet>'
    )


# -- generated documents -----------------------------------------------------------
#
# A document is drawn once and rendered twice: as XML text (escaped or CDATA
# character data, comments between the pieces) and as the ElementTree a
# comment-dropping parser would have made of it (pieces on either side of a
# comment are one text).

_tags = st.sampled_from(["a", "b", "keep", "XMI.header", "UML:ActionState", "UML:Transition.source"])
_attr_names = st.sampled_from(["name", "xmi.id", "xmi.idref", "isDynamic"])
_attr_values = st.text(alphabet="ab1 <&>\"'", max_size=6)
_pieces = st.one_of(
    st.text(alphabet=" \n\t", min_size=1, max_size=3),  # whitespace only
    st.text(alphabet="xy7 \n<&>\"'", max_size=6),
)
_comments = st.text(alphabet="c -", max_size=5).filter(
    lambda c: "--" not in c and not c.endswith("-")
)


@st.composite
def documents(draw, depth=3):
    def element(level):
        attrs = [
            (name, draw(_attr_values))
            for name in draw(st.lists(_attr_names, unique=True, max_size=3))
        ]
        content = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["text", "cdata", "comment", "element"]))
            if kind == "element" and level < depth:
                content.append(element(level + 1))
            elif kind == "comment":
                content.append(("comment", draw(_comments)))
            else:
                content.append((kind if kind != "element" else "text", draw(_pieces)))
        return (draw(_tags), attrs, content)

    return element(0)


def as_text(node) -> str:
    tag, attrs, content = node
    parts = ["<", tag, *(f' {k}="{escape_attr(v)}"' for k, v in attrs), ">"]
    for item in content:
        if len(item) == 3:
            parts.append(as_text(item))
        elif item[0] == "comment":
            parts.append(f"<!--{item[1]}-->")
        elif item[0] == "cdata":
            parts.append(f"<![CDATA[{item[1]}]]>")
        else:
            parts.append(escape_text(item[1]))
    return "".join((*parts, "</", tag, ">"))


def as_etree(node) -> ET.Element:
    tag, attrs, content = node
    elem = ET.Element(tag, dict(attrs))
    last = None
    for item in content:
        if len(item) == 3:
            last = as_etree(item)
            elem.append(last)
        elif item[0] != "comment":
            if last is None:
                elem.text = (elem.text or "") + item[1]
            else:
                last.tail = (last.tail or "") + item[1]
    return elem


def rows(doc):
    """Every node the tree holds, by walking it (not its cached views)."""
    found = []

    def walk(node):
        found.append(
            (
                node.node_type,
                node.name,
                node.string_value() if node.node_type != "element" else None,
                node.doc_order,
                node.parent.name,
                [(a.name, a.value, a.doc_order, a.parent is node) for a in node.attributes()],
            )
        )
        for child in node.children():
            walk(child)

    for child in doc.children():
        walk(child)
    return found


def strips(name: str) -> bool:
    return name != "keep"


class TestOneBuilderTwoDrivers:
    @given(documents())
    @settings(max_examples=150, deadline=None)
    def test_text_and_etree_sources_make_the_same_tree(self, document):
        text, tree = as_text(document), as_etree(document)
        plain = rows(build_document(text))
        assert plain == rows(build_document(tree))
        stripped = rows(build_document(text, strips=strips))
        assert stripped == rows(build_document(tree, strips=strips))
        # stripping takes nodes away and renumbers nothing
        assert stripped == [
            row
            for row in plain
            if not (row[0] == "text" and row[2].isspace() and strips(row[4]))
        ]

    @given(documents(), st.booleans(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_the_views_the_builder_hands_over_are_the_lazy_ones(
        self, document, from_text, stripping
    ):
        source = as_text(document) if from_text else as_etree(document)
        doc = build_document(source, strips=strips if stripping else None)
        handed_nodes, handed_index = doc.descendants_list(), doc.name_index()
        doc._desc_cache = doc._name_index_cache = None
        lazy = doc.descendants_list()
        assert len(lazy) == len(handed_nodes)
        assert all(a is b for a, b in zip(lazy, handed_nodes))
        assert doc.name_index() == handed_index
        assert list(doc.name_index()) == list(handed_index)

    def test_restore_prefixes_means_the_same_on_both_drivers(self):
        text = "<UML.Model xmi.id='m'><XMI.header/><UML.Package.x/></UML.Model>"
        expected = ["UML:Model", "XMI.header", "UML:Package.x"]
        for source in (text, ET.fromstring(text), parse_prefixed(text.replace("UML.", "UML:"))):
            doc = build_document(source, restore_prefixes=True)
            assert [n.name for n in doc.descendants_list()] == expected
            assert doc.document_element.get("xmi.id") == "m"

    def test_an_etree_comment_is_a_comment_node_and_splits_the_text(self):
        root = ET.Element("r")
        root.text = "a"
        comment = ET.Comment("c")
        comment.tail = "b"
        root.append(comment)
        kinds = [(n.node_type, n.string_value()) for n in build_document(root).descendants_list()]
        assert kinds == [("element", "ab"), ("text", "a"), ("comment", "c"), ("text", "b")]

    def test_text_longer_than_the_parser_buffer_is_one_node(self):
        long = "x" * 50_000 + "&amp;" + "y" * 50_000
        (text,) = build_document(f"<r>{long}</r>").document_element.children()
        assert text.string_value() == long.replace("&amp;", "&")

    @pytest.mark.parametrize(
        "malformed, line",
        [("<r><a></r>", 1), ("<r>\n<a x='1' x='2'/></r>", 2), ("", 1), ("<r/><r/>", 1)],
    )
    def test_malformed_text_raises_parse_error_with_its_position(self, malformed, line):
        with pytest.raises(ET.ParseError) as caught:
            build_document(malformed)
        assert caught.value.position[0] == line
        assert caught.value.code
        with pytest.raises(ET.ParseError):
            Transformer(sheet("")).transform(malformed)


class TestKeyTables:
    SOURCE = "<r><a k='1'/><b k='1'><a k='2'/></b><c k='1'/></r>"

    @pytest.mark.parametrize(
        "match, expected",
        [
            ("a", "a"),  # one element name: straight from the name index
            ("b/a", ""),  # ... still filtered by the rest of the pattern
            ("*", "abc"),  # no name: the full walk
            ("a | c", "ac"),  # a union: the full walk
            ("r/*", "abc"),
        ],
    )
    def test_every_matching_element_is_indexed(self, match, expected):
        s = sheet(
            f"""<xsl:key name="k" match="{match}" use="@k"/>
                <xsl:template match="/">
                  <xsl:for-each select="key('k', '1')"><xsl:value-of select="name()"/></xsl:for-each>
                </xsl:template>"""
        )
        assert Transformer(s).transform(self.SOURCE) == expected
        assert Transformer(s).transform(build_document(self.SOURCE)) == expected


class TestWhoFreesTheTree:
    def grabbing(self):
        grabbed = []

        def grab(ctx, nodes):
            grabbed.append(weakref.ref(nodes[0]))
            return ""

        s = sheet(
            """<xsl:key name="k" match="e" use="@a"/>
               <xsl:template match="/">
                 <xsl:value-of select="grab(key('k', '1'))"/><xsl:value-of select="boom(//e)"/>
               </xsl:template>"""
        )
        return s, grab, grabbed

    @pytest.mark.parametrize("source", ["<r><e a='1'/></r>", ET.fromstring("<r><e a='1'/></r>")])
    def test_a_transformer_does_not_pin_the_document_it_built(self, source):
        s, grab, grabbed = self.grabbing()
        t = Transformer(s, extra_functions={"grab": grab, "boom": lambda ctx, nodes: ""})
        assert t.transform(source) == ""
        # no gc.collect(): the tree went by reference count
        assert grabbed[0]() is None
        assert t._doc is None and t._key_tables == {}

    def test_nor_when_the_run_raises(self):
        s, grab, grabbed = self.grabbing()

        def boom(ctx, nodes):
            raise RuntimeError("boom")

        t = Transformer(s, extra_functions={"grab": grab, "boom": boom})
        with pytest.raises(RuntimeError):
            t.transform("<r><e a='1'/></r>")
        assert t._doc is None and t._key_tables == {}

    def test_a_callers_document_is_left_whole(self):
        s, grab, grabbed = self.grabbing()
        doc = build_document("<r x='1'><e a='1'/></r>")
        t = Transformer(s, extra_functions={"grab": grab, "boom": lambda ctx, nodes: ""})
        assert t.transform(doc) == t.transform(doc) == ""
        element = grabbed[0]()
        assert element is not None and element.parent.parent is doc
        assert doc.document_element.attribute("x").parent is doc.document_element
        assert t._doc is None

    def test_stripping_a_callers_document_drops_its_stale_views(self):
        doc = build_document("<r> <a> </a> <keep> </keep></r>")
        before = len(doc.descendants_list())
        s = sheet(
            """<xsl:strip-space elements="*"/><xsl:preserve-space elements="keep"/>
               <xsl:template match="/"><xsl:value-of select="count(//node())"/></xsl:template>"""
        )
        assert before == 7
        assert Transformer(s).transform(doc) == "4"
        assert Transformer(s).transform(doc) == "4"
