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
# comment-keeping parser would have made of it (a comment is a child, and
# the text after it its tail).

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
        elif item[0] == "comment":
            last = ET.Comment(item[1])
            elem.append(last)
        else:
            if last is None:
                elem.text = (elem.text or "") + item[1]
            else:
                last.tail = (last.tail or "") + item[1]
    return elem


def rows(doc):
    """Every node the document holds, by walking it from child to child
    (not by its name index)."""
    found = []

    def walk(node):
        kind = doc.kind(node)
        found.append(
            (
                kind,
                doc.name(node),
                doc.string_value(node) if kind != "element" else None,
                doc.number(node),
                doc.name(doc.parent(node)),
                [
                    (doc.name(a), doc.string_value(a), doc.number(a), doc.parent(a) == node)
                    for a in doc.attributes(node)
                ],
            )
        )
        for child in doc.children(node):
            walk(child)

    for child in doc.children(0):
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
        """The descendant range and the name index the builder fills
        list what a walk from child to child finds, in its order."""
        source = as_text(document) if from_text else as_etree(document)
        doc = build_document(source, strips=strips if stripping else None)
        walked = []

        def walk(node):
            for child in doc.children(node):
                walked.append(child)
                walk(child)

        walk(0)
        assert doc.descendants(0) == walked
        index = {}
        for node in walked:
            if doc.kind(node) == "element":
                index.setdefault(doc.name(node), []).append(node)
        assert doc.index == index
        assert list(doc.index) == list(index)

    def test_restore_prefixes_means_the_same_on_both_drivers(self):
        text = "<UML.Model xmi.id='m'><XMI.header/><UML.Package.x/></UML.Model>"
        expected = ["UML:Model", "XMI.header", "UML:Package.x"]
        for source in (text, ET.fromstring(text), parse_prefixed(text.replace("UML.", "UML:"))):
            doc = build_document(source, restore_prefixes=True)
            assert [doc.name(n) for n in doc.descendants(0)] == expected
            assert doc.string_value(doc.attribute(doc.children(0)[0], "xmi.id")) == "m"

    def test_an_etree_comment_is_dropped_as_expat_drops_it(self):
        """A comment an ElementTree kept is no node, and the text on
        either side of it is one: the tree, its numbering and so
        ``generate-id()`` are the ones the same text gives."""
        text = "<r><!-- c --><a/>x<!-- d -->y</r>"
        builder = ET.TreeBuilder(insert_comments=True)
        parser = ET.XMLParser(target=builder)
        parser.feed(text)
        tree = parser.close()
        assert [child.tag for child in tree] == [ET.Comment, "a", ET.Comment]
        doc = build_document(tree)
        kinds = [(doc.kind(n), doc.string_value(n), doc.number(n)) for n in doc.descendants(0)]
        assert kinds == [("element", "xy", 1), ("element", "", 2), ("text", "xy", 3)]
        assert rows(build_document(tree)) == rows(build_document(text))

    def test_text_longer_than_the_parser_buffer_is_one_node(self):
        long = "x" * 50_000 + "&amp;" + "y" * 50_000
        doc = build_document(f"<r>{long}</r>")
        (text,) = doc.children(doc.children(0)[0])
        assert doc.string_value(text) == long.replace("&amp;", "&")

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
            ("*", "abc"),  # no name: every element
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


class Probing(Transformer):
    """A Transformer that, at each lookup of key ``k``, keeps a weak
    reference to the document and the first hit, and at each lookup of
    key ``boom``, runs *boom*: every ``key()`` call goes through
    :meth:`Transformer._key`."""

    def __init__(self, stylesheet, boom=lambda: None):
        super().__init__(stylesheet)
        self.grabbed, self.boom = [], boom

    def _key(self, name, value):
        hits = super()._key(name, value)
        if name == "k":
            self.grabbed.append((weakref.ref(self._doc), hits[0]))
        else:
            self.boom()
        return hits


class TestWhoFreesTheTree:
    SHEET = """<xsl:key name="k" match="e" use="@a"/>
               <xsl:key name="boom" match="e" use="@a"/>
               <xsl:template match="/">
                 <xsl:value-of select="name(key('k', '1'))"/><xsl:value-of select="name(key('boom', 'x'))"/>
               </xsl:template>"""

    @pytest.mark.parametrize("source", ["<r><e a='1'/></r>", ET.fromstring("<r><e a='1'/></r>")])
    def test_a_transformer_does_not_pin_the_document_it_built(self, source):
        t = Probing(sheet(self.SHEET))
        assert t.transform(source) == "e"
        # no gc.collect(): the document went by reference count
        assert t.grabbed[0][0]() is None
        assert t._doc is None and t._key_tables == {}

    def test_nor_when_the_run_raises(self):
        def boom():
            raise RuntimeError("boom")

        t = Probing(sheet(self.SHEET), boom)
        with pytest.raises(RuntimeError):
            t.transform("<r><e a='1'/></r>")
        assert t._doc is None and t._key_tables == {}

    def test_a_callers_document_is_left_whole(self):
        doc = build_document("<r x='1'><e a='1'/></r>")
        t = Probing(sheet(self.SHEET))
        assert t.transform(doc) == t.transform(doc) == "e"
        held, element = t.grabbed[0]
        assert held() is doc and doc.parent(doc.parent(element)) == 0
        (root,) = doc.children(0)
        assert doc.parent(doc.attribute(root, "x")) == root
        assert t._doc is None

    def test_stripping_a_callers_document_drops_its_stale_views(self):
        doc = build_document("<r> <a> </a> <keep> </keep></r>")
        before = len(doc.descendants(0))
        s = sheet(
            """<xsl:strip-space elements="r a"/>
               <xsl:template match="/"><xsl:value-of select="string-length(/)"/></xsl:template>"""
        )
        assert before == 7
        # the whitespace of r and a is gone from the text, and from the
        # descendants: its rows stay, as no node
        assert Transformer(s).transform(doc) == "1"
        assert Transformer(s).transform(doc) == "1"
        assert len(doc.descendants(0)) == 4
