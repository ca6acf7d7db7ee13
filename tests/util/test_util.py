"""Utility tests: XML helpers."""

import pytest

from repro.util.xmlutil import (
    canonicalize,
    escape_attr,
    escape_text,
    parse_prefixed,
    pretty_print,
    serialize_prefixed,
    strip_whitespace_nodes,
    xml_equal,
)


class TestEscaping:
    def test_text(self):
        assert escape_text("a<b>&c") == "a&lt;b&gt;&amp;c"

    def test_attr_quotes_and_newlines(self):
        assert escape_attr('say "hi"\n') == "say &quot;hi&quot;&#10;"

    def test_attr_tab_and_carriage_return(self):
        assert escape_attr("a\tb\rc") == "a&#9;b&#13;c"

    def test_text_carriage_return(self):
        assert escape_text("a\rb\r\nc") == "a&#13;b&#13;\nc"


class TestPrefixed:
    def test_parse_undeclared_prefix(self):
        root = parse_prefixed("<UML:Model name='m'><UML:Package/></UML:Model>")
        assert root.tag == "UML.Model"
        assert root[0].tag == "UML.Package"

    def test_attributes_untouched(self):
        root = parse_prefixed("<UML:Model xmi.id='a1'/>")
        assert root.get("xmi.id") == "a1"

    def test_serialize_restores_uml_only(self):
        import xml.etree.ElementTree as ET

        root = ET.Element("XMI")
        ET.SubElement(root, "XMI.header")
        ET.SubElement(root, "UML.Model", {"xmi.id": "a1"})
        out = serialize_prefixed(root)
        assert "<UML:Model" in out
        assert "<XMI.header/>" in out  # XMI.* stays dotted

    def test_roundtrip(self):
        text = "<XMI><XMI.content><UML:Model xmi.id='a1'/></XMI.content></XMI>"
        root = parse_prefixed(text)
        out = serialize_prefixed(root)
        assert xml_equal(parse_prefixed(out), root)


class TestCanonical:
    def test_attribute_order_insensitive(self):
        assert xml_equal('<a x="1" y="2"/>', '<a y="2" x="1"/>')

    def test_whitespace_insensitive(self):
        assert xml_equal("<a>\n  <b/>\n</a>", "<a><b/></a>")

    def test_child_order_sensitive(self):
        assert not xml_equal("<a><b/><c/></a>", "<a><c/><b/></a>")

    def test_text_significant(self):
        assert not xml_equal("<a>x</a>", "<a>y</a>")

    def test_canonicalize_hashable(self):
        assert isinstance(hash(canonicalize("<a><b/></a>")), int)


class TestPrettyPrint:
    def test_declaration_toggle(self):
        import xml.etree.ElementTree as ET

        elem = ET.fromstring("<a/>")
        assert pretty_print(elem).startswith("<?xml")
        assert not pretty_print(elem, xml_declaration=False).startswith("<?xml")

    def test_indentation(self):
        import xml.etree.ElementTree as ET

        elem = ET.fromstring("<a><b><c/></b></a>")
        out = pretty_print(elem, xml_declaration=False)
        assert out == "<a>\n  <b>\n    <c/>\n  </b>\n</a>\n"

    def test_strip_whitespace_nodes(self):
        import xml.etree.ElementTree as ET

        elem = ET.fromstring("<a>\n  <b/>\n</a>")
        strip_whitespace_nodes(elem)
        assert elem.text is None and elem[0].tail is None
