"""Result-tree construction and serialization tests."""

import pytest

from repro.xslt.output import OutElement, OutputBuilder, OutputSettings, serialize


class TestOutputBuilder:
    def test_nested_elements(self):
        b = OutputBuilder()
        b.start_element("a")
        b.add_attribute("x", "1")
        b.start_element("b")
        b.add_text("t")
        b.end_element()
        b.end_element()
        out = serialize(b.finish(), OutputSettings(omit_xml_declaration=True))
        assert out == '<a x="1"><b>t</b></a>'

    def test_attribute_after_child_rejected(self):
        b = OutputBuilder()
        b.start_element("a")
        b.start_element("b")
        b.end_element()
        with pytest.raises(Exception, match="after children"):
            b.add_attribute("x", "1")

    def test_attribute_with_no_element_rejected(self):
        b = OutputBuilder()
        with pytest.raises(Exception, match="outside"):
            b.add_attribute("x", "1")

    def test_unbalanced_end(self):
        b = OutputBuilder()
        with pytest.raises(Exception, match="no open element"):
            b.end_element()

    def test_unclosed_element_at_finish(self):
        b = OutputBuilder()
        b.start_element("a")
        with pytest.raises(Exception, match="unclosed"):
            b.finish()

    def test_duplicate_attribute_last_wins(self):
        b = OutputBuilder()
        b.start_element("a")
        b.add_attribute("x", "1")
        b.add_attribute("x", "2")
        b.end_element()
        out = serialize(b.finish(), OutputSettings(omit_xml_declaration=True))
        assert out == '<a x="2"/>'

    def test_string_value(self):
        b = OutputBuilder()
        b.start_element("a")
        b.add_text("x")
        b.start_element("b")
        b.add_text("y")
        b.end_element()
        b.end_element()
        b.add_text("z")
        assert b.string_value() == "xyz"
        elem = b.top[0]
        assert isinstance(elem, OutElement) and elem.string_value() == "xy"


class TestSerialization:
    def make(self):
        b = OutputBuilder()
        b.start_element("root")
        b.add_text("a & <b>")
        b.end_element()
        return b.finish()

    def test_xml_escaping(self):
        out = serialize(self.make(), OutputSettings(omit_xml_declaration=True))
        assert out == "<root>a &amp; &lt;b&gt;</root>"

    def test_text_method_no_escaping(self):
        out = serialize(self.make(), OutputSettings(method="text"))
        assert out == "a & <b>"

    def test_attribute_escaping(self):
        b = OutputBuilder()
        b.start_element("a")
        b.add_attribute("v", 'say "hi" & <bye>')
        b.end_element()
        out = serialize(b.finish(), OutputSettings(omit_xml_declaration=True))
        assert 'v="say &quot;hi&quot; &amp; &lt;bye&gt;"' in out

    def test_declaration_present_by_default(self):
        out = serialize(self.make(), OutputSettings())
        assert out.startswith('<?xml version="1.0"?>')
