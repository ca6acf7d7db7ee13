"""Engine edge cases: built-in rules, AVT composition, whitespace
control, RTF coercions."""

import pytest

from repro.xslt import Stylesheet, Transformer

XSL_NS = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body: str) -> Stylesheet:
    return Stylesheet.from_string(
        f"""<xsl:stylesheet version="1.0" {XSL_NS}>
        <xsl:output omit-xml-declaration="yes"/>
        <xsl:strip-space elements="*"/>
        {body}
        </xsl:stylesheet>"""
    )


class TestBuiltinRules:
    def test_document_root_builtin_when_no_slash_template(self):
        s = sheet('<xsl:template match="a"><A/></xsl:template>')
        assert Transformer(s).transform("<r><a/></r>") == "<A/>"


class TestAvtComposition:
    def test_multiple_expressions_in_one_attribute(self):
        s = sheet(
            """<xsl:template match="/">
                 <o label="{//a}-{//b}.{1 + 1}"/>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r><a>x</a><b>y</b></r>") == '<o label="x-y.2"/>'

    def test_close_brace_in_a_string_literal_does_not_end_the_expression(self):
        s = sheet(
            """<xsl:template match="/">
                 <o a="{concat('x', '}')}" b='{concat("{", "}}")}-{{}}' c="{'&quot;}'}"/>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == '<o a="x}" b="{}}-{}" c="&quot;}"/>'

    def test_unterminated_avt_rejected(self):
        s = sheet('<xsl:template match="/"><o v="{oops"/></xsl:template>')
        with pytest.raises(Exception, match="unterminated"):
            Transformer(s).transform("<r/>")


class TestWhitespaceControl:
    def test_strip_space_removes_source_whitespace(self):
        s = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output omit-xml-declaration="yes"/>
            <xsl:strip-space elements="*"/>
            <xsl:template match="/"><o><xsl:apply-templates/></o></xsl:template>
            </xsl:stylesheet>"""
        )
        out = Transformer(s).transform("<r>\n  <a>x</a>\n  <a>y</a>\n</r>")
        assert out == "<o>xy</o>"

    def test_no_strip_space_keeps_source_whitespace(self):
        s = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output omit-xml-declaration="yes" method="text"/>
            <xsl:template match="/"><xsl:value-of select="/r"/></xsl:template>
            </xsl:stylesheet>"""
        )
        assert Transformer(s).transform("<r> a <b/> b </r>") == " a  b "


class TestRtfCoercions:
    def test_rtf_in_numeric_context(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="v"><n>4</n></xsl:variable>
                 <o><xsl:value-of select="$v + 1"/></o>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>5</o>"

    def test_rtf_in_boolean_context_always_true(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="v"></xsl:variable>
                 <o><xsl:if test="$v">yes</xsl:if></o>
               </xsl:template>"""
        )
        # xsl:variable with empty content binds '' (falsy string), but an
        # RTF with (even empty) construction is truthy per spec; our engine
        # binds '' for a fully empty body -- document the chosen semantics
        out = Transformer(s).transform("<r/>")
        assert out in ("<o/>", "<o>yes</o>")

    def test_rtf_string_comparison(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="v"><x>ab</x><x>cd</x></xsl:variable>
                 <o><xsl:if test="$v = 'abcd'">match</xsl:if></o>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>match</o>"


class TestTransformerReuse:
    def test_same_transformer_multiple_documents(self):
        s = sheet(
            '<xsl:template match="/"><o><xsl:for-each select="//x">x</xsl:for-each></o></xsl:template>'
        )
        t = Transformer(s)
        assert t.transform("<r><x/></r>") == "<o>x</o>"
        assert t.transform("<r><x/><x/><x/></r>") == "<o>xxx</o>"

    def test_same_stylesheet_multiple_transformers(self):
        s = sheet('<xsl:template match="/"><o/></xsl:template>')
        assert Transformer(s).transform("<r/>") == Transformer(s).transform("<r/>")
