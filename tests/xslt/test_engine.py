"""XSLT engine tests: instructions, template resolution, output modes."""

import pytest

from repro.xslt import Stylesheet, Transformer
from repro.xslt.engine import XsltError
from repro.xslt.xpath.evaluator import XPathEvalError

XSL_NS = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def run(template_body: str, source: str, *, top: str = "", params=None, method="xml") -> str:
    sheet = Stylesheet.from_string(
        f"""<xsl:stylesheet version="1.0" {XSL_NS}>
        <xsl:output method="{method}" omit-xml-declaration="yes"/>
        <xsl:strip-space elements="*"/>
        {top}
        <xsl:template match="/">{template_body}</xsl:template>
        </xsl:stylesheet>"""
    )
    return Transformer(sheet).transform(source, params)


class TestValueOfAndText:
    def test_value_of(self):
        assert run('<o><xsl:value-of select="//a"/></o>', "<r><a>hi</a></r>") == "<o>hi</o>"

    def test_text_preserved(self):
        assert run("<o><xsl:text>  x  </xsl:text></o>", "<r/>") == "<o>  x  </o>"

    def test_whitespace_only_stripped(self):
        assert run("<o>\n   \n</o>", "<r/>") == "<o/>"

    def test_escaping(self):
        out = run('<o><xsl:value-of select="//a"/></o>', "<r><a>&lt;&amp;&gt;</a></r>")
        assert out == "<o>&lt;&amp;&gt;</o>"


class TestControlFlow:
    def test_if_true(self):
        assert run('<o><xsl:if test="1 = 1">y</xsl:if></o>', "<r/>") == "<o>y</o>"

    def test_if_false(self):
        assert run('<o><xsl:if test="1 = 2">y</xsl:if></o>', "<r/>") == "<o/>"

    def test_choose_first_match_wins(self):
        body = (
            "<o><xsl:choose>"
            '<xsl:when test="1 = 2">a</xsl:when>'
            '<xsl:when test="1 = 1">b</xsl:when>'
            '<xsl:when test="2 = 2">c</xsl:when>'
            "<xsl:otherwise>d</xsl:otherwise>"
            "</xsl:choose></o>"
        )
        assert run(body, "<r/>") == "<o>b</o>"

    def test_choose_otherwise(self):
        body = (
            "<o><xsl:choose>"
            '<xsl:when test="1 = 2">a</xsl:when>'
            "<xsl:otherwise>z</xsl:otherwise>"
            "</xsl:choose></o>"
        )
        assert run(body, "<r/>") == "<o>z</o>"

    def test_for_each(self):
        body = '<o><xsl:for-each select="//i"><v><xsl:value-of select="."/></v></xsl:for-each></o>'
        assert run(body, "<r><i>1</i><i>2</i></r>") == "<o><v>1</v><v>2</v></o>"

    def test_for_each_position(self):
        # position() is not in the subset: a for-each body sees its node only
        body = '<o><xsl:for-each select="//i"><xsl:value-of select="position()"/></xsl:for-each></o>'
        with pytest.raises(XPathEvalError, match=r"unknown function position\(\)"):
            run(body, "<r><i/><i/><i/></r>")


class TestElementConstruction:
    def test_literal_with_avt(self):
        assert (
            run('<o name="{//a}" fixed="x"/>', "<r><a>v</a></r>")
            == '<o name="v" fixed="x"/>'
        )

    def test_avt_braces_escape(self):
        assert run('<o v="{{literal}}"/>', "<r/>") == '<o v="{literal}"/>'

    def test_xsl_attribute(self):
        body = '<o><xsl:attribute name="a">v</xsl:attribute></o>'
        assert run(body, "<r/>") == '<o a="v"/>'

    def test_attribute_after_child_rejected(self):
        body = '<o><b/><xsl:attribute name="a">v</xsl:attribute></o>'
        with pytest.raises(Exception):
            run(body, "<r/>")


class TestVariablesAndParams:
    def test_variable_select(self):
        body = '<o><xsl:variable name="v" select="2 + 3"/><xsl:value-of select="$v"/></o>'
        assert run(body, "<r/>") == "<o>5</o>"

    def test_variable_rtf_string_value(self):
        body = (
            '<o><xsl:variable name="v"><x>a</x><x>b</x></xsl:variable>'
            '<xsl:value-of select="$v"/></o>'
        )
        assert run(body, "<r/>") == "<o>ab</o>"

    def test_global_param_default(self):
        top = '<xsl:param name="p" select="\'dflt\'"/>'
        body = '<o><xsl:value-of select="$p"/></o>'
        assert run(body, "<r/>", top=top) == "<o>dflt</o>"

    def test_global_param_override(self):
        top = '<xsl:param name="p" select="\'dflt\'"/>'
        body = '<o><xsl:value-of select="$p"/></o>'
        assert run(body, "<r/>", top=top, params={"p": "given"}) == "<o>given</o>"

    def test_global_variable_not_overridable(self):
        top = '<xsl:variable name="v" select="\'fixed\'"/>'
        body = '<o><xsl:value-of select="$v"/></o>'
        assert run(body, "<r/>", top=top, params={"v": "nope"}) == "<o>fixed</o>"

    def test_variable_scoping_siblings(self):
        body = (
            '<o><xsl:variable name="a" select="1"/>'
            '<xsl:variable name="b" select="$a + 1"/>'
            '<xsl:value-of select="$b"/></o>'
        )
        assert run(body, "<r/>") == "<o>2</o>"


class TestTemplates:
    def sheet(self, templates: str) -> Stylesheet:
        return Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output omit-xml-declaration="yes"/>
            <xsl:strip-space elements="*"/>
            {templates}
            </xsl:stylesheet>"""
        )

    def test_apply_templates_recursion(self):
        sheet = self.sheet(
            """
            <xsl:template match="/"><o><xsl:apply-templates/></o></xsl:template>
            <xsl:template match="a"><A><xsl:apply-templates/></A></xsl:template>
            <xsl:template match="b"><B/></xsl:template>
            """
        )
        assert Transformer(sheet).transform("<r><a><b/></a><b/></r>") == "<o><A><B/></A><B/></o>"

    def test_builtin_rules_copy_text(self):
        sheet = self.sheet('<xsl:template match="a"><A/></xsl:template>')
        # built-in rules walk to text and copy it; <a> is overridden
        out = Transformer(sheet).transform("<r>hi<a>ignored</a></r>")
        assert out == "hiA/&gt;".replace("&gt;", ">") or out == "hi<A/>"

    def test_priority_name_over_wildcard(self):
        sheet = self.sheet(
            """
            <xsl:template match="/"><o><xsl:apply-templates select="//x"/></o></xsl:template>
            <xsl:template match="*"><any/></xsl:template>
            <xsl:template match="x"><X/></xsl:template>
            """
        )
        assert Transformer(sheet).transform("<r><x/></r>") == "<o><X/></o>"

    def test_last_rule_wins_ties(self):
        sheet = self.sheet(
            """
            <xsl:template match="/"><o><xsl:apply-templates select="//x"/></o></xsl:template>
            <xsl:template match="x"><first/></xsl:template>
            <xsl:template match="x"><second/></xsl:template>
            """
        )
        assert Transformer(sheet).transform("<r><x/></r>") == "<o><second/></o>"

    def test_named_template_with_params(self):
        sheet = self.sheet(
            """
            <xsl:template match="/">
              <o><xsl:call-template name="t">
                   <xsl:with-param name="x" select="'A'"/>
                 </xsl:call-template></o>
            </xsl:template>
            <xsl:template name="t">
              <xsl:param name="x" select="'dflt'"/>
              <xsl:param name="y" select="'Y'"/>
              <xsl:value-of select="concat($x, $y)"/>
            </xsl:template>
            """
        )
        assert Transformer(sheet).transform("<r/>") == "<o>AY</o>"

    def test_missing_named_template(self):
        sheet = self.sheet(
            '<xsl:template match="/"><xsl:call-template name="ghost"/></xsl:template>'
        )
        with pytest.raises(XsltError):
            Transformer(sheet).transform("<r/>")

    def test_apply_templates_with_param(self):
        sheet = self.sheet(
            """
            <xsl:template match="/"><o>
              <xsl:apply-templates select="//x">
                <xsl:with-param name="p" select="'v'"/>
              </xsl:apply-templates>
            </o></xsl:template>
            <xsl:template match="x">
              <xsl:param name="p" select="'d'"/>
              <xsl:value-of select="$p"/>
            </xsl:template>
            """
        )
        assert Transformer(sheet).transform("<r><x/></r>") == "<o>v</o>"

    def test_recursive_named_template(self):
        sheet = self.sheet(
            """
            <xsl:template match="/"><o><xsl:call-template name="count">
              <xsl:with-param name="n" select="3"/>
            </xsl:call-template></o></xsl:template>
            <xsl:template name="count">
              <xsl:param name="n"/>
              <xsl:if test="$n &gt; 0">
                <xsl:value-of select="$n"/>
                <xsl:call-template name="count">
                  <xsl:with-param name="n" select="$n - 1"/>
                </xsl:call-template>
              </xsl:if>
            </xsl:template>
            """
        )
        assert Transformer(sheet).transform("<r/>") == "<o>321</o>"


class TestOutput:
    def test_text_method(self):
        assert run('<xsl:value-of select="//a"/>!', "<r><a>x</a></r>", method="text") == "x!"

    def test_unsupported_instruction_raises(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:template match="/"><xsl:number/></xsl:template>
            </xsl:stylesheet>"""
        )
        with pytest.raises(XsltError, match="xsl:number"):
            Transformer(sheet).transform("<r/>")

    def test_unsupported_top_level_raises(self):
        with pytest.raises(XsltError):
            Stylesheet.from_string(
                f"""<xsl:stylesheet version="1.0" {XSL_NS}>
                <xsl:import href="other.xsl"/>
                </xsl:stylesheet>"""
            )

    def test_non_stylesheet_root_raises(self):
        with pytest.raises(XsltError):
            Stylesheet.from_string("<not-a-stylesheet/>")

    def test_indent_output(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output indent="yes" omit-xml-declaration="yes"/>
            <xsl:template match="/"><a><b>x</b></a></xsl:template>
            </xsl:stylesheet>"""
        )
        out = Transformer(sheet).transform("<r/>")
        assert out == "<a>\n  <b>x</b>\n</a>\n"


class TestKeys:
    def test_key_lookup(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output method="text"/>
            <xsl:key name="by-id" match="def" use="@id"/>
            <xsl:template match="/">
              <xsl:for-each select="//ref">
                <xsl:value-of select="key('by-id', @to)/@v"/>
                <xsl:text>;</xsl:text>
              </xsl:for-each>
            </xsl:template>
            </xsl:stylesheet>"""
        )
        src = "<r><def id='a' v='1'/><def id='b' v='2'/><ref to='b'/><ref to='a'/></r>"
        assert Transformer(sheet).transform(src) == "2;1;"

    def test_key_with_nodeset_value(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output method="text"/>
            <xsl:key name="by-id" match="def" use="@id"/>
            <xsl:template match="/">
              <xsl:for-each select="key('by-id', //ref/@to)"><xsl:value-of select="@id"/></xsl:for-each>
            </xsl:template>
            </xsl:stylesheet>"""
        )
        src = "<r><def id='a'/><def id='b'/><def id='c'/><ref to='c'/><ref to='a'/></r>"
        assert Transformer(sheet).transform(src) == "ac"

    def test_key_miss_is_empty(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output method="text"/>
            <xsl:key name="by-id" match="def" use="@id"/>
            <xsl:template match="/">
              <xsl:value-of select="concat('[', key('by-id', 'ghost'), ']')"/>
            </xsl:template>
            </xsl:stylesheet>"""
        )
        assert Transformer(sheet).transform("<r><def id='a'/></r>") == "[]"

    def test_unknown_key_raises(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:template match="/"><xsl:value-of select="key('nope', 'x')"/></xsl:template>
            </xsl:stylesheet>"""
        )
        with pytest.raises(Exception, match="nope"):
            Transformer(sheet).transform("<r/>")

    def test_key_table_rebuilt_per_document(self):
        sheet = Stylesheet.from_string(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:output method="text"/>
            <xsl:key name="by-id" match="def" use="@id"/>
            <xsl:template match="/">
              <xsl:value-of select="key('by-id', 'a')/@v"/>
            </xsl:template>
            </xsl:stylesheet>"""
        )
        t = Transformer(sheet)
        assert t.transform("<r><def id='a' v='1'/></r>") == "1"
        assert t.transform("<r><def id='a' v='2'/></r>") == "2"
