"""The lowered (compile-once) engine's contract beyond byte-for-byte
output: errors stay lazy, scopes end where their body ends, template
dispatch agrees with the conflict-resolution definition, and nothing a
run leaves on a Transformer leaks into the next document."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xslt import Stylesheet, Transformer, XsltError
from repro.xslt.xpath import (
    Context,
    XPathEvalError,
    XPathSyntaxError,
    XPathTypeError,
    build_document,
    compile,
    evaluate,
)

XSL_NS = 'xmlns:xsl="http://www.w3.org/1999/XSL/Transform"'


def sheet(body: str) -> Stylesheet:
    return Stylesheet.from_string(
        f"""<xsl:stylesheet version="1.0" {XSL_NS}>
        <xsl:output omit-xml-declaration="yes"/>
        {body}
        </xsl:stylesheet>"""
    )


class TestErrorsStayLazy:
    """A malformed instruction raises when it is executed, not when the
    sheet is loaded or lowered, and not if it is never reached."""

    BROKEN = [
        ('<xsl:value-of select="a["/>', XPathSyntaxError, "a\\["),
        ("<xsl:value-of/>", XsltError, "xsl:value-of requires select"),
        ('<xsl:for-each select="(">x</xsl:for-each>', XPathSyntaxError, None),
        ("<xsl:for-each>x</xsl:for-each>", XsltError, "xsl:for-each requires select"),
        ("<xsl:if>x</xsl:if>", XsltError, "xsl:if requires test"),
        ("<xsl:choose><xsl:when>x</xsl:when></xsl:choose>", XsltError, "xsl:when requires test"),
        ('<xsl:call-template name="nope"/>', XsltError, "no template named 'nope'"),
        ("<xsl:number/>", XsltError, "unsupported instruction xsl:number"),
        ('<e a="}"/>', XsltError, "lone '}'"),
        ('<xsl:element name="{{x}">v</xsl:element>', XsltError, "lone '}'"),
        ("<xsl:variable>v</xsl:variable>", XsltError, "xsl:variable requires name"),
        ("<xsl:copy-of/>", XsltError, "xsl:copy-of requires select"),
        ('<xsl:value-of select="namespace::x"/>', XPathEvalError, "unsupported axis 'namespace'"),
        (
            '<xsl:apply-templates><xsl:with-param select="1"/></xsl:apply-templates>',
            XsltError,
            "xsl:with-param without name",
        ),
    ]

    @pytest.mark.parametrize("instruction,error,message", BROKEN, ids=[b[0] for b in BROKEN])
    def test_raises_only_when_reached(self, instruction, error, message):
        s = sheet(
            f"""<xsl:template match="/">
                  <o><xsl:if test="//go">{instruction}</xsl:if></o>
                </xsl:template>"""
        )
        s.lowered()  # lowering itself never raises
        assert Transformer(s).transform("<r/>") == "<o/>"
        with pytest.raises(error, match=message):
            Transformer(s).transform("<r><go/></r>")

    def test_earlier_siblings_run_before_the_error(self, capsys):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:message>before</xsl:message>
                 <xsl:value-of select="1 +"/>
                 <xsl:message>after</xsl:message>
               </xsl:template>"""
        )
        with pytest.raises(XPathSyntaxError):
            Transformer(s).transform("<r/>")
        err = capsys.readouterr().err
        assert "before" in err and "after" not in err

    def test_choose_stops_at_the_first_true_when(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:choose>
                   <xsl:when test="true()">ok</xsl:when>
                   <xsl:when>never reached</xsl:when>
                 </xsl:choose>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "ok"

    def test_param_without_name_raises_at_invocation(self):
        s = sheet(
            """<xsl:template match="/"><o><xsl:apply-templates select="//go"/></o></xsl:template>
               <xsl:template match="go"><xsl:param select="1"/>x</xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o/>"
        with pytest.raises(XsltError, match="xsl:param without name"):
            Transformer(s).transform("<r><go/></r>")

    def test_only_the_final_coercion_is_reported_as_not_a_node_set(self):
        inner = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="v" select="true()"/>
                 <xsl:for-each select="$v/a">x</xsl:for-each>
               </xsl:template>"""
        )
        with pytest.raises(XPathTypeError, match="expected node-set, got bool"):
            Transformer(inner).transform("<r/>")
        outer = sheet('<xsl:template match="/"><xsl:for-each select="1 + 1">x</xsl:for-each></xsl:template>')
        with pytest.raises(XPathEvalError, match=r"1 \+ 1 did not yield a node-set"):
            Transformer(outer).transform("<r/>")

    def test_compile_raises_what_parse_raises(self):
        with pytest.raises(XPathSyntaxError):
            compile("a[")
        unsupported = compile("namespace::x")  # parses, cannot run
        with pytest.raises(XPathEvalError, match="unsupported axis"):
            unsupported(Context(build_document("<r/>")))


class TestScopes:
    def test_for_each_variable_ends_with_the_iteration(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:for-each select="//i">
                   <xsl:if test="position() = 2"><xsl:value-of select="$seen"/></xsl:if>
                   <xsl:variable name="seen" select="'leak'"/>
                 </xsl:for-each>
               </xsl:template>"""
        )
        with pytest.raises(XPathEvalError, match=r"unbound variable \$seen"):
            Transformer(s).transform("<r><i/><i/></r>")

    def test_inner_binding_shadows_then_restores(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="v" select="'outer'"/>
                 <o>
                   <xsl:if test="true()">
                     <xsl:variable name="v" select="'inner'"/>
                     <xsl:value-of select="$v"/>
                   </xsl:if>
                   <xsl:text>,</xsl:text>
                   <xsl:value-of select="$v"/>
                 </o>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>inner,outer</o>"

    def test_recursion_keeps_each_invocations_bindings(self):
        s = sheet(
            """<xsl:template match="/"><o>
                 <xsl:call-template name="down"><xsl:with-param name="n" select="3"/></xsl:call-template>
               </o></xsl:template>
               <xsl:template name="down">
                 <xsl:param name="n"/>
                 <xsl:variable name="mine" select="$n * 10"/>
                 <xsl:if test="$n &gt; 1">
                   <xsl:call-template name="down">
                     <xsl:with-param name="n" select="$n - 1"/>
                   </xsl:call-template>
                 </xsl:if>
                 <xsl:value-of select="concat($mine, ';')"/>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>10;20;30;</o>"

    def test_globals_visible_in_templates_and_in_order(self):
        s = sheet(
            """<xsl:variable name="a" select="2"/>
               <xsl:variable name="b" select="$a * 3"/>
               <xsl:template match="/"><o><xsl:apply-templates select="r"/></o></xsl:template>
               <xsl:template match="r"><xsl:value-of select="$a + $b"/></xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>8</o>"


RULE_POOL = [
    "a", "b", "*", "node()", "a[@k]", "a[1]", "r/a", "r//b", "/r/a", "@k", "@*",
    "text()", "b[@k='2']", "a|b", "/",
]


@st.composite
def rule_sets(draw):
    count = draw(st.integers(1, 7))
    rules = []
    for index in range(count):
        pattern = draw(st.sampled_from(RULE_POOL))
        priority = draw(st.sampled_from([None, "-1", "0", "0.5", "2"]))
        mode = draw(st.sampled_from([None, None, "m"]))
        attrs = f'match="{pattern}"'
        if priority is not None:
            attrs += f' priority="{priority}"'
        if mode is not None:
            attrs += f' mode="{mode}"'
        rules.append(f"<xsl:template {attrs}>T{index}</xsl:template>")
    return "".join(rules)


DISPATCH_DOC = build_document(
    "<r k='0'><a k='1'>t<b/></a><a/><b k='2'><a>u</a></b><!--c--><c><b k='3'/></c></r>"
)


class TestDispatchTable:
    @given(rule_sets())
    @settings(max_examples=150, deadline=None)
    def test_find_rule_is_the_best_matching_rule(self, templates):
        """The dispatch table picks what the definition picks: among the
        rules of the mode whose pattern matches, the greatest
        (precedence, priority, document order)."""
        s = sheet(templates)
        nodes = [DISPATCH_DOC, *DISPATCH_DOC.descendants()]
        nodes += [attr for n in nodes for attr in n.attributes()]
        for node in nodes:
            ctx = Context(node)
            for mode in (None, "m"):
                matching = [
                    rule
                    for rule in s.rules
                    if rule.mode == mode and rule.pattern.matches(node, ctx)
                ]
                expected = max(
                    matching,
                    key=lambda r: (r.precedence, r.priority, r.order),
                    default=None,
                )
                assert s.find_rule(node, mode, ctx) is expected

    def test_a_losing_rules_predicate_still_raises(self):
        """Conflict resolution is defined over every rule that matches,
        so a predicate that raises in a rule that would lose anyway is
        still evaluated -- and of two that raise, the one earlier in the
        stylesheet is reported, as a scan in stylesheet order would."""
        s = sheet(
            """<xsl:template match="a[$second]" priority="-3">low</xsl:template>
               <xsl:template match="a">win</xsl:template>
               <xsl:template match="*[$first]" priority="-9">lowest</xsl:template>
               <xsl:template match="b[$never]">other name</xsl:template>"""
        )
        # $never sits behind a name test that fails for <a/>: never evaluated there
        with pytest.raises(XPathEvalError, match=r"unbound variable \$second"):
            Transformer(s).transform("<a/>")
        with pytest.raises(XPathEvalError, match=r"unbound variable \$first"):
            Transformer(s).transform("<a/>", params={"second": False})
        assert Transformer(s).transform("<a/>", params={"first": 1, "second": 1}) == "win"
        reordered = sheet(
            """<xsl:template match="*[$first]" priority="-9">lowest</xsl:template>
               <xsl:template match="a[$second]">higher rank, later in the sheet</xsl:template>"""
        )
        with pytest.raises(XPathEvalError, match=r"unbound variable \$first"):
            Transformer(reordered).transform("<a/>")

    def test_apply_imports_skips_equal_and_higher_precedence(self, tmp_path):
        (tmp_path / "base.xsl").write_text(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:template match="a">base</xsl:template>
            <xsl:template match="*">any</xsl:template>
            </xsl:stylesheet>"""
        )
        (tmp_path / "main.xsl").write_text(
            f"""<xsl:stylesheet version="1.0" {XSL_NS}>
            <xsl:import href="base.xsl"/>
            <xsl:output omit-xml-declaration="yes"/>
            <xsl:template match="a">[<xsl:apply-imports/>]</xsl:template>
            <xsl:template match="a" priority="-5">low</xsl:template>
            </xsl:stylesheet>"""
        )
        s = Stylesheet.from_file(tmp_path / "main.xsl")
        assert Transformer(s).transform("<a/>") == "[base]"


class TestNoStateBetweenDocuments:
    def test_generate_id_on_a_reused_transformer(self):
        """generate-id() is a function of the node's place in its own
        document; a Transformer that has seen other documents (whose
        freed nodes' addresses get reused) answers like a fresh one."""
        s = sheet(
            """<xsl:template match="/">
                 <xsl:for-each select="//*"><xsl:value-of select="generate-id()"/>
                   <xsl:text>:</xsl:text><xsl:value-of select="generate-id(@*[1])"/>
                   <xsl:text> </xsl:text></xsl:for-each>
               </xsl:template>"""
        )
        rng = random.Random(12)

        def document() -> str:
            text = "<r>"
            for _ in range(rng.randrange(1, 40)):
                name = f"e{rng.randrange(5)}"
                text += f"<{name} a='{rng.randrange(9)}'>" + "<x/>" * rng.randrange(4) + f"</{name}>"
            return text + "</r>"

        reused = Transformer(s)
        for _ in range(200):
            source = document()
            assert reused.transform(source) == Transformer(s).transform(source)

    def test_strip_space_keeps_the_numbering_of_the_unstripped_tree(self):
        """xsl:strip-space removes nodes after the tree is numbered, so
        generate-id() does not depend on it, whether the source arrives
        as text or as an already built XDocument."""
        s = sheet(
            """<xsl:strip-space elements="*"/>
               <xsl:preserve-space elements="keep"/>
               <xsl:template match="/">
                 <xsl:for-each select="//node() | //@*">
                   <xsl:value-of select="concat(generate-id(), '=', name(), '[', ., '] ')"/>
                 </xsl:for-each>
               </xsl:template>"""
        )
        source = "<r a='1'>\n <x> </x><keep> <y b='2'>\t</y> </keep> t <!--c-->\n</r>"
        from_text = Transformer(s).transform(source)
        assert from_text == Transformer(s).transform(build_document(source))
        # ids 3, 5 and 10 belong to the stripped whitespace-only texts
        assert from_text == (
            "id1=r[   t \n] id2=a[1] id4=x[] id6=keep[  ] id7=[ ] id8=y[] "
            "id9=b[2] id11=[ ] id12=[ t \n] "
        )

    def test_key_tables_and_name_index_die_with_the_document(self):
        s = sheet(
            """<xsl:key name="by-a" match="e" use="@a"/>
               <xsl:template match="/">
                 <xsl:value-of select="count(key('by-a', '1')) + count(//e)"/>
               </xsl:template>"""
        )
        t = Transformer(s)
        assert t.transform("<r><e a='1'/><e a='1'/><e a='2'/></r>") == "5"
        assert t.transform("<r><e a='1'/></r>") == "2"
        assert t.transform("<r/>") == "0"


class TestSharedProgram:
    def test_two_threads_lowering_at_once_get_one_program(self):
        s = sheet(
            "".join(
                f'<xsl:template match="n{i}"><xsl:value-of select="@a{i} + {i}"/></xsl:template>'
                for i in range(200)
            )
        )
        barrier = threading.Barrier(2)
        programs = []

        def lower():
            barrier.wait(timeout=10)
            programs.append(s.lowered())

        threads = [threading.Thread(target=lower) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(programs) == 2 and programs[0] is programs[1]
        assert s.lowered() is programs[0]

    def test_compiled_expression_is_shared_and_context_free(self):
        fn = compile("count(//x[@k = $want]) + position()")
        assert compile("count(//x[@k = $want]) + position()") is fn
        doc = build_document("<r><x k='1'/><x k='2'/><x k='1'/></r>")
        assert fn(Context(doc, 5, 9, {"want": "1"})) == 7.0
        assert fn(Context(doc, 1, 1, {"want": "2"})) == 2.0
        assert evaluate("count(//x[@k = $want]) + position()", Context(doc, 2, 2, {"want": "3"})) == 2.0
