"""The compiled engine's contract beyond byte-for-byte output: errors
stay lazy, scopes end where their body ends, template dispatch agrees
with the conflict-resolution definition, a sheet compiles once to the
same source, and nothing a run leaves on a Transformer leaks into the
next document."""

import random
import threading
import time
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.transform.xmi2cnx import STYLESHEET_DIR as STYLESHEETS
from repro.xslt import Stylesheet, Transformer
from repro.xslt.engine import ResultTreeFragment, XsltError, _body_items, _Compiler
from repro.xslt.patterns import PatternError
from repro.xslt.xpath import Context, build_document, evaluate
from repro.xslt.xpath.evaluator import XPathEvalError, compile
from repro.xslt.xpath.functions import XPathTypeError
from repro.xslt.xpath.parser import XPathSyntaxError

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
    sheet is loaded or compiled, and not if it is never reached."""

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
        ('<xsl:attribute name="{{x}">v</xsl:attribute>', XsltError, "lone '}'"),
        ("<xsl:variable>v</xsl:variable>", XsltError, "xsl:variable requires name"),
        ('<xsl:value-of select="namespace::x"/>', XPathSyntaxError, "unsupported axis 'namespace'"),
        (
            '<xsl:apply-templates><xsl:with-param select="1"/></xsl:apply-templates>',
            XsltError,
            "xsl:with-param without name",
        ),
        # constructs the engine does not take: each raises, none is ignored
        ('<xsl:element name="{{x}">v</xsl:element>', XsltError, "unsupported instruction xsl:element"),
        ("<xsl:copy-of/>", XsltError, "unsupported instruction xsl:copy-of"),
        ('<xsl:copy-of select="//go"/>', XsltError, "unsupported instruction xsl:copy-of"),
        ("<xsl:copy>x</xsl:copy>", XsltError, "unsupported instruction xsl:copy"),
        ("<xsl:comment>c</xsl:comment>", XsltError, "unsupported instruction xsl:comment"),
        ("<xsl:message>m</xsl:message>", XsltError, "unsupported instruction xsl:message"),
        ("<xsl:apply-imports/>", XsltError, "unsupported instruction xsl:apply-imports"),
        ('<xsl:processing-instruction name="p"/>', XsltError, "unsupported instruction xsl:processing-instruction"),
        ("<xsl:fallback/>", XsltError, "unsupported instruction xsl:fallback"),
        ("<xsl:sort/>", XsltError, "unsupported instruction xsl:sort"),
        ('<xsl:for-each select="//none"><xsl:sort/>x</xsl:for-each>', XsltError, "unsupported instruction xsl:sort"),
        (
            '<xsl:apply-templates select="//go"><xsl:sort/></xsl:apply-templates>',
            XsltError,
            "unsupported instruction xsl:sort in xsl:apply-templates",
        ),
        ('<xsl:apply-templates mode="m"/>', XsltError, "unsupported attribute mode= on xsl:apply-templates"),
        ('<xsl:value-of select="current()"/>', XPathEvalError, r"unknown function current\(\)"),
        # nor the XSLT functions xmi2cnx.xsl does not call
        (
            '<xsl:value-of select="system-property(\'xsl:version\')"/>',
            XPathEvalError,
            r"unknown function system-property\(\)",
        ),
        (
            '<xsl:value-of select="function-available(\'key\')"/>',
            XPathEvalError,
            r"unknown function function-available\(\)",
        ),
        (
            '<xsl:if test="element-available(\'xsl:sort\')">x</xsl:if>',
            XPathEvalError,
            r"unknown function element-available\(\)",
        ),
        ('<xsl:value-of select="generate-id(/, 1)"/>', XPathEvalError, r"generate-id\(\) takes 0 or 1 arguments"),
    ]

    @pytest.mark.parametrize("instruction,error,message", BROKEN, ids=[b[0] for b in BROKEN])
    def test_raises_only_when_reached(self, instruction, error, message):
        s = sheet(
            f"""<xsl:template match="/">
                  <o><xsl:if test="//go">{instruction}</xsl:if></o>
                </xsl:template>"""
        )
        s.compiled()  # compiling itself never raises
        assert Transformer(s).transform("<r/>") == "<o/>"
        with pytest.raises(error, match=message):
            Transformer(s).transform("<r><go/></r>")

    def test_earlier_siblings_run_before_the_error(self):
        seen = []

        class Noting(Transformer):
            def _key(self, name, value):
                seen.append(value)
                return super()._key(name, value)

        s = sheet(
            """<xsl:key name="k" match="r" use="@a"/>
               <xsl:template match="/">
                 <xsl:value-of select="key('k', 'before')"/>
                 <xsl:value-of select="1 +"/>
                 <xsl:value-of select="key('k', 'after')"/>
               </xsl:template>"""
        )
        with pytest.raises(XPathSyntaxError):
            Noting(s).transform("<r/>")
        assert seen == ["before"]

    def test_choose_stops_at_the_first_true_when(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:choose>
                   <xsl:when test="1 = 1">ok</xsl:when>
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
                 <xsl:variable name="v" select="1 = 1"/>
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
        with pytest.raises(XPathSyntaxError, match="unsupported axis 'namespace'"):
            compile("namespace::x")
        unsupported = compile("nope()")  # parses, cannot run
        with pytest.raises(XPathEvalError, match="unknown function"):
            unsupported(Context(build_document("<r/>")))


class TestScopes:
    def test_for_each_variable_ends_with_the_iteration(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:for-each select="//i">
                   <xsl:if test="@n = 2"><xsl:value-of select="$seen"/></xsl:if>
                   <xsl:variable name="seen" select="'leak'"/>
                 </xsl:for-each>
               </xsl:template>"""
        )
        with pytest.raises(XPathEvalError, match=r"unbound variable \$seen"):
            Transformer(s).transform("<r><i n='1'/><i n='2'/></r>")

    def test_inner_binding_shadows_then_restores(self):
        s = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="v" select="'outer'"/>
                 <o>
                   <xsl:if test="1 = 1">
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
                 <xsl:variable name="mine" select="concat($n, 0)"/>
                 <xsl:if test="$n &gt; 1">
                   <xsl:call-template name="down">
                     <xsl:with-param name="n" select="$n - 1"/>
                   </xsl:call-template>
                 </xsl:if>
                 <xsl:value-of select="concat($mine, ';')"/>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>10;20;30;</o>"

    def test_a_called_template_does_not_see_its_callers_variables(self):
        """XSLT 1.0 11.5: a template sees the globals and its own
        bindings; its caller's variables are not in its scope."""
        s = sheet(
            """<xsl:template match="/">
                 <xsl:variable name="mine" select="'x'"/>
                 <xsl:call-template name="callee"/>
               </xsl:template>
               <xsl:template name="callee"><xsl:value-of select="$mine"/></xsl:template>"""
        )
        with pytest.raises(XPathEvalError, match=r"unbound variable \$mine"):
            Transformer(s).transform("<r/>")

    def test_globals_visible_in_templates_and_in_order(self):
        s = sheet(
            """<xsl:variable name="a" select="2"/>
               <xsl:variable name="b" select="$a + $a + $a"/>
               <xsl:template match="/"><o><xsl:apply-templates select="r"/></o></xsl:template>
               <xsl:template match="r"><xsl:value-of select="$a + $b"/></xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o>8</o>"


class TestRefusedAtLoad:
    """A declaration or template rule the engine does not take raises
    when the sheet is loaded: it is never ignored."""

    REFUSED = [
        ('<xsl:import href="base.xsl"/>', XsltError, "unsupported top-level instruction xsl:import"),
        ('<xsl:include href="shared.xsl"/>', XsltError, "unsupported top-level instruction xsl:include"),
        ('<xsl:preserve-space elements="pre"/>', XsltError, "unsupported top-level instruction xsl:preserve-space"),
        ('<xsl:template match="a" mode="m">x</xsl:template>', XsltError, "unsupported attribute mode= on xsl:template"),
        ('<xsl:template match="a" priority="2">x</xsl:template>', XsltError, "unsupported attribute priority= on xsl:template"),
        ('<xsl:template match="a[@k]">x</xsl:template>', PatternError, r"unsupported match pattern 'a\[@k\]'"),
        ('<xsl:template match="a | b">x</xsl:template>', PatternError, "unsupported match pattern 'a [|] b'"),
        ('<xsl:template match="r/a">x</xsl:template>', PatternError, "unsupported match pattern 'r/a'"),
        ('<xsl:template match="//a">x</xsl:template>', PatternError, "unsupported match pattern '//a'"),
        ('<xsl:template match="/r">x</xsl:template>', PatternError, "unsupported match pattern '/r'"),
        ('<xsl:template match="@k">x</xsl:template>', PatternError, "unsupported match pattern '@k'"),
        ('<xsl:template match="text()">x</xsl:template>', PatternError, r"unsupported match pattern 'text\(\)'"),
        ('<xsl:template match="UML:*">x</xsl:template>', PatternError, r"unsupported match pattern 'UML:\*'"),
        ('<xsl:key name="k" match="r/a" use="@k"/>', PatternError, "unsupported match pattern 'r/a'"),
    ]

    @pytest.mark.parametrize("declaration,error,message", REFUSED, ids=[r[0] for r in REFUSED])
    def test_raises_at_load(self, declaration, error, message):
        with pytest.raises(error, match=message):
            sheet(declaration)

    @pytest.mark.parametrize("keyword", ["extra_functions", "message_stream"])
    def test_transformer_takes_no_keyword(self, keyword):
        with pytest.raises(TypeError, match=keyword):
            Transformer(sheet(""), **{keyword: None})

    def test_from_string_takes_no_keyword(self):
        with pytest.raises(TypeError, match="base_dir"):
            Stylesheet.from_string(f'<xsl:stylesheet version="1.0" {XSL_NS}/>', base_dir=".")


#: XSLT 1.0 section 5.5 default priorities; a name pattern has 0
PRIORITY = {"*": -0.5, "/": 0.5}


def matches(key, node):
    """Whether the pattern with dispatch key *key* matches *node*, a node
    of DISPATCH_DOC."""
    if key == "/":
        return DISPATCH_DOC.kind(node) == "document"
    return DISPATCH_DOC.kind(node) == "element" and key in ("*", DISPATCH_DOC.name(node))

DISPATCH_DOC = build_document(
    "<r k='0'><a k='1'>t<b/></a><a/><b k='2'><a>u</a></b><!--c--><c><b k='3'/></c></r>"
)


class TestDispatchTable:
    @given(st.lists(st.sampled_from(["a", "b", "c", "r", "x", "*", "/"]), min_size=1, max_size=7))
    @settings(max_examples=150, deadline=None)
    def test_find_rule_is_the_best_matching_rule(self, patterns):
        """The compiled dispatch picks what the definition picks: among
        the rules whose pattern matches, the greatest (default priority,
        document order).  Every rule applies templates to the attributes
        and children of its node, the built-in rules to the children of
        the rest; the invocations, in order, are the walk the definition
        gives."""
        s = sheet(
            "".join(
                f'<xsl:template match="{pattern}"><xsl:apply-templates select="@*"/>'
                "<xsl:apply-templates/></xsl:template>"
                for pattern in patterns
            )
        )
        templates = s.compiled().templates
        invoked = []

        class Recording(Transformer):
            def _invoke(self, template, node, out, params):
                invoked.append((node, templates[int(template.__name__[1:])]))
                super()._invoke(template, node, out, params)

        def walk(node):
            matching = [
                (PRIORITY.get(rule.pattern.key, 0.0), order, rule)
                for order, rule in enumerate(s.rules)
                if matches(rule.pattern.key, node)
            ]
            if matching:
                expected.append((node, max(matching, key=lambda m: m[:2])[2]))
                for attr in DISPATCH_DOC.attributes(node):
                    walk(attr)
            if matching or DISPATCH_DOC.kind(node) in ("document", "element"):
                for child in DISPATCH_DOC.children(node):
                    walk(child)

        expected = []
        walk(0)
        Recording(s).transform(DISPATCH_DOC)
        assert [node for node, _ in invoked] == [node for node, _ in expected]
        assert all(got is want for (_, got), (_, want) in zip(invoked, expected))


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
            """<xsl:strip-space elements="r x y"/>
               <xsl:template match="/">
                 <xsl:for-each select="//*">
                   <xsl:value-of select="concat(generate-id(), '=', name(), '[', ., '] ')"/>
                   <xsl:for-each select="@*">
                     <xsl:value-of select="concat(generate-id(), '=', name(), '[', ., '] ')"/>
                   </xsl:for-each>
                 </xsl:for-each>
               </xsl:template>"""
        )
        source = "<r a='1'>\n <x> </x><keep> <y b='2'>\t</y> </keep> t <!--c-->\n</r>"
        from_text = Transformer(s).transform(source)
        assert from_text == Transformer(s).transform(build_document(source))
        # ids 3, 5 and 10 belong to the stripped whitespace-only texts,
        # 7, 11 and 12 to the texts that stay
        assert from_text == (
            "id1=r[   t \n] id2=a[1] id4=x[] id6=keep[  ] id8=y[] id9=b[2] "
        )

    def test_key_tables_and_name_index_die_with_the_document(self):
        s = sheet(
            """<xsl:key name="by-a" match="e" use="@a"/>
               <xsl:template match="/">
                 <xsl:for-each select="key('by-a', '1')">k</xsl:for-each>
                 <xsl:for-each select="//e">e</xsl:for-each>
               </xsl:template>"""
        )
        t = Transformer(s)
        assert t.transform("<r><e a='1'/><e a='1'/><e a='2'/></r>") == "kkeee"
        assert t.transform("<r><e a='1'/></r>") == "ke"
        assert t.transform("<r/>") == ""


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
            programs.append(s.compiled())

        threads = [threading.Thread(target=lower) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(programs) == 2 and programs[0] is programs[1]
        assert s.compiled() is programs[0]

    def test_two_threads_first_transforming_at_once_share_one_module(self, monkeypatch):
        """The first use compiles under the sheet's lock: two threads
        that first transform at the same moment compile once."""
        s = sheet('<xsl:template match="/"><o><xsl:value-of select="name(/*)"/></o></xsl:template>')
        compiles = []
        program = _Compiler.program

        def slow_program(compiler):
            compiles.append(compiler)
            time.sleep(0.05)  # both threads are in compiled() by now
            return program(compiler)

        monkeypatch.setattr(_Compiler, "program", slow_program)
        barrier = threading.Barrier(2)
        outputs = []

        def transform():
            barrier.wait(timeout=10)
            outputs.append(Transformer(s).transform("<r/>"))

        threads = [threading.Thread(target=transform) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert outputs == ["<o>r</o>"] * 2 and len(compiles) == 1

    def test_compiling_a_sheet_twice_writes_the_same_source(self):
        text = (STYLESHEETS / "xmi2cnx.xsl").read_text()
        first, second = Stylesheet.from_string(text), Stylesheet.from_string(text)
        assert first.compiled() is not second.compiled()
        assert first.compiled().source == second.compiled().source
        assert _Compiler(first).program().source == first.compiled().source

    def test_compiled_expression_is_shared_and_context_free(self):
        source = "concat((//x[@k = $want])[2]/@n, '|', $want)"
        fn = compile(source)
        assert compile(source) is fn
        doc = build_document("<r><x k='1' n='a'/><x k='2' n='b'/><x k='1' n='c'/></r>")
        assert fn(Context(doc, {"want": "1"})) == "c|1"
        assert fn(Context(doc, {"want": "2"})) == "|2"
        assert evaluate(source, Context(doc, {"want": "3"})) == "|3"


SHAPES_DOC = build_document(
    "<r><a k='x'>x</a><a k='y'>y</a><b>1</b><c/></r>"
)


class TestSpecialisedShapes:
    """The compiler specialises some shapes; each answers what the
    general path it stands in for answers, and raises where it raises."""

    @pytest.mark.parametrize("arity", range(5))
    def test_a_call_passes_each_arity_as_written(self, arity):
        args = "".join(f", '{i}'" for i in range(arity))
        ctx = Context(SHAPES_DOC)
        assert evaluate(f"concat('<', '>'{args})", ctx) == "<>" + "".join(map(str, range(arity)))
        assert evaluate(f"concat(//a[1]{args}, //b)", ctx) == "x" + "".join(map(str, range(arity))) + "1"

    @pytest.mark.parametrize("arity", range(5))
    def test_unknown_function_and_bad_arity_raise_only_when_reached(self, arity):
        args = ", ".join(["1"] * arity)
        wrong = "concat" if arity < 2 else "not"  # takes two or more / exactly one
        for call, message in (
            (f"nope({args})", r"unknown function nope\(\)"),
            (f"{wrong}({args})", rf"^{wrong}\(\) takes"),
        ):
            assert evaluate(f"1 = 1 or {call}", Context(SHAPES_DOC)) is True
            with pytest.raises(XPathEvalError, match=message):
                evaluate(f"1 = 2 or {call}", Context(SHAPES_DOC))

    @pytest.mark.parametrize(
        "operand", ["//a", "//a/@k", "//c", "//nothing", "'x'", "1", "(1 = 1)", "$rtf", "$n"]
    )
    @pytest.mark.parametrize("literal", ["x", "y", "1", "", "true"])
    def test_equals_a_string_literal_is_the_general_comparison(self, operand, literal):
        ctx = Context(SHAPES_DOC, variables={"n": 1.0, "rtf": ResultTreeFragment(["x"])})
        general = evaluate(f"{operand} = concat('{literal}', '')", ctx)
        assert evaluate(f"{operand} = '{literal}'", ctx) is general
        assert evaluate(f"'{literal}' = {operand}", ctx) is general

    def test_key_of_one_node_or_a_literal_name_is_the_general_lookup(self):
        s = sheet(
            """<xsl:key name="by-k" match="a" use="@k"/>
               <xsl:template match="/">
                 <xsl:variable name="one" select="(//a)[2]/@k"/>
                 <xsl:variable name="both" select="//a/@k"/>
                 <xsl:for-each select="key('by-k', $one)"><xsl:value-of select="."/></xsl:for-each>
                 <xsl:for-each select="key(//n, 'x')"><xsl:value-of select="."/></xsl:for-each>,<xsl:for-each
                   select="key(concat('by-k', ''), concat($one, ''))"><xsl:value-of select="."/></xsl:for-each>,<xsl:for-each
                   select="key('by-k', $both)"><xsl:value-of select="."/></xsl:for-each>
               </xsl:template>"""
        )
        source = "<r><n>by-k</n><a k='x'>1</a><a k='y'>2</a></r>"
        assert Transformer(s).transform(source) == "21,2,12"

    def test_unknown_key_name_raises_only_when_reached(self):
        s = sheet(
            """<xsl:template match="/">
                 <o><xsl:if test="//go"><xsl:value-of select="name(key('nope', 'x'))"/></xsl:if></o>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r/>") == "<o/>"
        with pytest.raises(XsltError, match="no xsl:key named 'nope'"):
            Transformer(s).transform("<r><go/></r>")

    def test_a_node_is_listed_once_under_a_value_its_use_yields_twice(self):
        s = sheet(
            """<xsl:key name="k" match="item" use="tag"/>
               <xsl:template match="/">
                 <xsl:for-each select="key('k', 'a')">i</xsl:for-each>
               </xsl:template>"""
        )
        source = "<r><item><tag>a</tag><tag>a</tag></item><item><tag>a</tag></item></r>"
        assert Transformer(s).transform(source) == "ii"

    def test_text_only_bodies_build_what_an_output_builder_builds(self):
        """An attribute or variable body that the compiler proves writes only
        text is built as a list of strings; ``xsl:call-template`` is not on
        the proof's list, so the second copy of each body takes the general
        builder, and both give the same value."""
        text_only = """<xsl:for-each select="//i"><xsl:choose>
              <xsl:when test=". = 'p'"><xsl:value-of select="."/></xsl:when>
              <xsl:otherwise><xsl:text>-</xsl:text><xsl:if test="1 = 1">q</xsl:if></xsl:otherwise>
            </xsl:choose></xsl:for-each>"""
        general = '<xsl:call-template name="nothing"/>' + text_only
        s = sheet(
            f"""<xsl:template name="nothing"/>
               <xsl:template match="/">
                 <xsl:variable name="text">{text_only}</xsl:variable>
                 <xsl:variable name="built">{general}</xsl:variable>
                 <o><xsl:attribute name="a">{text_only}</xsl:attribute>
                   <xsl:attribute name="b">{general}</xsl:attribute>
                   <xsl:value-of select="$text"/>|<xsl:value-of select="$built"/>|<xsl:value-of
                     select="concat(not($text), string-length($built), $text = $built)"/>
                 </o>
               </xsl:template>"""
        )
        assert Transformer(s).transform("<r><i>p</i><i>x</i></r>") == (
            '<o a="p-q" b="p-q">p-q|p-q|false3true</o>'
        )
        for body, proved in ((text_only, True), (general, False), ("<e/>", False)):
            wrapper = ET.fromstring(f"<xsl:attribute {XSL_NS}>{body}</xsl:attribute>")
            assert _Compiler.writes_text_only(_body_items(wrapper)) is proved
