"""Match-pattern tests: the three shapes the engine takes (``/``, one
element name, ``*``), what a rule with each applies to, and the refusal
of every other expression."""

import pytest

from repro.xslt import Stylesheet, Transformer
from repro.xslt.patterns import PatternError, compile_pattern
from repro.xslt.xpath import Context, build_document, evaluate

DOC = """
<cn2>
  <client class="C">
    <job>
      <task name="t0"><param type="String">x</param></task>
      <task name="t1"><param type="Integer">1</param><param type="Integer">2</param></task>
    </job>
  </client>
</cn2>
"""


@pytest.fixture(scope="module")
def doc():
    return build_document(DOC)


def node(doc, expr):
    return evaluate(expr, Context(doc))[0]


def match(pattern, doc, target):
    """Whether a sheet whose one rule has *pattern* applies it to
    *target*, a node of *doc*: the rule applies templates to the
    attributes and children of what it matches, the built-in rules to
    the children of the rest, and every invocation goes through
    :meth:`Transformer._invoke`."""
    sheet = Stylesheet.from_string(
        '<xsl:stylesheet version="1.0" xmlns:xsl="http://www.w3.org/1999/XSL/Transform">'
        f'<xsl:template match="{pattern}"><xsl:apply-templates select="@*"/>'
        "<xsl:apply-templates/></xsl:template></xsl:stylesheet>"
    )
    matched = []

    class Recording(Transformer):
        def _invoke(self, template, node, out, params):
            matched.append(node)
            super()._invoke(template, node, out, params)

    Recording(sheet).transform(doc)
    return target in matched


class TestMatching:
    def test_name_pattern(self, doc):
        assert match("task", doc, node(doc, "//task"))
        assert not match("task", doc, node(doc, "//param"))
        prefixed = build_document("<UML.ActionState/>", restore_prefixes=True)
        assert match("UML:ActionState", prefixed, prefixed.children(0)[0])
        assert compile_pattern("UML:ActionState").key == "UML:ActionState"

    def test_root_pattern(self, doc):
        assert match("/", doc, 0)
        assert not match("/", doc, node(doc, "/cn2"))

    def test_wildcard(self, doc):
        assert match("*", doc, node(doc, "//task"))
        assert not match("*", doc, 0)
        assert not match("*", doc, node(doc, "//task/@name"))


class TestSubsetEnforcement:
    @pytest.mark.parametrize(
        "bad", ["1 + 1", "count(x)", "$var", "ancestor::a", "self::a", "node()"]
    )
    def test_rejects_non_patterns(self, bad):
        with pytest.raises(PatternError):
            compile_pattern(bad)
