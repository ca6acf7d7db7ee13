"""Engine micro-benchmarks: the source document, XPath parse/eval and
the //Name fast path.

The XSLT engine is the substrate every transform pays for; these
micro-benchmarks pin its cost profile: building the flat source
document from text, expression parsing (memoized), the bisected
descendant query, predicate filtering, and template dispatch by name,
on a synthetic document sized like a 100-task XMI export.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

import pytest

from repro.xslt import Stylesheet, Transformer
from repro.xslt.xpath import Context, build_document, evaluate
from repro.xslt.xpath.parser import parse

N_ITEMS = 500


@pytest.fixture(scope="module")
def catalog():
    root = ET.Element("catalog")
    for i in range(N_ITEMS):
        group = ET.SubElement(root, "group", {"gid": f"g{i % 10}"})
        for j in range(4):
            ET.SubElement(
                group, "item", {"id": f"i{i}-{j}", "rank": str((i * 7 + j) % 100)}
            )
    return root


@pytest.fixture(scope="module")
def document(catalog):
    return build_document(catalog)


def test_bench_build_from_text(benchmark, catalog):
    """One expat pass appends a row per element and two list entries
    per attribute: the path every transform of XMI text takes."""
    text = ET.tostring(catalog, encoding="unicode")
    doc = benchmark(build_document, text)
    assert len(doc.kinds) == 1 + 1 + N_ITEMS * 5
    assert len(doc.attr_names) == N_ITEMS * 9


@pytest.fixture(scope="module")
def ctx(document):
    return Context(document)


def test_bench_parse_cold(benchmark):
    expressions = [
        f"//item[@rank > {i}]/../item[not(@id)][1]" for i in range(200)
    ]

    def parse_all():
        parse.cache_clear()
        for expr in expressions:
            parse(expr)

    benchmark.pedantic(parse_all, rounds=3, iterations=1)


def test_bench_parse_memoized(benchmark):
    parse("//item[@rank > 50]")  # warm

    def reparse():
        return parse("//item[@rank > 50]")

    benchmark(reparse)


def test_bench_indexed_descendant_query(benchmark, ctx):
    """//item is a bisect of the per-document name index."""
    result = benchmark(evaluate, "//item", ctx)
    assert len(result) == N_ITEMS * 4


def test_bench_predicate_fast_path(benchmark, ctx):
    """[@id = 'literal'] compares each candidate's attribute with the
    string, through the ``X = 'literal'`` lowering."""
    result = benchmark(evaluate, "//item[@id = 'i250-2']", ctx)
    assert len(result) == 1


def test_bench_numeric_predicate(benchmark, ctx):
    """numeric comparison predicates take the generic evaluation path."""
    result = benchmark.pedantic(
        evaluate, args=("//item[@rank > 90]", ctx), rounds=5, iterations=1
    )
    assert len(result) > 0


def test_bench_template_dispatch(benchmark, document):
    """Template dispatch: each element's rule by its name, and ``*`` for
    the names no rule has."""
    sheet = Stylesheet.from_string(
        """<xsl:stylesheet version="1.0"
             xmlns:xsl="http://www.w3.org/1999/XSL/Transform">
        <xsl:output method="text"/>
        <xsl:template match="/"><xsl:apply-templates select="//group"/></xsl:template>
        <xsl:template match="group">A<xsl:apply-templates/></xsl:template>
        <xsl:template match="*">B</xsl:template>
        </xsl:stylesheet>"""
    )

    def run():
        return Transformer(sheet).transform_to_tree(document)

    top = benchmark.pedantic(run, rounds=3, iterations=1)
    text = "".join(t for t in top if isinstance(t, str))
    assert text.count("A") == N_ITEMS
    assert text.count("B") == N_ITEMS * 4
