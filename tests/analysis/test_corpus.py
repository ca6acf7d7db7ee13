"""The seeded-defect corpus: every broken composition in
``tests/data/defects/`` must be caught with its expected code, and the
clean app descriptors must come back with zero errors."""

from pathlib import Path

import pytest

from repro.analysis import AnalysisContext, ClusterSpec
from repro.analysis.diagnostics import Severity
from repro.analysis.passes import analyze_source

DATA = Path(__file__).parent.parent / "data"
DEFECTS = DATA / "defects"

# file -> codes that MUST be among the findings (placement files are
# checked against a deliberately tiny cluster)
EXPECTED = {
    "cycle.cnx": {"CN104"},
    "orphan.cnx": {"CN105"},
    "dangling_depends.cnx": {"CN102"},
    "duplicate_id.cnx": {"CN101"},
    "bad_tagged_value.cnx": {"CN206", "CN209"},
    "missing_class.xmi": {"CN202"},
    "oversubscribed.cnx": {"CN601", "CN602", "CN603"},
    "deadlock.cnx": {"CN504"},
    "unmatched_receive.cnx": {"CN501", "CN502", "CN503"},
    "fig2_erratum.cnx": {"CN103"},
    "bad_multiplicity.cnx": {"CN303", "CN304", "CN305"},
}

TINY_CLUSTER = AnalysisContext(
    cluster=ClusterSpec(nodes=1, memory_per_node=1000, slots_per_node=2)
)


def context_for(name: str) -> AnalysisContext:
    return TINY_CLUSTER if name == "oversubscribed.cnx" else AnalysisContext()


class TestSeededDefects:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_defect_detected_with_expected_code(self, name):
        report = analyze_source(
            (DEFECTS / name).read_text(), context_for(name)
        )
        assert EXPECTED[name] <= report.codes(), report.render(title=name)
        assert not report.ok  # every corpus file has error-severity findings

    def test_corpus_is_complete(self):
        """Every corpus file is covered by EXPECTED and vice versa."""
        on_disk = {p.name for p in DEFECTS.iterdir() if p.suffix in (".cnx", ".xmi")}
        assert on_disk == set(EXPECTED)
        assert len(on_disk) >= 8  # acceptance floor

    def test_diagnostics_carry_location_and_hint(self):
        report = analyze_source((DEFECTS / "fig2_erratum.cnx").read_text())
        (finding,) = report.by_code("CN103")
        assert finding.severity is Severity.ERROR
        assert "tctask1" in finding.location.path
        assert finding.location.source == "cnx"
        assert 'depends="tctask0"' in finding.hint  # the Fig. 2 correction


class TestFig2Erratum:
    """The dedicated regression pair for the paper's Fig. 2 listing."""

    def test_literal_paper_descriptor_is_flagged(self):
        report = analyze_source((DEFECTS / "fig2_erratum.cnx").read_text())
        assert report.by_code("CN103")
        assert any(
            "task 'tctask1' depends on itself" in d.message for d in report
        )

    def test_corrected_descriptor_is_clean(self):
        report = analyze_source((DATA / "fig2_descriptor.cnx").read_text())
        assert report.ok and not report.warnings(), report.render()


class TestCleanDescriptors:
    @pytest.mark.parametrize(
        "name", ["fig2_descriptor.cnx", "fig3_model.xmi"]
    )
    def test_checked_in_documents_clean(self, name):
        report = analyze_source((DATA / name).read_text())
        assert report.ok, report.render(title=name)
