"""FIG1 -- paper Fig. 1: "CN framework components".

The figure lists seven components.  This bench regenerates the component
table by locating each one in the code base, asserting it is importable
and functional (one probe per component), and timing a full
instantiate-everything cycle.
"""

from __future__ import annotations

import pytest


COMPONENTS = [
    (
        "CN Server",
        "CN Servers run on the various nodes of the cluster.",
        "repro.cn.server.CNServer",
    ),
    (
        "CN API",
        "Client programs use the CN API to execute and exploit the various "
        "resources of the cluster.",
        "repro.cn.api.CNAPI",
    ),
    (
        "CN Intelligent Object Editor",
        "The user could specify the details required to generate the Client "
        "program using this graphical use interface.",
        "repro.core.uml.builder.ActivityBuilder",
    ),
    (
        "CNX (XML)",
        "A compositional language that captures the details of the client "
        "program.",
        "repro.core.cnx.schema.CnxDocument",
    ),
    (
        "CNX2Java",
        "An XSLT that translates CNX to compilable JAVA code.",
        "repro.core.transform.cnx2code.cnx_to_java",
    ),
    (
        "XMI2CNX",
        "An XSLT that translates UML model in XMI format to CNX.",
        "repro.core.transform.xmi2cnx.xmi_to_cnx",
    ),
    (
        "Prototype",
        "Web interface to the CN cluster that accepts UML model in XMI "
        "format, translates, executes, makes results available.",
        "repro.cn.portal.Portal",
    ),
]


def _resolve(dotted: str):
    module_name, _, attr = dotted.rpartition(".")
    module = __import__(module_name, fromlist=[attr])
    return getattr(module, attr)


class TestFig1Inventory:
    @pytest.mark.parametrize("name,desc,dotted", COMPONENTS, ids=[c[0] for c in COMPONENTS])
    def test_component_exists(self, name, desc, dotted):
        assert _resolve(dotted) is not None

    def test_component_table(self, report):
        report.line("FIG1 -- CN framework components (paper Fig. 1)")
        report.line()
        report.table(
            ["component", "implementation"],
            [[name, dotted] for name, _, dotted in COMPONENTS],
        )

    def test_components_interoperate(self):
        """One probe wiring all seven: editor -> XMI -> XMI2CNX -> CNX ->
        CNX2Java + portal submission over a CN server cluster via CN API."""
        from repro.apps.montecarlo import build_pi_model, pi_registry
        from repro.cn.cluster import Cluster
        from repro.cn.portal import Portal
        from repro.core.transform.cnx2code import cnx_to_java
        from repro.core.transform.xmi2cnx import xmi_to_cnx
        from repro.core.xmi import write_graph

        graph = build_pi_model(samples=4000, seed=1, n_workers=2)  # editor
        xmi = write_graph(graph)
        doc = xmi_to_cnx(xmi)  # XMI2CNX (XSLT)
        java = cnx_to_java(doc)  # CNX2Java
        assert "public class MonteCarloPi" in java
        portal = Portal(Cluster(2, registry=pi_registry()))
        try:
            submission = portal.submit(xmi)  # prototype + CN API + CN servers
            assert submission.status == "done"
        finally:
            portal.close()


def test_bench_component_assembly(benchmark):
    """Time bringing up the full component stack (cluster + API + portal)."""
    from repro.apps.montecarlo import pi_registry
    from repro.cn.api import CNAPI
    from repro.cn.cluster import Cluster

    def assemble():
        cluster = Cluster(4, registry=pi_registry())
        api = CNAPI.initialize(cluster)
        cluster.shutdown()
        return api

    benchmark(assemble)
