"""The model-driven transformation chain (paper section 5): XMI2CNX,
CNX2Py/CNX2Java, and the Fig. 6 pipeline."""

from .cnx2code import GeneratedClient, cnx_to_java, cnx_to_python
from .pipeline import Pipeline, PipelineResult, run_pipeline
from .xmi2cnx import (
    STYLESHEET_DIR,
    graph_to_cnx,
    load_stylesheet,
    model_to_cnx,
    xmi_to_cnx,
    xmi_to_cnx_native,
    xmi_to_cnx_text,
)

__all__ = [
    "Pipeline",
    "PipelineResult",
    "run_pipeline",
    "GeneratedClient",
    "cnx_to_python",
    "cnx_to_java",
    "xmi_to_cnx",
    "xmi_to_cnx_text",
    "xmi_to_cnx_native",
    "graph_to_cnx",
    "model_to_cnx",
    "load_stylesheet",
    "STYLESHEET_DIR",
]
