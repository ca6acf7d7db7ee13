"""The model-driven transformation chain (paper section 5): XMI2CNX,
CNX2Py/CNX2Java, and the Fig. 6 pipeline."""

from .pipeline import Pipeline, PipelineResult
from .xmi2cnx import STYLESHEET_DIR, load_stylesheet, xmi_to_cnx_native

__all__ = [
    "Pipeline",
    "PipelineResult",
    "xmi_to_cnx_native",
    "load_stylesheet",
    "STYLESHEET_DIR",
]
