"""CNX: the CN compositional language (paper Fig. 2) -- model, parser,
emitter, validator."""

from .emitter import emit
from .parser import CnxParseError, parse, parse_element
from .schema import (
    DEFAULT_MEMORY,
    DEFAULT_PORT,
    DEFAULT_RUNMODEL,
    CnxClient,
    CnxDocument,
    CnxJob,
    CnxParam,
    CnxTask,
    CnxTaskReq,
)
from .validate import CnxValidationError, validate

__all__ = [
    "CnxDocument",
    "CnxClient",
    "CnxJob",
    "CnxTask",
    "CnxTaskReq",
    "CnxParam",
    "DEFAULT_MEMORY",
    "DEFAULT_PORT",
    "DEFAULT_RUNMODEL",
    "emit",
    "parse",
    "parse_element",
    "CnxParseError",
    "validate",
    "CnxValidationError",
]
