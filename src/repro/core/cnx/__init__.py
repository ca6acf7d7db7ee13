"""CNX: the CN compositional language (paper Fig. 2) -- model, parser,
emitter, validator."""

from .emitter import emit
from .parser import parse
from .schema import DEFAULT_PORT, CnxJob, CnxParam, CnxTask, CnxTaskReq
from .validate import validate

__all__ = [
    "CnxJob",
    "CnxTask",
    "CnxTaskReq",
    "CnxParam",
    "DEFAULT_PORT",
    "emit",
    "parse",
    "validate",
]
