"""The execution seam of the CN runtime: where a task attempt runs.

The public surface:

* :class:`InProcTransport` -- the default: attempts run in the
  coordinator process (:mod:`.inproc`);
* :class:`ProcTransport` -- the override: real multiprocessing workers
  over a length-prefixed pickle-protocol-5 frame codec (:mod:`.proc`,
  :mod:`.codec`);
* selection is ``Cluster(transport="inproc" | "proc")``;
* :func:`fetch_blob` / :func:`register_blob_resolver` /
  :func:`register_fork_reset` -- the hooks application-layer modules use
  to stay worker-compatible without the transport importing them.
"""

from .inproc import InProcTransport
from .proc import ProcTransport, register_blob_resolver
from .worker import fetch_blob, register_fork_reset

__all__ = [
    "InProcTransport",
    "ProcTransport",
    "register_blob_resolver",
    "fetch_blob",
    "register_fork_reset",
]
