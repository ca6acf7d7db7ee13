"""The execution seam of the CN runtime: where a task attempt runs.

The public surface:

* :class:`InProcTransport` / :class:`InlineExecutor` -- the default:
  attempts run in the coordinator process (:mod:`.inproc`);
* :class:`ProcTransport` / :class:`ProcExecutor` -- the overrides: real
  multiprocessing workers over a length-prefixed pickle-protocol-5
  frame codec (:mod:`.proc`, :mod:`.codec`);
* selection is ``Cluster(transport="inproc" | "proc")``;
* :func:`fetch_blob` / :func:`register_blob_resolver` /
  :func:`register_fork_reset` -- the hooks application-layer modules use
  to stay worker-compatible without the transport importing them.
"""

from .codec import SocketEndpoint, loopback_pair, pack_frame, unpack_frame
from .inproc import InlineExecutor, InProcTransport
from .proc import ProcExecutor, ProcTransport, register_blob_resolver
from .worker import fetch_blob, register_fork_reset

__all__ = [
    "SocketEndpoint",
    "loopback_pair",
    "pack_frame",
    "unpack_frame",
    "InlineExecutor",
    "InProcTransport",
    "ProcExecutor",
    "ProcTransport",
    "register_blob_resolver",
    "fetch_blob",
    "register_fork_reset",
]
