"""Pluggable execution backends for the CN runtime.

The public surface:

* :class:`Transport` / :class:`Endpoint` / :class:`TaskExecutor` -- the
  backend interface (:mod:`.base`);
* :class:`InProcTransport` -- the default single-process backend,
  byte-for-byte the seed semantics (:mod:`.inproc`);
* :class:`ProcTransport` -- real multiprocessing workers over a
  length-prefixed pickle-protocol-5 frame codec (:mod:`.proc`);
* selection is ``Cluster(transport="inproc" | "proc" | <instance>)``;
* :func:`fetch_blob` / :func:`register_blob_resolver` /
  :func:`register_fork_reset` -- the hooks application-layer modules use
  to stay worker-compatible without the transport importing them.
"""

from .base import Endpoint, TaskExecutor, Transport
from .codec import SocketEndpoint, loopback_pair, pack_frame, unpack_frame
from .inproc import InlineExecutor, InProcTransport
from .proc import ProcExecutor, ProcTransport, register_blob_resolver
from .worker import fetch_blob, in_worker, register_fork_reset

__all__ = [
    "Endpoint",
    "TaskExecutor",
    "Transport",
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
    "in_worker",
    "register_fork_reset",
]
