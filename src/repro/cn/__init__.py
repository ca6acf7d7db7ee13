"""Computational Neighborhood (CN) runtime: a simulated cluster with the
paper's architecture -- CNServer servants (JobManager + TaskManager),
multicast discovery, per-task message queues, task archives, tuple
spaces, and the client-side CN API facade.

The package exports what the examples, the apps, the benchmarks and the
generated client import; every other name is imported from the module
that defines it (``repro.cn.durability``, ``repro.cn.errors``, ...).
"""

from .api import CNAPI
from .chaos import ChaosPolicy, VirtualClock
from .cluster import Cluster
from .config import ClusterConfig
from .durability import JournalRecord, replay_job
from .errors import CnError, JobError, TaskFailedError
from .job import Job, TaskSpec
from .messages import MessageType
from .registry import TaskRegistry
from .runmodel import RunModel
from .task import Task
from .trace import collect_trace, render_timeline

__all__ = [
    "CNAPI",
    "Cluster",
    "ClusterConfig",
    "TaskRegistry",
    "Task",
    "TaskSpec",
    "Job",
    "MessageType",
    "RunModel",
    "collect_trace",
    "render_timeline",
    "CnError",
    "JobError",
    "TaskFailedError",
    "ChaosPolicy",
    "VirtualClock",
    "JournalRecord",
    "replay_job",
]
