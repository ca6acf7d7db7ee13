"""Computational Neighborhood (CN) runtime: a simulated cluster with the
paper's architecture -- CNServer servants (JobManager + TaskManager),
multicast discovery, per-task message queues, task archives, tuple
spaces, and the client-side CN API facade."""

from .api import CNAPI, JobHandle
from .archive import TaskArchive, create_archive, load_archive
from .chaos import (
    ChaosPolicy,
    ExponentialBackoff,
    FaultRecord,
    InjectedFault,
    VirtualClock,
)
from .client import evaluate_arguments, expand_dynamic_tasks
from .cluster import Cluster
from .config import ClusterConfig
from .durability import (
    DirectoryEntry,
    FileJournal,
    JobDirectory,
    JobSnapshot,
    JournalRecord,
    MemoryJournal,
    ReplicatedJournal,
    journal_factory_for_dir,
    replay_job,
)
from .admission import AdmissionController, AdmissionDecision, TokenBucket
from .errors import (
    ArchiveError,
    BudgetExhausted,
    CnError,
    CnxValidationError,
    ConfigError,
    FrameCorrupt,
    FrameTruncated,
    JobError,
    JobTimeoutError,
    JournalError,
    MessageTimeout,
    NoWillingJobManager,
    NoWillingTaskManager,
    Overloaded,
    RemoteTaskError,
    ShutdownError,
    TaskFailedError,
    TaskLoadError,
    TransportError,
    UnknownTaskError,
    WorkerLost,
)
from .job import Job, TaskRuntime, TaskSpec, TaskState
from .jobmanager import FailureDetector, JobManager
from .messages import Message, MessageType, expected_response, is_well_defined
from .multicast import MulticastBus, Solicitation
from .queues import MessageQueue
from .registry import TaskRegistry
from .runmodel import RunModel
from .scheduler import Bid, PlacementRule, award_bids
from .server import CNServer
from .task import FunctionTask, Task, TaskContext
from .telemetry import (
    CriticalPath,
    MetricsRegistry,
    Span,
    SpanRecorder,
    Telemetry,
    chrome_trace,
    critical_path,
    orphan_spans,
    prometheus_text,
)
from .trace import JobTrace, TaskTrace, TraceEvent, collect_trace, render_timeline
from .taskmanager import TaskManager
from .tuplespace import TupleSpace, matches

__all__ = [
    "CNAPI",
    "JobHandle",
    "Cluster",
    "ClusterConfig",
    "CNServer",
    "JobManager",
    "TaskManager",
    "TaskRegistry",
    "TaskArchive",
    "create_archive",
    "load_archive",
    "Task",
    "TaskContext",
    "FunctionTask",
    "JobTrace",
    "TaskTrace",
    "TraceEvent",
    "collect_trace",
    "render_timeline",
    "TaskSpec",
    "TaskState",
    "TaskRuntime",
    "Job",
    "Message",
    "MessageType",
    "is_well_defined",
    "expected_response",
    "MessageQueue",
    "MulticastBus",
    "Solicitation",
    "PlacementRule",
    "Bid",
    "award_bids",
    "TupleSpace",
    "matches",
    "RunModel",
    "expand_dynamic_tasks",
    "evaluate_arguments",
    "CnError",
    "CnxValidationError",
    "ArchiveError",
    "TaskLoadError",
    "NoWillingJobManager",
    "NoWillingTaskManager",
    "JobError",
    "JobTimeoutError",
    "TaskFailedError",
    "UnknownTaskError",
    "MessageTimeout",
    "ShutdownError",
    "Overloaded",
    "BudgetExhausted",
    "ConfigError",
    "TransportError",
    "FrameCorrupt",
    "FrameTruncated",
    "WorkerLost",
    "RemoteTaskError",
    "AdmissionController",
    "AdmissionDecision",
    "TokenBucket",
    "ChaosPolicy",
    "ExponentialBackoff",
    "FaultRecord",
    "InjectedFault",
    "VirtualClock",
    "FailureDetector",
    "JournalRecord",
    "JournalError",
    "MemoryJournal",
    "FileJournal",
    "ReplicatedJournal",
    "JobDirectory",
    "DirectoryEntry",
    "JobSnapshot",
    "replay_job",
    "journal_factory_for_dir",
    "Telemetry",
    "MetricsRegistry",
    "SpanRecorder",
    "Span",
    "CriticalPath",
    "critical_path",
    "chrome_trace",
    "prometheus_text",
    "orphan_spans",
]
