"""Durable job state: write-ahead journal, replication, and replay.

PR 2 made *worker* nodes expendable; this module makes the coordinating
JobManager expendable too.  Every job mutation -- submission (with the
CNX descriptor), task specs, placements, delivery-ledger entries, state
transitions, checkpoints -- is appended to a write-ahead **job journal**
before (or atomically with) taking effect, and each append -- a *batch*
of one or more records -- is replicated to every peer CNServer as one
event on the existing multicast bus (topic ``journal``) carrying the
frozen records themselves.  When the failure detector declares a manager
node dead, a deterministic successor replays its replica of the journal
into a fresh :class:`~repro.cn.job.Job` and adopts the in-flight work
(see :meth:`JobManager.adopt_job`).

Fencing: each job carries a *manager epoch*, bumped by the adoption
record.  Journal backends keep a per-job high-water mark and reject any
record stamped with an older epoch, so a zombie manager (its node
declared dead but its threads still running) cannot corrupt the log the
successor now owns.  This extends the per-task attempt-epoch fence of
PR 2 one level up.

A checkpoint is the one record that is state rather than history: a
replica keeps each task's latest beside the log and lets go of the one
it supersedes (see :class:`MemoryJournal`); a journal *file* stays a
full log.

Backends are pluggable: :class:`MemoryJournal` keeps records in-process
(tests, default), :class:`FileJournal` persists JSONL to disk (payloads
that are not JSON-serializable -- numpy blocks, :class:`TaskSpec`,
:class:`Message` -- ride in a pickle/base64 envelope).

:func:`replay_job` is a *pure* function from a record sequence to a
:class:`JobSnapshot`; determinism of recovery reduces to determinism of
this function, which the property tests exercise directly.
"""

from __future__ import annotations

import base64
import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from ..analysis.conc.runtime import make_lock
from .errors import JournalError
from .job import TaskSpec, TaskState
from .messages import Message

__all__ = [
    "JournalRecord",
    "MemoryJournal",
    "FileJournal",
    "ReplicatedJournal",
    "JobDirectory",
    "DirectoryEntry",
    "JobSnapshot",
    "replay_job",
    "journal_factory_for_dir",
    "RECORD_KINDS",
]

#: every record kind the journal understands, in no particular order
RECORD_KINDS = (
    "job-created",   # client, manager, descriptor?   -- job submission
    "job-adopted",   # manager, previous              -- failover fence
    "task-spec",     # spec (TaskSpec)                -- roster entry
    "task-placed",   # task, node, epoch              -- placement
    "task-state",    # task, state, attempts, result?, error?
    "delivery",      # messages (list[Message])       -- one fan-out's ledger entries
    "ledger-gc",     # task, upto                     -- ledger truncation
    "shed",          # task, serial                   -- backpressure eviction
    "dead-letter",   # task, serial, digests          -- poison quarantine
    "checkpoint",    # task, tag, state               -- latest state per task
    "job-finished",  # failed (bool)
)


@dataclass(frozen=True)
class JournalRecord:
    """One append-only journal entry.

    ``seq`` orders records from one origin; ``mepoch`` is the manager
    epoch the writer believed it held -- the fencing token.  ``data`` is
    kind-specific (see :data:`RECORD_KINDS`).
    """

    seq: int
    job_id: str
    kind: str
    mepoch: int
    origin: str
    data: dict = field(default_factory=dict)

    def to_payload(self) -> dict:
        """The :class:`FileJournal` line format (replication shares the
        frozen record itself; nothing is encoded for the bus)."""
        return {
            "seq": self.seq,
            "job_id": self.job_id,
            "kind": self.kind,
            "mepoch": self.mepoch,
            "origin": self.origin,
            "data": self.data,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "JournalRecord":
        return cls(
            seq=payload["seq"],
            job_id=payload["job_id"],
            kind=payload["kind"],
            mepoch=payload["mepoch"],
            origin=payload["origin"],
            data=payload.get("data") or {},
        )


#: one retained checkpoint: how many records the log and its job's bucket
#: held when it arrived, and the record
_Retained = tuple[int, int, JournalRecord]


def _interleave(
    log: Sequence[JournalRecord],
    retained: Iterable[_Retained],
    at: int,
    base: int = 0,
) -> list[JournalRecord]:
    """*log* with each retained checkpoint back where it arrived: after
    the ``entry[at] - base`` log records that preceded it (*retained* is
    in arrival order)."""
    out: list[JournalRecord] = []
    start = 0
    for entry in retained:
        stop = entry[at] - base
        out += log[start:stop]
        out.append(entry[2])
        start = stop
    out += log[start:]
    return out


class MemoryJournal:
    """In-process journal with manager-epoch fencing: an append-only log
    of what happened, and a table of where each task got to.

    A ``checkpoint`` record is state, not history: replay is
    last-writer-wins per task, so the one a task wrote last is all a
    replica keeps.  It replaces the table entry for its ``(job, task)``
    -- dropping this replica's reference to the superseded record, whose
    state is freed once every replica has let go -- and :meth:`records`
    hands it back at the position it arrived, so a replay folds the same
    snapshot it folded from the full history.

    The base backend: no serialization.  Subclasses add persistence by
    overriding :meth:`_persist`.  Every write is a batch (:meth:`extend`);
    :meth:`append` is the batch of one.
    """

    def __init__(self) -> None:
        self._lock = make_lock(f"{type(self).__name__}._lock")
        self._records: list[JournalRecord] = []
        #: the same records bucketed per job (first-seen job order), so a
        #: replay reads one job without scanning the cluster's history
        self._by_job: dict[str, list[JournalRecord]] = {}
        #: job -> task -> its latest accepted checkpoint, each job's in
        #: arrival order
        self._checkpoints: dict[str, dict[str, _Retained]] = {}
        self._high_water: dict[str, int] = {}
        #: records rejected by the epoch fence (zombie-manager writes)
        self.fenced: list[JournalRecord] = []
        #: checkpoints this replica let go of when their successor arrived
        self.superseded = 0

    def append(self, record: JournalRecord) -> bool:
        """Append unless fenced; returns whether the record was accepted."""
        return self.extend((record,)) == 1

    def extend(self, records: Iterable[JournalRecord]) -> int:
        """Append a batch under one lock hold; returns how many records
        were accepted.

        The epoch fence is applied to each record in turn: one stamped
        with a manager epoch older than its job's high-water mark is a
        zombie write and is dropped (but kept on :attr:`fenced` for
        observability) -- a fenced checkpoint supersedes nothing.  The
        accepted records are persisted together, in accept order."""
        with self._lock:
            log = self._records
            start = len(log)
            # becomes a list in a batch that carries a checkpoint
            arrived: Sequence[_Retained] = ()
            current, high, bucket = None, 0, []
            for record in records:
                job_id = record.job_id
                if job_id != current:
                    # a batch is usually one job's: look its state up once
                    current = job_id
                    high = self._high_water.get(job_id, 0)
                    bucket = self._by_job.setdefault(job_id, [])
                if record.mepoch != high:
                    if record.mepoch < high:
                        self.fenced.append(record)
                        continue
                    high = self._high_water[job_id] = record.mepoch
                if record.kind != "checkpoint":
                    log.append(record)
                    bucket.append(record)
                    continue
                table = self._checkpoints.get(job_id)
                if table is None:
                    table = self._checkpoints[job_id] = {}
                task = record.data["task"]
                # pop, then insert: the table stays in arrival order
                if table.pop(task, None) is not None:
                    self.superseded += 1
                entry = table[task] = (len(log), len(bucket), record)
                if not arrived:
                    arrived = []
                arrived.append(entry)
            accepted = len(log) - start + len(arrived)
            if accepted:
                self._persist(start, arrived)
            return accepted

    def records(self, job_id: Optional[str] = None) -> list[JournalRecord]:
        """The log, with every retained checkpoint where it arrived."""
        with self._lock:
            if job_id is not None:
                return _interleave(
                    self._by_job.get(job_id, ()),
                    self._checkpoints.get(job_id, {}).values(),
                    1,
                )
            retained = [
                entry
                for table in self._checkpoints.values()
                for entry in table.values()
            ]
            # no log record between two of them: the writer's seq is the
            # arrival order within a job, and jobs replay apart
            retained.sort(key=lambda entry: (entry[0], entry[2].seq))
            return _interleave(self._records, retained, 0)

    def job_ids(self) -> list[str]:
        with self._lock:
            return list(self._by_job)

    def manager_epoch(self, job_id: str) -> int:
        """The fencing high-water mark for *job_id* (0 if never seen)."""
        with self._lock:
            return self._high_water.get(job_id, 0)

    def _persist(self, start: int, arrived: Sequence[_Retained]) -> None:
        """Hook for durable backends: one accepted batch -- the log from
        *start* on and the checkpoints in *arrived*; the lock is held."""

    def __len__(self) -> int:
        """Records retained: the log plus one checkpoint per task."""
        with self._lock:
            return len(self._records) + sum(map(len, self._checkpoints.values()))


def _encode_data(data: dict) -> dict:
    """JSON when possible; otherwise a pickle/base64 envelope (numpy
    blocks, TaskSpec, Message payloads)."""
    try:
        json.dumps(data)
        return data
    except (TypeError, ValueError):
        blob = pickle.dumps(data, protocol=pickle.HIGHEST_PROTOCOL)
        return {"__pickled__": base64.b64encode(blob).decode("ascii")}


def _decode_data(data: dict) -> dict:
    if isinstance(data, dict) and set(data) == {"__pickled__"}:
        return pickle.loads(base64.b64decode(data["__pickled__"]))
    return data


class FileJournal(MemoryJournal):
    """JSONL-on-disk journal: one JSON object per line, append-only.

    The file stays a log: every accepted record, checkpoints included,
    in accept order.  Existing records are loaded on construction, so a
    restarted server resumes with its journal intact (fencing state is
    rebuilt too, and memory again holds one checkpoint per task).
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._fh = None  # not writing yet: loads must not re-persist
        try:
            with open(path, encoding="utf-8") as fh:
                # re-run the fence so a tampered/merged file cannot
                # smuggle stale-epoch records back in; a line at a time,
                # so a superseded checkpoint is let go as the next loads
                for record in self._load(fh):
                    self.append(record)
        except FileNotFoundError:
            pass
        except (json.JSONDecodeError, KeyError, OSError) as exc:
            raise JournalError(f"corrupt journal file {path!r}: {exc}") from exc
        self._fh = open(path, "a", encoding="utf-8")

    @staticmethod
    def _load(lines: Iterable[str]) -> Iterable[JournalRecord]:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            raw["data"] = _decode_data(raw.get("data") or {})
            yield JournalRecord.from_payload(raw)

    def _persist(self, start: int, arrived: Sequence[_Retained]) -> None:
        if self._fh is None:
            return  # constructor replaying the existing file
        lines = []
        for record in _interleave(self._records[start:], arrived, 0, start):
            payload = record.to_payload()
            payload["data"] = _encode_data(payload["data"])
            lines.append(json.dumps(payload) + "\n")
        try:
            # one write and one flush per batch, before extend() returns
            self._fh.write("".join(lines))
            self._fh.flush()
        except (OSError, ValueError) as exc:
            raise JournalError(
                f"cannot append to journal {self.path!r}: {exc}"
            ) from exc

    def close(self) -> None:
        with self._lock:
            try:
                self._fh.close()
            except OSError:
                pass


class ReplicatedJournal:
    """A node's journal writer: local append + multicast replication.

    A write is a batch of events for one job.  It goes to the local
    backend first (write-ahead), then one bus publish on topic
    ``journal`` hands the tuple of frozen records to every peer
    CNServer, which feeds it into its own backend via :meth:`receive` --
    replicas share the record objects exactly as they share each
    record's ``data`` by reference.  The lock is held across
    extend+publish so all replicas see one origin's records in ``seq``
    order (each job has a single writer per manager epoch, so this is
    enough for per-job total order); a batch is published whole, so
    replication order equals append order within it too.
    """

    def __init__(
        self,
        backend: Optional[MemoryJournal] = None,
        bus: Optional[Any] = None,
        origin: str = "",
    ) -> None:
        self.backend = backend if backend is not None else MemoryJournal()
        self.bus = bus
        self.origin = origin
        self._next_seq = 1
        self._lock = make_lock("ReplicatedJournal._lock", reentrant=False)

    def append(
        self, job_id: str, kind: str, data: dict, mepoch: int = 1
    ) -> Optional[JournalRecord]:
        """Journal one event; returns the record, or None if fenced."""
        records = self.append_many(job_id, ((kind, data),), mepoch)
        return records[0] if records else None

    def append_many(
        self, job_id: str, events: Iterable[tuple[str, dict]], mepoch: int = 1
    ) -> tuple[JournalRecord, ...]:
        """Journal a batch of ``(kind, data)`` events for one job under
        consecutive ``seq`` numbers; returns the records, or ``()`` if
        the epoch fence rejected the batch.

        One job, one epoch and one backend lock hold: the fence accepts
        the batch whole or not at all."""
        origin = self.origin
        with self._lock:
            records = tuple(
                JournalRecord(seq, job_id, kind, mepoch, origin, dict(data))
                for seq, (kind, data) in enumerate(events, self._next_seq)
            )
            self._next_seq += len(records)
            # extend+publish stay under _lock so every replica sees this
            # origin's records in seq order; the backend and bus are leaf
            # locks below ReplicatedJournal._lock in the hierarchy.
            # conclint: waive CC201 -- ordered-replication invariant (see above)
            if not self.backend.extend(records):
                return ()
            if self.bus is not None:
                # conclint: waive CC201 -- ordered-replication invariant, see above
                self.bus.publish("journal", records, sender=origin)
            return records

    def receive(self, records: Sequence[JournalRecord]) -> int:
        """A replicated batch arrived on the bus; returns how many of its
        records this replica accepted (an own-origin batch was already
        applied locally and is skipped; a batch has one origin)."""
        if not records or records[0].origin == self.origin:
            return 0
        # remote replicas bypass _lock on purpose: _lock only orders *local*
        # appends with their publishes; the backend serializes all writers.
        # conclint: waive CC101 -- backend is internally locked (see above)
        return self.backend.extend(records)

    def records(self, job_id: Optional[str] = None) -> list[JournalRecord]:
        return self.backend.records(job_id)

    def jobs_managed_by(
        self, manager: str, *, unfinished_only: bool = True
    ) -> list[str]:
        """Job ids whose *current* manager (after any adoptions) is
        *manager*; with ``unfinished_only`` jobs with a job-finished
        record at the current epoch are excluded."""
        owner: dict[str, tuple[int, str]] = {}
        finished: dict[str, int] = {}
        for record in self.backend.records():
            if record.kind in ("job-created", "job-adopted"):
                best = owner.get(record.job_id, (0, ""))
                if record.mepoch >= best[0]:
                    owner[record.job_id] = (
                        record.mepoch,
                        record.data.get("manager", ""),
                    )
            elif record.kind == "job-finished":
                finished[record.job_id] = max(
                    finished.get(record.job_id, 0), record.mepoch
                )
        out = []
        for job_id, (epoch, who) in owner.items():
            if who != manager:
                continue
            if unfinished_only and finished.get(job_id, 0) >= epoch:
                continue
            out.append(job_id)
        return sorted(out)


@dataclass(frozen=True)
class DirectoryEntry:
    """Current binding of one job id: who manages it, which Job object."""

    manager: Any  # JobManager (untyped to avoid an import cycle)
    job: Any      # Job
    epoch: int = 1


class JobDirectory:
    """Cluster-wide job_id -> (manager, Job) map.

    Client-side :class:`~repro.cn.api.JobHandle` objects resolve through
    the directory on every access, so when a successor adopts a job and
    re-registers it, existing handles transparently re-bind -- the
    client never learns its manager died.
    """

    def __init__(self) -> None:
        self._entries: dict[str, DirectoryEntry] = {}
        self._lock = make_lock("JobDirectory._lock", reentrant=False)

    def register(self, job_id: str, manager: Any, job: Any, epoch: int = 1) -> None:
        replaced = None
        with self._lock:
            current = self._entries.get(job_id)
            if current is not None and current.epoch > epoch:
                return  # a zombie manager cannot re-claim an adopted job
            if current is not None and current.job is not job:
                replaced = current.job
            self._entries[job_id] = DirectoryEntry(manager, job, epoch)
        # wake clients blocked on the superseded Job *after* releasing the
        # directory lock (mark_rebound takes the job lock; keep the order
        # one-way to stay deadlock-free) so they re-resolve to this entry
        if replaced is not None:
            mark = getattr(replaced, "mark_rebound", None)
            if callable(mark):
                mark()

    def lookup(self, job_id: str) -> Optional[DirectoryEntry]:
        with self._lock:
            return self._entries.get(job_id)

    def job_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)


@dataclass
class JobSnapshot:
    """The state :func:`replay_job` reconstructs from a journal."""

    job_id: str
    client: str = ""
    manager: str = ""
    mepoch: int = 1
    descriptor: Optional[str] = None
    specs: dict[str, TaskSpec] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)
    states: dict[str, str] = field(default_factory=dict)
    results: dict[str, Any] = field(default_factory=dict)
    errors: dict[str, str] = field(default_factory=dict)
    attempts: dict[str, int] = field(default_factory=dict)
    epochs: dict[str, int] = field(default_factory=dict)
    nodes: dict[str, str] = field(default_factory=dict)
    deliveries: dict[str, list[Message]] = field(default_factory=dict)
    #: cumulative per-task ledger-GC truncation counts (see ``ledger-gc``)
    gc_watermarks: dict[str, int] = field(default_factory=dict)
    #: message serials evicted from bounded queues, per task; every serial
    #: here must also appear in ``deliveries`` (write-ahead ledger before
    #: delivery), so a replay re-offers the shed message instead of losing it
    sheds: dict[str, list[int]] = field(default_factory=dict)
    #: absolute end-to-end deadline on the cluster clock, if the job
    #: carried a budget
    deadline: Optional[float] = None
    #: quarantined-frame records (one per poisoned dequeue); survive
    #: adoption so the successor's portal artifacts stay complete
    dead_letters: list[dict] = field(default_factory=list)
    checkpoints: dict[str, tuple[Any, Any]] = field(default_factory=dict)
    finished: bool = False
    failed: bool = False

    def terminal_tasks(self) -> list[str]:
        return [
            name
            for name in self.order
            if TaskState(self.states.get(name, "PENDING")).terminal
        ]

    def pending_tasks(self) -> list[str]:
        """Tasks a successor must re-place: everything not terminal."""
        return [name for name in self.order if name not in self.terminal_tasks()]


def replay_job(job_id: str, records: Iterable[JournalRecord]) -> JobSnapshot:
    """Fold a journal into a :class:`JobSnapshot` -- pure and total.

    Records for other jobs are skipped; records stamped with a stale
    manager epoch are ignored (the same fence the backends apply, so
    replaying an unfenced raw sequence gives the same snapshot as the
    fenced journal).  Later records win: states and checkpoints are
    last-writer, placements keep the highest attempt epoch, deliveries
    accumulate in order.
    """
    snapshot = JobSnapshot(job_id=job_id)
    high = 0
    # task -> collected deliveries whose record lands after the ledger-gc
    # that counted them (ledgered before, journaled after, the collection)
    owed: dict[str, int] = {}
    for record in records:
        if record.job_id != job_id:
            continue
        if record.mepoch < high:
            continue
        high = max(high, record.mepoch)
        snapshot.mepoch = high
        kind, data = record.kind, record.data
        if kind == "job-created":
            snapshot.client = data.get("client", snapshot.client)
            snapshot.manager = data.get("manager", snapshot.manager)
            snapshot.descriptor = data.get("descriptor", snapshot.descriptor)
            snapshot.deadline = data.get("deadline", snapshot.deadline)
        elif kind == "job-adopted":
            snapshot.manager = data.get("manager", snapshot.manager)
        elif kind == "task-spec":
            spec = data["spec"]
            if spec.name not in snapshot.specs:
                snapshot.order.append(spec.name)
            snapshot.specs[spec.name] = spec
            snapshot.states.setdefault(spec.name, TaskState.PENDING.value)
        elif kind == "task-placed":
            task = data["task"]
            snapshot.nodes[task] = data.get("node")
            snapshot.epochs[task] = max(
                snapshot.epochs.get(task, 0), int(data.get("epoch", 0))
            )
        elif kind == "task-state":
            task = data["task"]
            snapshot.states[task] = data.get("state", TaskState.PENDING.value)
            snapshot.attempts[task] = max(
                snapshot.attempts.get(task, 0), int(data.get("attempts", 0))
            )
            if "result" in data:
                snapshot.results[task] = data["result"]
            if data.get("error"):
                snapshot.errors[task] = data["error"]
        elif kind == "delivery":
            # one record per fan-out, unpacked in order
            for message in data["messages"]:
                if owed.get(message.recipient):
                    owed[message.recipient] -= 1
                    continue
                snapshot.deliveries.setdefault(message.recipient, []).append(
                    message
                )
        elif kind == "ledger-gc":
            # the manager truncated a terminal task's ledger; `upto` is
            # the cumulative count of entries dropped for that task, so
            # replay drops exactly the not-yet-dropped prefix (idempotent
            # under record duplication and monotone across adoptions)
            task = data["task"]
            upto = int(data.get("upto", 0))
            already = snapshot.gc_watermarks.get(task, 0)
            drop = upto - already
            if drop > 0:
                messages = snapshot.deliveries.get(task, [])
                owed[task] = owed.get(task, 0) + drop - len(messages[:drop])
                del messages[:drop]
                snapshot.gc_watermarks[task] = upto
        elif kind == "shed":
            # a bounded queue evicted this delivery before the task
            # consumed it; the message itself is already in `deliveries`
            # (ledgered write-ahead), so the shed record only marks which
            # serials need re-offering on replay
            task = data["task"]
            serial = int(data.get("serial", 0))
            serials = snapshot.sheds.setdefault(task, [])
            if serial not in serials:
                serials.append(serial)
        elif kind == "dead-letter":
            # a corrupt frame was quarantined at dequeue; keep the full
            # record so portal artifacts and oracles can account for it
            snapshot.dead_letters.append(dict(data))
        elif kind == "checkpoint":
            snapshot.checkpoints[data["task"]] = (data.get("tag"), data.get("state"))
        elif kind == "job-finished":
            snapshot.finished = True
            snapshot.failed = bool(data.get("failed"))
    return snapshot


def journal_factory_for_dir(
    directory: str,
) -> Callable[[str], FileJournal]:
    """A per-node :class:`FileJournal` factory writing ``<node>.jsonl``
    under *directory* (convenience for ``Cluster(journal_dir=...)``)."""
    import os

    os.makedirs(directory, exist_ok=True)

    def factory(node: str) -> FileJournal:
        return FileJournal(os.path.join(directory, f"{node}.jsonl"))

    return factory
