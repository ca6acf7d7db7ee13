"""Durable job state: write-ahead journal, replication, and replay.

PR 2 made *worker* nodes expendable; this module makes the coordinating
JobManager expendable too.  Every job mutation -- submission, task specs,
placements, delivery-ledger entries, state transitions, checkpoints --
is appended to a write-ahead **job journal** before (or atomically with)
taking effect.  Each append is a *batch* -- one job's records at one
manager epoch, a checkpoint alone -- replicated to every peer CNServer
as one event on the existing multicast bus (topic ``journal``) carrying
the frozen records themselves.  When the failure detector declares a
manager node dead, a deterministic successor replays its replica of the journal
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
it supersedes (see :class:`MemoryJournal`), and every per-job store lets
the oldest finished job go (:func:`retire`); a journal *file* stays a
full log.

Backends are pluggable: :class:`MemoryJournal` keeps records in-process
(tests, default), :class:`FileJournal` persists JSONL to disk (payloads
that are not JSON-serializable -- numpy blocks, :class:`TaskSpec`,
:class:`Message` -- ride in a pickle/base64 envelope).

:func:`replay_job` folds a record sequence into a fresh
:class:`~repro.cn.job.Job` through :meth:`Job.apply`, the one reading of
every record kind; an adopting manager runs the same fold, so recovery is
as deterministic as that function, which the property tests exercise.
"""

from __future__ import annotations

import base64
import itertools
import json
import pickle
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

from ..analysis.conc.runtime import make_lock
from .errors import JournalError
from .job import Job

__all__ = [
    "JournalRecord",
    "MemoryJournal",
    "FileJournal",
    "ReplicatedJournal",
    "JobDirectory",
    "DirectoryEntry",
    "replay_job",
    "journal_factory_for_dir",
    "RECORD_KINDS",
]

#: finished jobs each per-job store keeps (at least the jobs one
#: benchmark op or one simulated run makes)
RETAINED_FINISHED = 32


def retire(finished: dict[Any, None], job_id: Any, *stores: dict) -> Any:
    """Note *job_id* in *finished*, the insertion-ordered finished ids;
    past the limit the oldest leaves it and *stores* and is returned."""
    finished[job_id] = None
    if len(finished) <= RETAINED_FINISHED:
        return None
    oldest = next(iter(finished))
    for store in (finished, *stores):
        store.pop(oldest, None)
    return oldest


#: every record kind the journal understands, in no particular order
RECORD_KINDS = (
    "job-created",   # client, manager                -- job submission
    "job-adopted",   # manager, previous              -- failover fence
    "task-spec",     # spec (TaskSpec)                -- roster entry
    "task-placed",   # task, node, epoch              -- placement
    "task-state",    # task, state, attempts, result?, error?
    "delivery",      # messages (list[Message])       -- one fan-out's ledger entries
    "ledger-gc",     # task, upto                     -- ledger truncation
    "checkpoint",    # task, tag, state               -- latest state per task
    "job-finished",  # failed (bool)                   -- the last of its batch
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


#: one retained checkpoint: how many records its job's log held when it
#: arrived, and the record
_Retained = tuple[int, JournalRecord]


def _interleave(
    log: Sequence[JournalRecord], retained: Iterable[_Retained]
) -> list[JournalRecord]:
    """*log* with each retained checkpoint back where it arrived
    (*retained* is in arrival order)."""
    out: list[JournalRecord] = []
    start = 0
    for stop, record in retained:
        out += log[start:stop]
        out.append(record)
        start = stop
    out += log[start:]
    return out


class MemoryJournal:
    """In-process journal with manager-epoch fencing: an append-only log
    per job of what happened, and a table of where each task got to.

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
        #: each job's log (first-seen job order), so a replay reads one
        #: job without scanning the others
        self._by_job: dict[str, list[JournalRecord]] = {}
        #: job -> task -> its latest accepted checkpoint, each job's in
        #: arrival order
        self._checkpoints: dict[str, dict[str, _Retained]] = {}
        #: job -> its fence; a job here without a log was retired
        self._high_water: dict[str, int] = {}
        #: the finished jobs this replica keeps, oldest first
        self._finished: dict[str, None] = {}
        #: records rejected by the epoch fence (zombie-manager writes)
        self.fenced: list[JournalRecord] = []
        #: checkpoints this replica let go of when their successor arrived
        self.superseded = 0

    def append(self, record: JournalRecord) -> bool:
        """Append unless fenced; returns whether the record was accepted."""
        return self.extend((record,)) == 1

    def extend(self, batch: Sequence[JournalRecord]) -> int:
        """Append a batch under one lock hold; returns how many records
        were accepted.

        A batch is one job's records at one manager epoch, and a
        checkpoint is a batch of its own (:meth:`ReplicatedJournal.append_many`
        refuses any other).  The epoch fence is applied once: a batch
        stamped with an epoch below its job's high-water mark, or for a
        job this replica retired, is a zombie write and is dropped whole
        (but kept on :attr:`fenced` for observability) -- a fenced
        checkpoint supersedes nothing.  An accepted batch is persisted."""
        if not batch:
            return 0
        first = batch[0]
        job_id, mepoch = first.job_id, first.mepoch
        with self._lock:
            log = self._by_job.get(job_id)
            high = self._high_water.get(job_id)
            if high is not None and (log is None or mepoch < high):
                self.fenced += batch
                return 0
            self._high_water[job_id] = mepoch
            if log is None:
                log = self._by_job[job_id] = []
            self._persist(batch)
            if first.kind == "checkpoint":
                table = self._checkpoints.setdefault(job_id, {})
                task = first.data["task"]
                # pop, then insert: the table stays in arrival order
                if table.pop(task, None) is not None:
                    self.superseded += 1
                table[task] = (len(log), first)
            else:
                log += batch
                if batch[-1].kind == "job-finished":  # the oldest finished job leaves
                    retire(self._finished, job_id, self._by_job, self._checkpoints)
            return len(batch)

    def records(self, job_id: Optional[str] = None) -> list[JournalRecord]:
        """One job's log with every retained checkpoint where it arrived;
        without *job_id*, every job's in first-seen job order."""
        with self._lock:
            out: list[JournalRecord] = []
            for job in self._by_job if job_id is None else (job_id,):
                table = self._checkpoints.get(job, {})
                out += _interleave(self._by_job.get(job, ()), table.values())
            return out

    def _persist(self, batch: Sequence[JournalRecord]) -> None:
        """Hook for durable backends: one accepted batch; the lock is
        held."""

    def __len__(self) -> int:
        """Records retained: the logs plus one checkpoint per task."""
        with self._lock:
            tables = (*self._by_job.values(), *self._checkpoints.values())
            return sum(map(len, tables))


def _envelope(data: dict) -> dict:
    """A pickle/base64 envelope for a ``data`` JSON cannot carry (numpy
    blocks, TaskSpec, Message payloads)."""
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
    restarted server resumes with its journal intact (the fence too; in
    memory, one checkpoint per task and the newest finished jobs).
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

    def extend(self, batch: Sequence[JournalRecord]) -> int:
        """As :meth:`MemoryJournal.extend`; a closed journal refuses a
        batch whole, as a stale epoch is refused: 0, and nothing changes
        in memory or on disk (a task thread may outlive its cluster)."""
        with self._lock:
            if self._fh is not None and self._fh.closed:
                return 0
            return super().extend(batch)

    @staticmethod
    def _load(lines: Iterable[str]) -> Iterable[JournalRecord]:
        for line in lines:
            line = line.strip()
            if not line:
                continue
            raw = json.loads(line)
            raw["data"] = _decode_data(raw.get("data") or {})
            yield JournalRecord.from_payload(raw)

    def _persist(self, batch: Sequence[JournalRecord]) -> None:
        if self._fh is None:
            return  # constructor replaying the existing file
        lines = []
        for record in batch:
            # JSON where the data survives it, else the envelope: one
            # dump per record that JSON can carry
            payload = record.to_payload()
            try:
                line = json.dumps(payload)
            except (TypeError, ValueError):
                payload["data"] = _envelope(payload["data"])
                line = json.dumps(payload)
            lines.append(line + "\n")
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

        This is the batch contract every backend and replica trusts: one
        job, one epoch, one backend lock hold -- the fence accepts the
        batch whole or not at all -- and a checkpoint is a batch of its
        own; a checkpoint batched with other events raises
        :class:`JournalError` and journals nothing."""
        origin = self.origin
        with self._lock:
            records = tuple(
                JournalRecord(seq, job_id, kind, mepoch, origin, dict(data))
                for seq, (kind, data) in enumerate(events, self._next_seq)
            )
            if len(records) > 1 and any(r.kind == "checkpoint" for r in records):
                raise JournalError(
                    f"job {job_id!r}: a checkpoint is journaled as a batch of its own"
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

    def jobs_managed_by(self, manager: str) -> list[str]:
        """Unfinished job ids whose *current* manager (after any
        adoptions) is *manager*: a job with a job-finished record at its
        current epoch is excluded."""
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
        return sorted(
            job_id
            for job_id, (epoch, who) in owner.items()
            if who == manager and finished.get(job_id, 0) < epoch
        )


@dataclass(frozen=True)
class DirectoryEntry:
    """Current binding of one job id: who manages it, which Job object,
    and the binding an adoption replaced (its manager keeps its copy)."""

    manager: Any  # JobManager (untyped to avoid an import cycle)
    job: Any      # Job
    epoch: int = 1
    previous: Optional["DirectoryEntry"] = None


class JobDirectory:
    """Cluster-wide job_id -> (manager, Job) map.

    Client-side :class:`~repro.cn.api.JobHandle` objects resolve through
    the directory on every access, so when a successor adopts a job and
    re-registers it, existing handles transparently re-bind -- the
    client never learns its manager died (a handle to a retired job
    keeps the Job it last resolved).
    """

    def __init__(self) -> None:
        self._entries: dict[str, DirectoryEntry] = {}
        #: job id -> (registration serial, registering thread), in
        #: first-registration order (a re-registration by an adopting
        #: manager adds none); a mark is a serial
        self._registered: dict[str, tuple[int, int]] = {}
        self._serials = itertools.count()
        #: the finished jobs the directory keeps, oldest first
        self._finished: dict[str, None] = {}
        self._lock = make_lock("JobDirectory._lock", reentrant=False)

    def register(self, job_id: str, manager: Any, job: Any, epoch: int = 1) -> None:
        replaced = None
        with self._lock:
            current = self._entries.get(job_id)
            if current is not None and current.epoch > epoch:
                return  # a zombie manager cannot re-claim an adopted job
            if current is None:
                self._registered[job_id] = (next(self._serials), threading.get_ident())
            elif current.job is not job:
                replaced = current.job
            # an adoption's entry keeps the one it replaced
            previous = current if replaced is not None else getattr(current, "previous", None)
            self._entries[job_id] = DirectoryEntry(manager, job, epoch, previous)
        # wake clients blocked on the superseded Job *after* releasing the
        # directory lock (mark_rebound takes the job lock; keep the order
        # one-way to stay deadlock-free) so they re-resolve to this entry
        if replaced is not None:
            mark = getattr(replaced, "mark_rebound", None)
            if callable(mark):
                mark()

    def finish(self, job_id: str) -> Optional[DirectoryEntry]:
        """Note *job_id* finished (:func:`retire`); returns the entry of
        the finished job that leaves the directory now, if any."""
        with self._lock:
            gone = retire(self._finished, job_id, self._registered)
            return None if gone is None else self._entries.pop(gone, None)

    def lookup(self, job_id: str) -> Optional[DirectoryEntry]:
        with self._lock:
            return self._entries.get(job_id)

    def job_ids(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def mark(self) -> int:
        """A position in registration order for :meth:`job_ids_since`."""
        with self._lock:
            return next(self._serials)

    def job_ids_since(self, mark: int) -> list[str]:
        """The ids the calling thread first registered after *mark*,
        sorted: the jobs it made, not a concurrent caller's.
        ``create_job`` registers on its caller's thread, and a thread id
        is unique among live threads."""
        me = threading.get_ident()
        with self._lock:
            mine = self._registered.items()
            return sorted(job for job, (n, who) in mine if n >= mark and who == me)


def replay_job(job_id: str, records: Iterable[JournalRecord]) -> Job:
    """Fold a journal into a fresh :class:`~repro.cn.job.Job` -- every
    record through :meth:`Job.apply`, so the function is pure and total."""
    job = Job(job_id, "")
    for record in records:
        job.apply(record)
    return job


def journal_factory_for_dir(
    directory: str,
) -> Callable[[str], FileJournal]:
    """A per-node :class:`FileJournal` factory writing ``<node>.jsonl``
    under *directory* (``Cluster(durable=directory)``)."""
    import os

    os.makedirs(directory, exist_ok=True)

    def factory(node: str) -> FileJournal:
        return FileJournal(os.path.join(directory, f"{node}.jsonl"))

    return factory
