"""Causal spans: the timing skeleton of a distributed job.

A *span* is a named interval with a parent, forming one tree per trace.
The CN runtime records a deterministic span topology per job:

* ``job`` -- the root, begun when the JobManager creates the job and
  ended when the roster drains (trace id == job id, so a job adopted by
  a successor manager after a failover keeps its trace across manager
  epochs for free);
* ``task:<name>`` -- one logical span per task, begun at first
  placement, ended at the terminal state (spanning every attempt);
* ``place:<name>#<epoch>`` -- each placement round (solicit + upload);
* ``attempt:<name>#<epoch>`` -- each execution attempt, on whichever
  node hosted it.  Retries and failover re-placements create sibling
  attempt spans under the same task span;
* ``adopt#<mepoch>`` -- a successor manager's adoption of the job.

Span ids are **deterministic**, which buys two properties: recording is
idempotent (an adoption replay cannot duplicate the job or task spans),
and the tree is connected by construction -- every attempt's parent
exists because ``begin`` is get-or-create.

Messages carry a ``trace_ctx`` -- ``(trace_id, span_id)`` of the sending
span -- propagated through queues, the bus, retries, and adoptions, so a
message can always be attributed to the span that produced it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["Span", "SpanRecorder", "orphan_spans"]


@dataclass(slots=True)
class Span:
    """One named interval in a trace tree."""

    trace_id: str
    span_id: str
    name: str
    kind: str  # job | task | place | attempt | adopt | custom
    start: float
    parent_id: Optional[str] = None
    end: Optional[float] = None
    node: Optional[str] = None
    attrs: dict[str, Any] = field(default_factory=dict)
    #: (ts, name, attrs) in-span point events (most spans have none)
    events: Sequence[tuple[float, str, dict[str, Any]]] = ()

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def finished(self) -> bool:
        return self.end is not None

    def to_dict(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "node": self.node,
            "attrs": dict(self.attrs),
            "events": [
                {"ts": ts, "name": name, "attrs": dict(attrs)}
                for ts, name, attrs in self.events
            ],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Span":
        return cls(
            trace_id=data["trace_id"],
            span_id=data["span_id"],
            parent_id=data.get("parent_id"),
            name=data.get("name", data["span_id"]),
            kind=data.get("kind", "custom"),
            start=float(data["start"]),
            end=None if data.get("end") is None else float(data["end"]),
            node=data.get("node"),
            attrs=dict(data.get("attrs") or {}),
            events=[
                (e["ts"], e["name"], dict(e.get("attrs") or {}))
                for e in data.get("events") or ()
            ] or (),
        )


class SpanRecorder:
    """Thread-safe, cluster-global span store: one dict of spans per
    trace, in first-seen trace order, until the trace's job retires.
    Only a parentless span (a job's root) starts a trace: a late span of
    a retired job is handed back unstored, and the trace stays gone.

    One recorder serves every node of a cluster -- spans recorded by a
    manager that later dies stay available to its successor, which is
    what keeps a failover job's trace whole.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None) -> None:
        self._clock = clock if clock is not None else time.monotonic
        #: trace id -> span id -> span, each trace in recording order
        self._by_trace: dict[str, dict[str, Span]] = {}
        self._lock = threading.Lock()

    def now(self) -> float:
        return self._clock()

    # -- recording -----------------------------------------------------------
    def begin(
        self,
        trace_id: str,
        span_id: str,
        *,
        name: Optional[str] = None,
        kind: str = "custom",
        parent_id: Optional[str] = None,
        node: Optional[str] = None,
        ts: Optional[float] = None,
        **attrs: Any,
    ) -> Span:
        """Get-or-create the span; idempotent on ``(trace_id, span_id)``.

        A repeated ``begin`` (e.g. an adoption replaying job creation)
        returns the existing span untouched, merging only new attrs.
        """
        with self._lock:
            trace = self._by_trace.get(trace_id)
            if trace is None:  # only a parentless span starts a trace
                trace = self._by_trace.setdefault(trace_id, {}) if parent_id is None else {}
            span = trace.get(span_id)
            if span is None:
                span = Span(
                    trace_id=trace_id,
                    span_id=span_id,
                    parent_id=parent_id,
                    name=name if name is not None else span_id,
                    kind=kind,
                    start=ts if ts is not None else self._clock(),
                    node=node,
                    attrs=dict(attrs),
                )
                trace[span_id] = span
            elif attrs:
                for k, v in attrs.items():
                    span.attrs.setdefault(k, v)
            return span

    def end(
        self, span: Span, *, ts: Optional[float] = None, **attrs: Any
    ) -> Span:
        """Close *span* (first close wins); extra attrs are merged."""
        with self._lock:
            if span.end is None:
                span.end = ts if ts is not None else self._clock()
            if attrs:
                span.attrs.update(attrs)
            return span

    def record(
        self,
        trace_id: str,
        span_id: str,
        *,
        start: float,
        end: float,
        name: Optional[str] = None,
        kind: str = "custom",
        parent_id: Optional[str] = None,
        node: Optional[str] = None,
        **attrs: Any,
    ) -> Span:
        """Record an already-complete span in one call and one lock hold:
        ``begin`` (get-or-create, new attrs merged) then ``end`` (first
        close wins)."""
        with self._lock:
            trace = self._by_trace.get(trace_id)
            if trace is None:  # only a parentless span starts a trace
                trace = self._by_trace.setdefault(trace_id, {}) if parent_id is None else {}
            span = trace.get(span_id)
            if span is None:
                span = Span(
                    trace_id,
                    span_id,
                    name if name is not None else span_id,
                    kind,
                    start,
                    parent_id,
                    end,
                    node,
                    attrs,
                )
                trace[span_id] = span
                return span
            for k, v in attrs.items():
                span.attrs.setdefault(k, v)
            if span.end is None:
                span.end = end
            return span

    def add_event(self, span: Span, name: str, **attrs: Any) -> None:
        with self._lock:
            if not span.events:
                span.events = []  # made by the first event: most spans have none
            span.events.append((self._clock(), name, dict(attrs)))

    def retire(self, trace_id: str) -> None:
        """Forget one trace: its job left the cluster."""
        with self._lock:
            self._by_trace.pop(trace_id, None)

    # -- queries -------------------------------------------------------------
    def get(self, trace_id: str, span_id: str) -> Optional[Span]:
        with self._lock:
            return self._by_trace.get(trace_id, {}).get(span_id)

    def spans(self, trace_id: Optional[str] = None) -> list[Span]:
        """One trace's spans in recording order; without *trace_id*,
        every trace's, in first-seen trace order."""
        with self._lock:
            if trace_id is None:
                return [span for trace in self._by_trace.values() for span in trace.values()]
            return list(self._by_trace.get(trace_id, {}).values())

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._by_trace)

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self._by_trace.values()))


def orphan_spans(spans: Iterable[Span]) -> list[Span]:
    """Spans whose declared parent does not exist in the same trace.

    An empty return means the trace forms one connected tree (every
    non-root span hangs off a recorded ancestor) -- the structural
    invariant the telemetry tests assert for jobs that survived chaos
    and manager failover.
    """
    spans = list(spans)
    by_trace: dict[str, set[str]] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, set()).add(span.span_id)
    return [
        span
        for span in spans
        if span.parent_id is not None
        and span.parent_id not in by_trace.get(span.trace_id, set())
    ]
