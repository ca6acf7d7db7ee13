"""Always-on metrics primitives: counters, gauges, streaming histograms.

The registry is the CN runtime's numeric memory: task outcomes, retries
and placements increment a metric here, and counts the runtime already
keeps as plain ints (routed messages, node state, bus stats) are folded
in when the registry is read (:meth:`MetricsRegistry.add_collector`).
The design constraints come from the <5% overhead budget measured
by ``benchmarks/test_perf_telemetry.py``:

* one short critical section per update (a plain ``threading.Lock``),
* no allocation on the hot path -- callers bind their metric once
  (``registry.counter(...)`` returns the live object) and then call
  ``inc``/``observe`` on it,
* histograms are *streaming*: fixed cumulative buckets (Prometheus
  style) plus a bounded reservoir for p50/p95/p99 estimates.  Reservoir
  replacement uses a deterministic LCG, so two identical runs report
  identical quantiles -- the same determinism discipline the chaos layer
  follows.

A cluster without telemetry never reaches this module: components hold
None, and a task asking for a counter is handed :data:`NULL_COUNTER`,
whose methods are no-ops.
"""

from __future__ import annotations

import bisect
import threading
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NodeScopedMetrics",
    "NullMetric",
    "NULL_COUNTER",
    "DURATION_BUCKETS",
    "BYTES_BUCKETS",
]

#: default cumulative bucket bounds for second-valued histograms
DURATION_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
    0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0,
)

#: default cumulative bucket bounds for byte-valued histograms
BYTES_BUCKETS: tuple[float, ...] = (
    64, 256, 1024, 4096, 16384, 65536, 262144, 1048576, 4194304,
)

_RESERVOIR_CAP = 1024


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    def _set_total(self, value: float) -> None:
        """Collector hook: overwrite with an externally tracked total
        (for counters derived from runtime stats at scrape time)."""
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Gauge:
    """A value that can go up and down (queue depth, free memory)."""

    kind = "gauge"

    def __init__(self, name: str, labels: dict[str, str]) -> None:
        self.name = name
        self.labels = dict(labels)
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> dict[str, Any]:
        return {"value": self.value}


class Histogram:
    """Streaming histogram: cumulative buckets + deterministic reservoir.

    ``observe`` is O(log buckets); quantiles are computed on demand from
    the reservoir (exact until ``_RESERVOIR_CAP`` observations, then a
    uniform sample maintained with a deterministic LCG).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        labels: dict[str, str],
        buckets: Sequence[float] = DURATION_BUCKETS,
    ) -> None:
        self.name = name
        self.labels = dict(labels)
        self.bounds = tuple(sorted(float(b) for b in buckets))
        self._counts = [0] * (len(self.bounds) + 1)  # +Inf bucket last
        self._sum = 0.0
        self._count = 0
        self._reservoir: list[float] = []
        self._lcg = 0x2545F491  # fixed seed: deterministic replacement
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1
            if len(self._reservoir) < _RESERVOIR_CAP:
                self._reservoir.append(value)
            else:
                # deterministic pseudo-random slot (LCG, Numerical Recipes)
                self._lcg = (self._lcg * 1664525 + 1013904223) & 0xFFFFFFFF
                slot = self._lcg % self._count
                if slot < _RESERVOIR_CAP:
                    self._reservoir[slot] = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> Optional[float]:
        """Reservoir quantile estimate in [0, 1]; None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        with self._lock:
            sample = sorted(self._reservoir)
        if not sample:
            return None
        index = min(len(sample) - 1, int(q * len(sample)))
        return sample[index]

    def percentiles(self) -> dict[str, Optional[float]]:
        return {
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }

    def bucket_counts(self) -> list[tuple[float, int]]:
        """Cumulative ``(le, count)`` pairs, Prometheus style."""
        with self._lock:
            counts = list(self._counts)
        out: list[tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + counts[-1]))
        return out

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            total, count = self._sum, self._count
        return {"sum": total, "count": count, **self.percentiles()}


class NullMetric:
    """No-op stand-in handed out when the cluster has no telemetry."""

    kind = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


NULL_COUNTER = NullMetric()


class MetricsRegistry:
    """Named, labelled metrics with get-or-create semantics.

    ``counter``/``gauge``/``histogram`` return the live metric object;
    callers on hot paths bind once and update lock-free of the registry.
    """

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, tuple[tuple[str, str], ...]], Any] = {}
        self._kinds: dict[str, str] = {}
        self._lock = threading.Lock()
        self._collectors: list[Callable[[], None]] = []

    def add_collector(self, fn: Callable[[], None]) -> None:
        """Register a scrape-time callback that refreshes derived metrics
        from runtime state.  This is the one way runtime state reaches
        the registry: hot paths that already keep their own plain
        counters (``BusStats``, ``Job.messages_routed``, node headroom)
        pay no locked ``inc()`` per event; the callback folds the totals
        in whenever the registry is read."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def _collect(self) -> None:
        with self._lock:
            collectors = tuple(self._collectors)
        for fn in collectors:
            try:
                fn()
            except Exception:  # noqa: BLE001  # conclint: waive CC302 -- a collector outliving its source must not kill reads
                continue

    def _get(self, factory, kind: str, name: str, labels: dict[str, str], **kw):
        key = (name, _label_key(labels))
        with self._lock:
            seen = self._kinds.get(name)
            if seen is not None and seen != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {seen}, "
                    f"cannot re-register as {kind}"
                )
            metric = self._metrics.get(key)
            if metric is None:
                metric = factory(name, {k: str(v) for k, v in labels.items()}, **kw)
                self._metrics[key] = metric
                self._kinds[name] = kind
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._get(Counter, "counter", name, labels)

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._get(Gauge, "gauge", name, labels)

    def histogram(
        self, name: str, *, buckets: Sequence[float] = DURATION_BUCKETS, **labels: Any
    ) -> Histogram:
        return self._get(Histogram, "histogram", name, labels, buckets=buckets)

    def all_metrics(self) -> list[Any]:
        """Every registered metric, ordered by (name, labels)."""
        self._collect()
        with self._lock:
            items = sorted(self._metrics.items())
        return [metric for _, metric in items]

    def find(self, name: str, **labels: Any) -> Optional[Any]:
        """The metric registered under exactly (name, labels), or None."""
        with self._lock:
            return self._metrics.get((name, _label_key(labels)))

    def value(self, name: str, **labels: Any) -> Optional[float]:
        """Convenience: current value of a counter/gauge, or None."""
        self._collect()
        metric = self.find(name, **labels)
        return metric.value if metric is not None else None

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets."""
        self._collect()
        with self._lock:
            metrics = [m for (n, _), m in self._metrics.items() if n == name]
        return sum(m.value for m in metrics)

    def snapshot(self) -> list[dict[str, Any]]:
        """JSON-friendly dump of every metric (for the JSONL exporter)."""
        out = []
        for metric in self.all_metrics():
            out.append(
                {
                    "name": metric.name,
                    "kind": metric.kind,
                    "labels": dict(metric.labels),
                    **metric.snapshot(),
                }
            )
        return out

    def namespaced(self, node: str) -> "NodeScopedMetrics":
        """A view of this registry that stamps ``node=<id>`` on every
        metric it hands out.  This is how per-node series stay distinct
        in the one coordinator registry: the cluster's collector sets
        node gauges through it when the registry is read, and the proc
        backend merges worker-forwarded counters through it so two
        workers incrementing the same counter name can never collide on
        a label set."""
        return NodeScopedMetrics(self, node)


class NodeScopedMetrics:
    """A :class:`MetricsRegistry` facade scoped to one node id.

    Every ``counter``/``gauge``/``histogram`` call adds ``node=<id>``
    unless the caller already pinned an explicit ``node`` label (an
    explicit label wins; the scope is a default, not a rewrite).
    """

    __slots__ = ("_registry", "_node")

    def __init__(self, registry: MetricsRegistry, node: str) -> None:
        self._registry = registry
        self._node = node

    @property
    def node(self) -> str:
        return self._node

    def _scoped(self, labels: dict[str, Any]) -> dict[str, Any]:
        labels.setdefault("node", self._node)
        return labels

    def counter(self, name: str, **labels: Any) -> Counter:
        return self._registry.counter(name, **self._scoped(labels))

    def gauge(self, name: str, **labels: Any) -> Gauge:
        return self._registry.gauge(name, **self._scoped(labels))

    def histogram(
        self, name: str, *, buckets: Sequence[float] = DURATION_BUCKETS, **labels: Any
    ) -> Histogram:
        return self._registry.histogram(
            name, buckets=buckets, **self._scoped(labels)
        )


def merge_label_sets(metrics: Iterable[Any]) -> dict[str, list[Any]]:
    """Group metrics by family name (export helper)."""
    families: dict[str, list[Any]] = {}
    for metric in metrics:
        families.setdefault(metric.name, []).append(metric)
    return families
