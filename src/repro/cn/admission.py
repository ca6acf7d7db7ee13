"""Admission control: keep the portal healthy when demand exceeds capacity.

The portal is the cluster's front door, and the seed accepted every
submission unconditionally -- a 10x burst simply queued behind the
pipeline and made *everyone* slow.  This module implements the standard
overload-protection ladder in front of :meth:`Portal.submit`:

1. **Per-tenant rate limiting** (:class:`TokenBucket`): each tenant gets
   ``rate`` submissions/second with bursts up to ``burst``; exceeding it
   is a *quota* rejection (HTTP 429) that names the offender without
   penalizing anyone else.
2. **Per-tenant in-flight caps**: at most ``max_in_flight`` concurrent
   submissions per tenant, so one slow tenant cannot monopolize the
   portal's worker threads.
3. **Cluster saturation** (:meth:`AdmissionController.saturation`): a
   0..1 score combining aggregate hosted-queue depth with memory
   pressure across live nodes.  Between the soft and hard thresholds the
   controller lowers ``cluster.degrade_factor`` so the generated
   client's dynamic task expansion admits *smaller* jobs
   (:func:`repro.cn.client.submit_job`); at the hard threshold new work
   is shed outright with a Retry-After hint (HTTP 503).

All arithmetic goes through an injectable ``now`` callable (the cluster
clock's ``timeout_now`` by default) so chaos tests drive the buckets on
virtual time.  Every decision lands in ``cn_admission_total{decision=}``
and the latency of the decision itself in
``cn_admission_latency_seconds`` -- admission must stay O(1) and run
*before* XMI parsing, so rejections cost microseconds, not a pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..analysis.conc.runtime import make_lock

__all__ = ["AdmissionController", "AdmissionDecision", "TokenBucket"]

#: decision strings, also the ``decision`` label on cn_admission_total
DECISIONS = ("admit", "admit-degraded", "reject-quota", "reject-saturated")


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, capacity ``burst``.

    Not self-locking -- the :class:`AdmissionController` serializes all
    access under its own lock (one lock for the whole admission path
    keeps the lock-order graph trivial)."""

    def __init__(self, rate: float, burst: float, *, now: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = float(rate)
        self.burst = float(burst)
        self.tokens = float(burst)
        self.last_refill = now

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.last_refill)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.last_refill = now

    def try_acquire(self, now: float) -> tuple[bool, float]:
        """Take one token if available.  Returns ``(acquired,
        retry_after)`` -- on refusal, *retry_after* is the seconds until
        the next token materializes."""
        self._refill(now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


@dataclass(frozen=True)
class AdmissionDecision:
    """The outcome of one admission check."""

    decision: str  # one of DECISIONS
    tenant: str
    saturation: float
    degrade_factor: float = 1.0
    retry_after: float = 0.0

    @property
    def admitted(self) -> bool:
        return self.decision in ("admit", "admit-degraded")


class AdmissionController:
    """Token buckets + in-flight quotas + a cluster saturation gate.

    One instance fronts one portal.  :meth:`admit` is called before any
    expensive work; every admitted submission must be paired with a
    :meth:`release` (the portal does this in a ``finally``)."""

    def __init__(
        self,
        cluster: Any,
        *,
        rate: float = 50.0,
        burst: float = 100.0,
        max_in_flight: int = 32,
        soft_saturation: float = 0.7,
        hard_saturation: float = 0.9,
        min_degrade_factor: float = 0.25,
        queue_headroom: int = 512,
        retry_after: float = 1.0,
        now: Optional[Callable[[], float]] = None,
    ) -> None:
        if not 0.0 < soft_saturation <= hard_saturation <= 1.0:
            raise ValueError("need 0 < soft_saturation <= hard_saturation <= 1")
        self.cluster = cluster
        self.rate = rate
        self.burst = burst
        self.max_in_flight = max_in_flight
        self.soft_saturation = soft_saturation
        self.hard_saturation = hard_saturation
        self.min_degrade_factor = min_degrade_factor
        #: queued messages that count as "fully saturated" on the queue
        #: axis; aggregate depth is normalized against this
        self.queue_headroom = max(1, queue_headroom)
        self.retry_after = retry_after
        self._now = now if now is not None else cluster.clock.timeout_now
        self._lock = make_lock("AdmissionController._lock", reentrant=False)
        self._buckets: dict[str, TokenBucket] = {}
        self._in_flight: dict[str, int] = {}
        #: decision -> count, mirrored into cn_admission_total by the portal
        self.counts: dict[str, int] = {d: 0 for d in DECISIONS}

    # -- saturation ----------------------------------------------------------
    def saturation(self) -> float:
        """0..1 cluster pressure: the max of queue depth (aggregate
        resident messages over ``queue_headroom``) and memory pressure
        (fraction of live capacity already committed).  Max, not mean:
        either axis alone is enough to make new work counterproductive."""
        cluster = self.cluster
        queued = cluster.total_queued_messages()
        queue_pressure = min(1.0, queued / self.queue_headroom)
        total = cluster.total_memory()
        memory_pressure = 0.0
        if total > 0:
            memory_pressure = 1.0 - cluster.total_free_memory() / total
        return max(queue_pressure, memory_pressure)

    def _degrade_factor(self, saturation: float) -> float:
        """Linear ramp: 1.0 at the soft threshold down to
        ``min_degrade_factor`` at the hard threshold."""
        soft, hard = self.soft_saturation, self.hard_saturation
        if saturation <= soft:
            return 1.0
        if saturation >= hard or hard <= soft:
            return self.min_degrade_factor
        span = (saturation - soft) / (hard - soft)
        return 1.0 - span * (1.0 - self.min_degrade_factor)

    # -- the decision --------------------------------------------------------
    def admit(self, tenant: str = "anon") -> AdmissionDecision:
        """Decide whether *tenant* may submit right now.  O(1); never
        touches the pipeline, the registry, or the XMI text."""
        now = self._now()
        saturation = self.saturation()  # reads cluster state; no portal lock
        with self._lock:
            if saturation >= self.hard_saturation:
                self.counts["reject-saturated"] += 1
                return AdmissionDecision(
                    "reject-saturated",
                    tenant,
                    saturation,
                    degrade_factor=self.min_degrade_factor,
                    retry_after=self.retry_after,
                )
            bucket = self._buckets.get(tenant)
            if bucket is None:
                bucket = self._buckets[tenant] = TokenBucket(
                    self.rate, self.burst, now=now
                )
            acquired, retry_after = bucket.try_acquire(now)
            if not acquired or self._in_flight.get(tenant, 0) >= self.max_in_flight:
                if acquired:
                    # in-flight cap hit: give the token back, the tenant
                    # is blocked on concurrency, not on rate
                    bucket.tokens = min(bucket.burst, bucket.tokens + 1.0)
                    retry_after = self.retry_after
                self.counts["reject-quota"] += 1
                return AdmissionDecision(
                    "reject-quota",
                    tenant,
                    saturation,
                    retry_after=max(retry_after, 1e-3),
                )
            self._in_flight[tenant] = self._in_flight.get(tenant, 0) + 1
            factor = self._degrade_factor(saturation)
            decision = "admit" if factor >= 1.0 else "admit-degraded"
            self.counts[decision] += 1
        # publish the degradation knob outside the admission lock: the
        # generated client reads it lock-free (a stale float is harmless)
        self.cluster.degrade_factor = factor
        return AdmissionDecision(
            decision, tenant, saturation, degrade_factor=factor
        )

    def release(self, tenant: str = "anon") -> None:
        """Return *tenant*'s in-flight slot (portal calls this in a
        ``finally`` for every admitted submission)."""
        with self._lock:
            current = self._in_flight.get(tenant, 0)
            if current <= 1:
                self._in_flight.pop(tenant, None)
            else:
                self._in_flight[tenant] = current - 1

    def in_flight(self, tenant: str = "anon") -> int:
        with self._lock:
            return self._in_flight.get(tenant, 0)

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time view for tests and the portal's metrics page."""
        with self._lock:
            return {
                "counts": dict(self.counts),
                "in_flight": dict(self._in_flight),
                "tenants": sorted(self._buckets),
            }
