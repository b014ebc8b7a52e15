"""Admission control for ``vxserve``: the gate, the breaker and the refusals.

A flood of requests must degrade a service gracefully, the way a damaged
member degrades one extraction.  This module holds the parts of that
discipline that keep their own state:

* :class:`AdmissionGate` -- a bounded concurrency gate.  At most
  ``max_inflight`` archive-work requests execute at once; up to
  ``queue_depth`` more wait briefly (``queue_timeout``) for a slot, first
  come first served, and everything beyond that is *shed* with a structured
  :class:`OverloadedError` carrying a ``retry_after_seconds`` hint derived
  from the measured mean request duration and the current backlog.  There
  is one class of request: a slot freed while requests wait is handed
  straight to the oldest of them, so no later arrival can take it first.

* :class:`CircuitBreaker` -- the state machine of one archive's breaker:
  repeated request failures open it; while open, requests for that archive
  are refused with :class:`CircuitOpenError` (``retry_after_seconds`` =
  remaining cool-down) instead of occupying pool workers; after
  ``reset_timeout`` a single half-open probe is let through, and its
  success closes the breaker again.

The per-client quota (a count of request-table rows) and the per-archive
breakers live in :class:`~repro.parallel.service.BatchService`, under the
one lock of its request table; a request meets quota, then gate, then breaker.

Every refusal is a :class:`ServiceRejection`: a structured error with a
stable wire ``code`` (the protocol's ``error_code`` field -- see
``docs/vxserve-protocol.md``) and an optional retry hint, never a dropped
connection.  Shed or rejected requests run no guest work at all, so every
*admitted* extraction remains byte-identical to a serial run.

Both classes take an injectable ``clock`` (defaulting to
:func:`time.monotonic`) so tests can drive breaker cool-downs and retry
hints deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque

from repro.errors import VxaError

#: Clients that send no ``client`` id share one quota bucket.
ANONYMOUS_CLIENT = "anonymous"

#: Seed for the mean-request-duration estimate before any request finished;
#: only shapes the very first ``retry_after_seconds`` hints.
_DEFAULT_DURATION = 0.1

#: EWMA weight for the mean request duration feeding retry hints.
_DURATION_ALPHA = 0.2


# --------------------------------------------------------------------------
# Structured refusals (the service's error taxonomy)
# --------------------------------------------------------------------------

class ServiceRejection(VxaError):
    """The service refused a request without attempting any archive work.

    ``code`` is the stable wire identifier (the JSON response's
    ``error_code``); ``retryable`` says whether the same request may
    succeed later against the same server (the client's retry loop keys
    off the wire code, not this class).  ``retry_after_seconds`` is the
    server's backoff hint, when it has one.
    """

    code = "rejected"
    retryable = True

    def __init__(self, message: str, *,
                 retry_after_seconds: float | None = None):
        super().__init__(message)
        self.retry_after_seconds = retry_after_seconds


class OverloadedError(ServiceRejection):
    """Admission gate full and the brief wait queue is exhausted."""

    code = "overloaded"


class QuotaExceededError(ServiceRejection):
    """The client already has its quota of requests in flight."""

    code = "quota_exceeded"


class CircuitOpenError(ServiceRejection):
    """The target archive's circuit breaker is open (or mid-probe)."""

    code = "circuit_open"


class DrainingError(ServiceRejection):
    """The service is draining and accepts no new archive work."""

    code = "draining"
    retryable = False


class RequestTooLargeError(ServiceRejection):
    """A request line exceeded the transport's size cap."""

    code = "request_too_large"
    retryable = False


class FaultPlanRefusedError(ServiceRejection):
    """A request carried a fault plan; faults are installed, never sent."""

    code = "fault_plan_refused"
    retryable = False


# --------------------------------------------------------------------------
# Admission gate
# --------------------------------------------------------------------------

class _Waiter:
    """One queued request; :meth:`AdmissionGate.release` hands it a slot and
    wakes it alone, on a condition of its own over the gate's lock."""

    __slots__ = ("admitted", "granted")

    def __init__(self, lock):
        self.admitted = False
        self.granted = threading.Condition(lock)


class AdmissionGate:
    """Bounded concurrency with a brief FIFO queue, then load shedding.

    Args:
        max_inflight: concurrent execution slots (``None`` = unbounded --
            the gate still counts, never blocks or sheds).
        queue_depth: how many requests may wait for a slot; ``0`` sheds
            immediately once the slots are full.
        queue_timeout: longest a queued request waits before being shed.
        clock: monotonic time source (injectable for tests).

    Thread-safe; every public method may be called from any handler thread.
    The slot count and the queue are touched only under the condition.
    """

    def __init__(self, max_inflight: int | None = None, queue_depth: int = 0,
                 queue_timeout: float = 0.25, *, clock=time.monotonic):
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be at least 1 (or None)")
        if queue_depth < 0:
            raise ValueError("queue_depth must be non-negative")
        if queue_timeout < 0:
            raise ValueError("queue_timeout must be non-negative")
        self.max_inflight = max_inflight
        self.queue_depth = queue_depth
        self.queue_timeout = queue_timeout
        self._clock = clock
        # The gate's lock.  A queued request waits on a condition of its own
        # over it (:class:`_Waiter`), so a release wakes the one it serves.
        self._condition = threading.Condition()
        self._inflight = 0
        self._waiters: deque[_Waiter] = deque()
        self._mean_duration = _DEFAULT_DURATION
        # Monotonic counters (scrape-friendly: they only ever increase).
        self.admitted = 0
        self.completed = 0
        self.queued = 0
        self.shed_total = 0
        self.peak_inflight = 0
        self.peak_queue = 0

    def _shed(self, reason: str, backlog: int) -> OverloadedError:
        """Count one shed; its hint is the backlog over capacity, in
        mean-request units (condition held)."""
        self.shed_total += 1
        hint = self._mean_duration * (backlog + 1) / self.max_inflight
        return OverloadedError(reason,
                               retry_after_seconds=round(max(0.05, hint), 3))

    def admit(self) -> None:
        """Take an execution slot, queueing briefly; sheds when saturated.

        Raises :class:`OverloadedError` (with a retry hint) when the gate
        and its queue are full, or when the queue wait times out.
        """
        with self._condition:
            if self.max_inflight is None or self._inflight < self.max_inflight:
                self._inflight += 1
                self.peak_inflight = max(self.peak_inflight, self._inflight)
                self.admitted += 1
                return
            if len(self._waiters) >= self.queue_depth:
                raise self._shed(
                    f"overloaded: {self._inflight} in flight, queue of "
                    f"{self.queue_depth} full",
                    self._inflight + len(self._waiters))
            waiter = _Waiter(self._condition)
            self._waiters.append(waiter)
            self.queued += 1
            self.peak_queue = max(self.peak_queue, len(self._waiters))
            deadline = self._clock() + self.queue_timeout
            while not waiter.admitted:
                remaining = deadline - self._clock()
                if remaining <= 0:
                    self._waiters.remove(waiter)
                    raise self._shed(
                        f"overloaded: no execution slot freed within "
                        f"{self.queue_timeout}s",
                        self._inflight + len(self._waiters))
                waiter.granted.wait(remaining)
            self.admitted += 1

    def release(self, duration: float | None = None) -> None:
        """Return a slot; ``duration`` feeds the retry-hint estimate.

        With requests queued, the slot passes straight to the oldest of
        them and is never free, so a later arrival cannot jump the queue.
        """
        with self._condition:
            self.completed += 1
            if duration is not None and duration >= 0:
                self._mean_duration += _DURATION_ALPHA * (
                    duration - self._mean_duration)
            if self._waiters:
                waiter = self._waiters.popleft()
                waiter.admitted = True
                waiter.granted.notify()
            else:
                self._inflight -= 1

    def snapshot(self) -> dict:
        """Configuration and point-in-time gauges (``health``)."""
        with self._condition:
            return {
                "max_inflight": self.max_inflight,
                "queue_depth": self.queue_depth,
                "queue_timeout": self.queue_timeout,
                "inflight": self._inflight,
                "queued_now": len(self._waiters),
                "mean_request_seconds": round(self._mean_duration, 4),
                "peak_inflight": self.peak_inflight,
                "peak_queue": self.peak_queue,
            }

    def counters(self) -> dict:
        """The monotonic counters (``stats``), read at one instant."""
        with self._condition:
            return {
                "admitted_total": self.admitted,
                "completed_total": self.completed,
                "queued_total": self.queued,
                "shed_overloaded_total": self.shed_total,
            }


# --------------------------------------------------------------------------
# Circuit breakers
# --------------------------------------------------------------------------

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure breaker for one archive: closed -> open -> half-open -> closed.

    Not itself thread-safe -- :class:`~repro.parallel.service.BatchService`
    calls it under its lock.  ``threshold`` consecutive failures trip it;
    after ``reset_timeout`` seconds one probe request is admitted, and its
    outcome decides between closing and re-opening.
    """

    def __init__(self, threshold: int = 5, reset_timeout: float = 30.0, *,
                 clock=time.monotonic):
        self.threshold = threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self.state = STATE_CLOSED
        self.failures = 0
        self.trips = 0
        self.rejections = 0
        self._opened_at: float | None = None
        self._probe_inflight = False

    def check(self) -> None:
        """Gate one request; raises :class:`CircuitOpenError` when open.

        A successful return while half-open *claims the probe slot*: the
        caller must follow up with :meth:`record_success` or
        :meth:`record_failure`.
        """
        if self.state == STATE_OPEN:
            elapsed = self._clock() - self._opened_at
            if elapsed < self.reset_timeout:
                self.rejections += 1
                raise CircuitOpenError(
                    f"circuit open after {self.failures} consecutive "
                    f"failure(s); retry when the cool-down ends",
                    retry_after_seconds=round(self.reset_timeout - elapsed,
                                              3))
            self.state = STATE_HALF_OPEN
            self._probe_inflight = False
        if self.state == STATE_HALF_OPEN:
            if self._probe_inflight:
                self.rejections += 1
                raise CircuitOpenError(
                    "circuit half-open with a probe already in flight",
                    retry_after_seconds=0.1)
            self._probe_inflight = True

    def record_success(self) -> None:
        self.state = STATE_CLOSED
        self.failures = 0
        self._opened_at = None
        self._probe_inflight = False

    def record_failure(self) -> None:
        if self.state == STATE_HALF_OPEN:
            self._probe_inflight = False
            self._trip()
            return
        self.failures += 1
        if self.failures >= self.threshold:
            self._trip()

    def _trip(self) -> None:
        self.state = STATE_OPEN
        self._opened_at = self._clock()
        self.trips += 1

    def snapshot(self) -> dict:
        entry = {
            "state": self.state,
            "failures": self.failures,
            "trips_total": self.trips,
            "rejections_total": self.rejections,
        }
        if self.state == STATE_OPEN and self._opened_at is not None:
            remaining = self.reset_timeout - (self._clock() - self._opened_at)
            entry["retry_after_seconds"] = round(max(0.0, remaining), 3)
        return entry


__all__ = [
    "ANONYMOUS_CLIENT",
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitOpenError",
    "DrainingError",
    "FaultPlanRefusedError",
    "OverloadedError",
    "QuotaExceededError",
    "RequestTooLargeError",
    "ServiceRejection",
    "STATE_CLOSED",
    "STATE_HALF_OPEN",
    "STATE_OPEN",
]
