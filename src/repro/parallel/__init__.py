"""``repro.parallel`` -- the sharded multi-worker extraction engine.

The paper's core observation makes archive reading embarrassingly parallel:
every member carries (a reference to) its own sandboxed decoder, so members
are independent decode jobs with *no* shared mutable state beyond the
archive file itself.  This package exploits that:

* :class:`~repro.parallel.scheduler.Scheduler` groups an archive's members
  by decoder image and cost estimate and shards them across ``N`` workers,
  so a worker *process* translates the decoders of its own members only
  (the ``CodeCache`` of an image is process-wide, see
  :mod:`repro.vm.images`: thread workers share it, process workers each
  build their own),
* :class:`~repro.parallel.pool.WorkerPool` runs the shards on a
  ``ProcessPoolExecutor`` (true multi-core scaling) or an in-process thread
  pool (cheap startup for small archives and tests),
* :mod:`~repro.parallel.worker` is the worker-side bootstrap: each worker
  owns long-lived archives and decoder sessions, reused across shards and
  -- under ``vxserve`` -- across requests, so translations are paid once
  per process,
* :mod:`~repro.parallel.service` is ``vxserve``: a long-running batch
  service (JSON-lines over stdio or a unix socket) multiplexing
  extract/check requests for many archives onto one shared worker pool,
* :mod:`~repro.parallel.admission` keeps ``vxserve`` overload-safe: a
  bounded admission gate with brief queueing and structured load shedding,
  per-client quotas, interactive/batch priorities, and per-archive circuit
  breakers (protocol spec: ``docs/vxserve-protocol.md``; the matching
  retrying client is :mod:`repro.client` / the ``vxquery`` script).

The facade surfaces all of this as ``Archive.extract_into(..., jobs=N)``,
``Archive.check(jobs=N)`` and ``ReadOptions.jobs`` -- output bytes and check
verdicts are *identical* to the serial path, because each worker runs the
serial code over its shard and the §2.4 ``VmReusePolicy`` /
``SecurityAttributes.same_domain`` decisions are taken per worker session
exactly as a serial session takes them.
"""

from repro.parallel.admission import (
    AdmissionGate,
    CircuitBreaker,
    CircuitBreakerBoard,
    ClientQuotas,
    ServiceRejection,
)
from repro.parallel.engine import parallel_check, parallel_extract_into
from repro.parallel.pool import WorkerPool, resolve_executor
from repro.parallel.scheduler import Scheduler, Shard

__all__ = [
    "AdmissionGate",
    "CircuitBreaker",
    "CircuitBreakerBoard",
    "ClientQuotas",
    "Scheduler",
    "ServiceRejection",
    "Shard",
    "WorkerPool",
    "resolve_executor",
    "parallel_extract_into",
    "parallel_check",
]
