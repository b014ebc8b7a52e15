"""Worker pool abstraction: OS processes for scaling, threads for cheapness.

``ProcessPoolExecutor`` is the default for real work -- guest decoders are
CPU-bound pure Python, so only separate interpreters scale across cores.
The in-process ``ThreadPoolExecutor`` flavour exists for small archives
(process startup would dominate), for payloads that do not pickle, and for
tests; it exercises exactly the same scheduler, worker bootstrap and stats
plumbing, just without the serialization boundary.  An archive opened from
a file object needs no threads: the sharded driver spools its bytes to a
temp file that process workers reopen by path.  The thread flavour is also
why the translator's compiled-source memo, the image registry and every
``CodeCache`` mutation path take locks: its workers share one cache per
decoder image.

``resolve_executor`` centralises the ``"auto"`` policy so the facade, the
CLI and ``vxserve`` agree on it.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
from concurrent.futures import (
    BrokenExecutor,
    FIRST_EXCEPTION,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from dataclasses import dataclass

from repro.api.options import EXECUTOR_AUTO, EXECUTOR_PROCESS, EXECUTOR_THREAD
from repro.errors import WorkerCrashed

#: Below this much total stored work (bytes), process startup and payload
#: pickling cost more than multi-core buys; ``auto`` stays in-process.
PROCESS_MIN_COST = 4 << 20


def thread_safe_start_method() -> str:
    """The start method safe under a multithreaded parent (never fork)."""
    if "forkserver" in multiprocessing.get_all_start_methods():
        return "forkserver"
    return "spawn"  # pragma: no cover - platform-dependent


def _default_start_method() -> str:
    """Fork while it is safe (single-threaded parent), forkserver after."""
    if hasattr(os, "fork") and threading.active_count() == 1:
        return "fork"
    return thread_safe_start_method()


def resolve_executor(kind: str, jobs: int, *, total_cost: int | None = None,
                     payload=None) -> str:
    """Pick the concrete executor flavour for an ``"auto"`` request.

    Processes are chosen only when they can plausibly win: more than one
    worker requested, more than one core to run them on, enough work to
    amortise startup, and a payload the pickle boundary can actually carry.
    """
    if kind != EXECUTOR_AUTO:
        return kind
    if jobs <= 1 or (os.cpu_count() or 1) <= 1:
        return EXECUTOR_THREAD
    if total_cost is not None and total_cost < PROCESS_MIN_COST:
        return EXECUTOR_THREAD
    if payload is not None:
        try:
            pickle.dumps(payload)
        except Exception:
            return EXECUTOR_THREAD
    return EXECUTOR_PROCESS


@dataclass
class WorkOutcome:
    """What happened to one payload submitted through :meth:`WorkerPool.run_all`.

    Exactly one of ``result`` (what the runner returned: a shard runner's
    report objects) and ``error`` is populated.  ``crashed`` marks the
    worker-death flavour of failure (a dead process pool worker, or a
    simulated :class:`~repro.errors.WorkerCrashed` in thread mode): the
    payload's work was lost wholesale, not rejected, and the engine's crash
    recovery may reschedule it.
    """

    payload: dict
    result: object = None
    error: BaseException | None = None
    crashed: bool = False


class WorkerPool:
    """A fixed pool of workers executing shard payloads.

    Args:
        jobs: maximum concurrent workers.
        kind: ``"process"``, ``"thread"`` or ``"auto"`` (resolved with
            :func:`resolve_executor` -- pass ``total_cost``/``payload`` for
            a better decision).
        total_cost: optional total work estimate feeding the auto policy.
        payload: optional representative payload feeding the auto policy's
            picklability probe.

    The pool is long-lived by design: ``vxserve`` keeps one across requests
    so its workers (and, in process mode, their per-process decoder-image
    reports and translations) are not started again per request.  It is
    also a context manager for the one-shot facade path.

    ``start_method`` picks the multiprocessing start method.  The default
    (``None``) forks when the creating process is still single-threaded --
    fork works from any ``__main__`` (stdin scripts, the REPL) and is cheap
    -- but switches to forkserver/spawn when threads already exist, because
    a child forked while another thread holds an internal lock inherits
    that held lock and deadlocks.  ``vxserve`` pins ``"forkserver"``
    explicitly: its socket transport submits from handler threads that do
    not exist yet when the pool is created, and its ``__main__`` is always
    importable so the re-importing start methods are safe there.
    """

    def __init__(self, jobs: int, kind: str = EXECUTOR_AUTO, *,
                 total_cost: int | None = None, payload=None,
                 start_method: str | None = None):
        if jobs < 1:
            raise ValueError("jobs must be at least 1")
        self.jobs = jobs
        self.kind = resolve_executor(kind, jobs, total_cost=total_cost,
                                     payload=payload)
        if self.kind not in (EXECUTOR_PROCESS, EXECUTOR_THREAD):
            raise ValueError(f"unknown executor {kind!r}")
        # Pin the start method at construction so a respawn after a worker
        # crash recreates an identical executor: _default_start_method()
        # keys off threading.active_count(), which will have changed by then.
        self._start_method = (start_method or _default_start_method()
                              if self.kind == EXECUTOR_PROCESS else None)
        self._executor = self._make_executor()
        self.respawns = 0

    def _make_executor(self):
        if self.kind == EXECUTOR_PROCESS:
            context = multiprocessing.get_context(self._start_method)
            return ProcessPoolExecutor(max_workers=self.jobs,
                                       mp_context=context)
        return ThreadPoolExecutor(max_workers=self.jobs,
                                  thread_name_prefix="vxa-worker")

    def alive_workers(self) -> int | None:
        """Live OS worker processes, or ``None`` for thread pools.

        Thread workers share this process and cannot die independently, so
        there is nothing to count.  Process counts come from the executor's
        worker table; workers are spawned lazily, so ``0`` before the first
        submission is normal, not a failure.  ``vxserve``'s ``health`` op
        surfaces this as pool liveness.
        """
        if self.kind != EXECUTOR_PROCESS:
            return None
        processes = getattr(self._executor, "_processes", None) or {}
        return sum(1 for process in processes.values() if process.is_alive())

    def respawn(self) -> None:
        """Replace a broken executor with a fresh one of the same shape.

        A dead process-pool worker breaks the whole ``ProcessPoolExecutor``
        (every pending future fails with ``BrokenProcessPool`` and further
        submits are refused), so recovery needs a new executor -- same
        flavour, same worker count, same start method.  Thread executors
        never break, but respawning one is harmless and keeps the recovery
        path uniform.
        """
        self._executor.shutdown(wait=False, cancel_futures=True)
        self._executor = self._make_executor()
        self.respawns += 1

    def run(self, fn, payloads: list) -> list:
        """Run ``fn(payload)`` for every payload; results in payload order.

        Raises the first failure (by payload order) after letting the other
        workers finish or fail -- a deterministic error surface regardless
        of completion timing.
        """
        futures = [self._executor.submit(fn, payload) for payload in payloads]
        wait(futures, return_when=FIRST_EXCEPTION)
        errors = [future.exception() for future in futures]
        for error in errors:
            if error is not None:
                raise error
        return [future.result() for future in futures]

    def run_all(self, fn, payloads: list) -> list:
        """Run every payload to an outcome; never raises for worker failures.

        Returns one :class:`WorkOutcome` per payload, in payload order.  A
        worker death -- real (``BrokenProcessPool``: the OS process died and
        took every pending future with it) or simulated
        (:class:`~repro.errors.WorkerCrashed` from the fault-injection
        hooks in thread mode) -- marks the outcome ``crashed``; any other
        exception is carried in ``error``.  A broken executor is respawned
        before returning, so the caller can resubmit crashed payloads
        immediately.
        """
        outcomes = [WorkOutcome(payload=payload) for payload in payloads]
        futures: dict[int, object] = {}
        broken = False
        for index, payload in enumerate(payloads):
            try:
                futures[index] = self._executor.submit(fn, payload)
            except BrokenExecutor as error:
                # The pool broke under an earlier payload of this batch;
                # nothing was submitted for this one.
                broken = True
                outcomes[index].crashed = True
                outcomes[index].error = error
        wait(list(futures.values()))
        for index, future in futures.items():
            error = future.exception()
            if error is None:
                outcomes[index].result = future.result()
            elif isinstance(error, (BrokenExecutor, WorkerCrashed)):
                broken = broken or isinstance(error, BrokenExecutor)
                outcomes[index].crashed = True
                outcomes[index].error = error
            else:
                outcomes[index].error = error
        if broken:
            self.respawn()
        return outcomes

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
