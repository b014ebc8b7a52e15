"""Worker-side bootstrap: one shard, one archive, one decoder session.

A worker (one OS process of the ``ProcessPoolExecutor``, or one thread of
the in-process pool) keeps no archive, session or VM between shards.  Each
shard opens its archive, runs the serial path over its members and closes
the archive again; closing writes the session's translations back to the
store (:mod:`repro.vm.store`) and releases its VMs and file handle.  Within
a shard the :class:`~repro.api.session.DecoderSession` reuses VM state
under the §2.4 policy exactly as a serial session does.  What stays warm
across shards and requests is the process's, not the worker's: every
decoder image's analysis report and translated code are kept once per
process by image digest (:mod:`repro.vm.images`), shared by every member,
every archive and every thread-pool worker that meets the same image.

Crash retries need nothing extra: every shard starts on a pristine session
and pristine VMs by construction.

The shard runners return the report objects the serial path built; they
pickle across the process boundary unchanged, and the engine merges them
as they are.  ``vxserve`` encodes only the merged report, never a shard's.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import threading

_STATE = threading.local()


def in_worker() -> bool:
    """Is the current thread executing a pool shard right now?

    The flag is set for the duration of :func:`run_extract_shard` /
    :func:`run_check_shard` only.  The containment layer consults it to
    decide whether a simulated worker kill should crash the shard (so pool
    crash recovery handles it) or be recorded as one contained member
    failure (the serial path).
    """
    return getattr(_STATE, "in_worker", False)


def in_process_worker() -> bool:
    """Is this code running in a child process of a process pool?

    Distinguishes the two worker flavours for the kill-worker fault: a
    process worker can die for real (``os._exit``), a thread worker shares
    the caller's process and must simulate the death by raising instead.
    """
    return multiprocessing.current_process().name != "MainProcess"


@contextlib.contextmanager
def _shard_archive(payload: dict):
    """The prologue every shard runner shares: yields the shard's archive.

    Marks the current thread as running a pool shard and opens the
    payload's source for this shard alone.  Workers always run the serial
    path over their shard; the scheduler already decided the parallelism.
    The shard's session starts its counters at zero: the parent's own open
    already counted what opening the archive verified.
    """
    import repro.api as vxa

    options = payload["options"].with_changes(jobs=1)
    previous = getattr(_STATE, "in_worker", False)
    _STATE.in_worker = True
    try:
        with vxa.open(payload["source"]["path"], options) as archive:
            archive.session.stats = vxa.SessionStats()
            yield archive
    finally:
        _STATE.in_worker = previous


def shutdown_worker() -> None:
    """Does nothing: workers hold no state between shards.

    It remains only because ``benchmarks/vxabench/layers.py`` calls it.
    """


def run_extract_shard(payload: dict):
    """Extract one shard's members; returns ``(ExtractionReport, SessionStats)``.

    Payload keys: ``source`` (``{"path": ...}``, from
    :meth:`~repro.api.archive.Archive.worker_path`),
    ``options`` (:class:`~repro.api.options.ReadOptions`), ``names`` (the
    shard's members, already in the scheduler's cache-friendly order),
    ``directory``, ``mode``, ``force_decode``; plus the containment
    layer's ``worker`` (shard worker id stamped onto failure records).
    """
    with _shard_archive(payload) as archive:
        report = archive.extract_into(
            payload["directory"],
            names=payload["names"],
            mode=payload.get("mode"),
            force_decode=payload.get("force_decode"),
            jobs=1,
        )
    for failure in report.failures:
        failure.worker = payload.get("worker")
    return report, archive.session.stats


def run_check_shard(payload: dict):
    """Check one shard's members; returns its :class:`IntegrityReport`.

    The worker's :meth:`Archive.check` runs over the shard's names in the
    scheduler's order with a dedicated session, exactly as the serial check
    does for the whole archive, so per-member verdicts cannot differ.
    """
    from repro.core.policy import VmReusePolicy

    with _shard_archive(payload) as archive:
        reuse = payload.get("reuse")
        return archive.check(
            reuse=VmReusePolicy(reuse) if reuse is not None else None,
            names=payload["names"],
            jobs=1,
        )
