"""Worker-side bootstrap: long-lived archives and decoder sessions.

A worker (one OS process of the ``ProcessPoolExecutor``, or one thread of
the in-process pool) keeps a small LRU of open :class:`~repro.api.Archive`
objects keyed by archive identity and options.  Each cached archive owns its
:class:`~repro.api.session.DecoderSession` and so its warm VMs; the
translated code those VMs run is not the worker's but the process's
(:mod:`repro.vm.images`, one :class:`~repro.vm.code_cache.CodeCache` per
decoder image digest and translator configuration) -- a decoder's
superblocks are translated once per process and reused by every member,
every archive and every thread-pool worker that meets the same image.

Worker state lives in ``threading.local``: a process-pool worker runs tasks
on its main thread, a thread-pool worker is itself a thread, so the same
bootstrap serves both and archives and sessions are never shared between
workers (the image registry, which is, takes its own lock).

The shard runners return plain dicts of primitives -- they must cross a
pickle boundary in process mode and a JSON boundary in ``vxserve``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import multiprocessing
import os
import threading
from collections import OrderedDict

#: Open archives kept per worker; beyond this the least-recently-used is
#: closed so a long-running service touching many workers stays bounded.
MAX_CACHED_ARCHIVES = 8

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
def _worker_scope():
    """Mark the current thread as running a pool shard."""
    previous = getattr(_STATE, "in_worker", False)
    _STATE.in_worker = True
    try:
        yield
    finally:
        _STATE.in_worker = previous


def _archives() -> OrderedDict:
    cache = getattr(_STATE, "archives", None)
    if cache is None:
        cache = OrderedDict()
        _STATE.archives = cache
    return cache


def _source_key(source: dict):
    if "path" in source:
        # Key on file identity, not just the name: a long-lived pool
        # (vxserve) must not serve a cached Archive whose ZipReader parsed
        # a file that has since been replaced at the same path.
        path = str(source["path"])
        try:
            status = os.stat(path)
            identity = (status.st_ino, status.st_size, status.st_mtime_ns)
        except OSError:
            identity = None
        return ("path", path, identity)
    return ("data", hashlib.sha256(source["data"]).hexdigest())


def _options_key(options):
    # ReadOptions is frozen but not reliably hashable (a custom
    # ExecutionLimits or registry is a mutable object), so key on a
    # primitive projection of every field -- derived from the dataclass, so
    # a new option can never be served a stale cached archive.  ``jobs`` and
    # ``executor`` are left out: workers always run the serial path.  The
    # registry is fingerprinted by its codec names, never object identity:
    # process-mode payloads unpickle a fresh registry object per task, and
    # an identity key would miss the cache (reopening the archive and
    # cold-starting the session) every time.
    key = []
    for field in dataclasses.fields(options):
        if field.name in ("jobs", "executor"):
            continue
        value = getattr(options, field.name)
        if field.name == "registry" and value is not None:
            value = tuple(sorted(value.names))
        elif not isinstance(value, (str, int, float, type(None))):
            value = repr(value)
        key.append(value)
    return tuple(key)


def _acquire_archive(source: dict, options):
    """The worker's cached archive for ``(source, options)``, opened on miss."""
    import repro.api as vxa

    source_key = _source_key(source)
    key = (source_key, _options_key(options))
    cache = _archives()
    archive = cache.get(key)
    if archive is not None:
        cache.move_to_end(key)
        return archive
    if "path" in source:
        # The file at this path was replaced (identity changed): close any
        # archives parsed from its previous incarnation right away.
        stale = [existing for existing in cache
                 if existing[0][:2] == source_key[:2] and existing[0] != source_key]
        for existing in stale:
            cache.pop(existing).close()
    target = source["path"] if "path" in source else source["data"]
    # Workers always run the serial path over their shard; the scheduler
    # already decided the parallelism.
    archive = vxa.open(target, options.with_changes(jobs=1))
    cache[key] = archive
    while len(cache) > MAX_CACHED_ARCHIVES:
        _, evicted = cache.popitem(last=False)
        evicted.close()
    return archive


def _evict_archive(source: dict, options) -> None:
    """Drop this worker's cached archive for ``(source, options)``, if any.

    Crash retries run the suspect member against a pristine VM *and* a
    pristine :class:`~repro.api.session.DecoderSession`: evicting the cached
    archive forces :func:`_acquire_archive` to reopen it from scratch, so no
    session state from the crashed attempt can influence the retry.
    """
    key = (_source_key(source), _options_key(options))
    archive = _archives().pop(key, None)
    if archive is not None:
        archive.close()


def shutdown_worker() -> None:
    """Close this worker's cached archives.

    Thread-pool teardown (:meth:`WorkerPool.close`) runs this on every
    worker thread so no file handles outlive the pool; process workers
    release their handles when the process exits.
    """
    cache = getattr(_STATE, "archives", None)
    if cache:
        for archive in cache.values():
            archive.close()
        cache.clear()


def _stats_delta(before: dict, after: dict) -> dict:
    return {key: after[key] - before.get(key, 0) for key in after}


def run_extract_shard(payload: dict) -> dict:
    """Extract one shard's members; returns records plus the stats delta.

    Payload keys: ``source`` (``{"path": ...}`` or ``{"data": ...}``),
    ``options`` (:class:`~repro.api.options.ReadOptions`), ``names`` (the
    shard's members, already in the scheduler's cache-friendly order),
    ``directory``, ``mode``, ``force_decode``; plus the containment
    layer's ``worker`` (shard worker id stamped onto failure records) and
    ``fresh`` (crash retry: reopen the archive so the member runs against
    a pristine VM and session).
    """
    with _worker_scope():
        if payload.get("fresh"):
            _evict_archive(payload["source"], payload["options"])
        archive = _acquire_archive(payload["source"], payload["options"])
        before = archive.session.stats.as_dict()
        report = archive.extract_into(
            payload["directory"],
            names=payload["names"],
            mode=payload.get("mode"),
            force_decode=payload.get("force_decode"),
            jobs=1,
        )
        after = archive.session.stats.as_dict()
        # The archive stays open for the next shard, a process worker's until
        # it dies: hand what this shard translated to the store now.
        archive.session.save()
    worker = payload.get("worker")
    failures = []
    for failure in report.failures:
        record = failure.as_dict()
        record["worker"] = worker
        failures.append(record)
    return {
        "records": [
            {
                "name": record.name,
                "path": str(record.path),
                "size": record.size,
                "used_vxa_decoder": record.used_vxa_decoder,
                "decoded": record.decoded,
                "codec_name": record.codec_name,
            }
            for record in report
        ],
        "failures": failures,
        "stats": _stats_delta(before, after),
    }


def run_check_shard(payload: dict) -> dict:
    """Check one shard's members; returns verdicts plus session counters.

    The worker's :meth:`Archive.check` runs over the shard's names in the
    scheduler's order with a dedicated session, exactly as the serial check
    does for the whole archive, so per-member verdicts cannot differ.
    """
    from repro.core.policy import VmReusePolicy

    with _worker_scope():
        if payload.get("fresh"):
            _evict_archive(payload["source"], payload["options"])
        archive = _acquire_archive(payload["source"], payload["options"])
        reuse = payload.get("reuse")
        report = archive.check(
            reuse=VmReusePolicy(reuse) if reuse is not None else None,
            names=payload["names"],
            jobs=1,
        )
    return {
        "checked": report.checked,
        "passed": report.passed,
        "failures": list(report.failures),
        **report.counters(),
    }
