"""Orchestration: plan, shard, dispatch, recover, and merge for parallel reads.

The facade (:meth:`Archive.extract_into` / :meth:`Archive.check` with
``jobs > 1``) calls in here.  The flow is always the same four steps:

1. ask the archive for its :class:`~repro.api.archive.MemberPlan`s,
2. shard them with the cache-affine :class:`~repro.parallel.scheduler.Scheduler`,
3. run the shards on a :class:`~repro.parallel.pool.WorkerPool` (an
   ephemeral one for facade calls; ``vxserve`` passes its own long-lived
   pool so worker caches stay hot across requests),
4. merge results deterministically: extraction records return in the
   caller's requested order, check failures in archive order, and every
   worker session's counters are summed.

Output equality with the serial path is structural, not incidental: each
worker executes the *serial* extraction/check code over its shard, and every
decode is verified against the member's recorded CRC before anything is
surfaced.

This module also owns worker crash recovery.  A shard whose worker died
(``BrokenProcessPool`` in process mode, a simulated
:class:`~repro.errors.WorkerCrashed` in thread mode) loses its results
wholesale; under a salvage policy its members are rescheduled one at a
time against a respawned pool -- extraction is idempotent (each member
streams through a temp-and-rename), so re-running members the crashed
shard had already finished is safe.  Each reschedule counts against the
member's ``ReadOptions.retries`` budget and runs with a pristine VM and
session (``fresh`` payload flag); a member that keeps killing workers is
quarantined instead of retried forever.  Re-running culprit and
collateral members individually is also how the culprit is *identified*:
only it crashes again.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import tempfile

from repro.core.types import IntegrityReport, SessionStats
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import Scheduler
from repro.parallel.worker import run_check_shard, run_extract_shard


@contextlib.contextmanager
def _shippable_source(archive):
    """The archive's worker source, spooled to a temp file if data-backed.

    Every shard payload references the same source, and process-mode
    payloads are pickled independently -- shipping a big archive's raw
    bytes once per shard would copy it ``jobs`` times over the IPC pipe.
    A temp file is written once and passed by path instead; workers that
    still hold it open when it is unlinked keep a valid handle (POSIX).
    """
    source = archive.worker_source()
    if "path" in source:
        yield source
        return
    handle, spooled = tempfile.mkstemp(prefix="vxa-archive-", suffix=".zip")
    try:
        with os.fdopen(handle, "wb") as sink:
            sink.write(source["data"])
        yield {"path": spooled}
    finally:
        os.unlink(spooled)


@contextlib.contextmanager
def _pool_for(archive, shards, payloads, jobs, pool):
    """The worker pool to run on: the caller's, or an ephemeral one."""
    if pool is not None:
        yield pool
        return
    total_cost = sum(shard.cost for shard in shards)
    with WorkerPool(min(jobs, len(shards)), archive.options.executor,
                    total_cost=total_cost, payload=payloads[0]) as ephemeral:
        yield ephemeral


def _run_recovering(pool, runner, payloads, single, *, retries, absorb,
                    exhausted, recover=True):
    """Run ``payloads`` on ``pool``; see the module docstring for recovery.

    Each member of a crashed shard is charged one attempt and re-run on the
    payload ``single(name)`` builds, until it completes or has cost more than
    ``retries`` attempts and goes to ``exhausted(name, attempts)``.  Reruns
    go one member at a time: a process-pool break fails every in-flight
    future, so batching them would charge innocent members for the culprit's
    crash.  With ``recover`` false a crash is raised like any shard error.
    """
    attempts: dict[str, int] = {}
    retry: list[str] = []

    def settle(outcome, names):
        if outcome.crashed and recover:
            for name in names:
                attempts[name] = attempts.get(name, 0) + 1
                retry.append(name)
        elif outcome.error is not None:
            raise outcome.error
        else:
            absorb(outcome.result)

    for outcome in pool.run_all(runner, payloads):
        settle(outcome, outcome.payload["names"])
    while retry:
        rerun = list(retry)
        retry.clear()
        for name in rerun:
            if attempts[name] > retries:
                exhausted(name, attempts[name])
            else:
                [outcome] = pool.run_all(runner, [single(name)])
                settle(outcome, [name])


def parallel_extract_into(archive, directory, names, jobs, *,
                          mode=None, force_decode=None, pool=None):
    """Sharded :meth:`Archive.extract_into`; see that method for semantics."""
    from repro.api.archive import (ExtractionRecord, ExtractionReport,
                                   MemberFailure)
    from repro.api.options import ON_ERROR_ABORT, ON_ERROR_QUARANTINE

    options = archive.options
    plan = archive.extraction_plan(names, mode=mode, force_decode=force_decode)
    shards = Scheduler(jobs).plan(plan)
    if len(shards) <= 1:
        return archive.extract_into(directory, names, mode=mode,
                                    force_decode=force_decode, jobs=1)
    by_name: dict[str, ExtractionRecord] = {}
    failures: list[MemberFailure] = []

    def absorb(result):
        archive.session.stats.merge(SessionStats.from_dict(result["stats"]))
        for record in result["records"]:
            by_name[record["name"]] = ExtractionRecord(
                name=record["name"],
                path=pathlib.Path(record["path"]),
                size=record["size"],
                used_vxa_decoder=record["used_vxa_decoder"],
                decoded=record["decoded"],
                codec_name=record["codec_name"],
            )
        for failure in result["failures"]:
            failures.append(MemberFailure.from_dict(failure))

    def exhausted(name, attempts):
        failures.append(MemberFailure(
            name=name,
            error_type="WorkerCrashed",
            message=(f"member killed its worker {attempts} time(s); "
                     f"retry budget ({options.retries}) exhausted"),
            attempts=attempts,
            quarantined=options.on_error == ON_ERROR_QUARANTINE,
        ))

    with _shippable_source(archive) as source:
        base = {
            "source": source,
            "options": options,
            "directory": str(directory),
            "mode": mode,
            "force_decode": force_decode,
        }
        payloads = [dict(base, names=shard.names, worker=shard.worker)
                    for shard in shards]
        with _pool_for(archive, shards, payloads, jobs, pool) as active:
            _run_recovering(
                active, run_extract_shard, payloads,
                lambda name: dict(base, names=[name], worker=None, fresh=True),
                retries=options.retries, absorb=absorb, exhausted=exhausted,
                recover=options.on_error != ON_ERROR_ABORT)

    order = {name: index for index, name in enumerate(names)}
    failures.sort(key=lambda failure: order.get(failure.name, len(order)))
    return ExtractionReport(
        (by_name[name] for name in names if name in by_name),
        failures,
    )


def parallel_check(archive, jobs, *, reuse=None, names=None, pool=None):
    """Sharded :meth:`Archive.check`; see that method for semantics."""
    from repro.api import MODE_VXA

    wanted = names if names is not None else archive.names()
    # Mode VXA + force_decode mirrors the check's contract: every
    # decoder-bearing member runs its archived decoder, nothing else runs.
    plan = [item for item in archive.extraction_plan(
                wanted, mode=MODE_VXA, force_decode=True)
            if item.decoder_offset is not None]
    order = {item.name: item.index for item in plan}
    shards = Scheduler(jobs).plan(plan)
    if len(shards) <= 1:
        return archive.check(reuse=reuse, names=names, jobs=1)
    report = IntegrityReport()
    failures: list[tuple[int, str]] = []

    def absorb(result):
        report.checked += result["checked"]
        report.passed += result["passed"]
        for failure in result["failures"]:
            failures.append((_failure_order(failure, order), failure))
        report.merge(SessionStats.from_dict(result))

    def exhausted(name, attempts):
        report.checked += 1
        failures.append((order.get(name, len(order)),
                         f"{name}: worker crashed {attempts} time(s); "
                         f"retry budget exhausted"))

    with _shippable_source(archive) as source:
        base = {
            "source": source,
            "options": archive.options,
            "reuse": reuse.value if reuse is not None else None,
        }
        payloads = [dict(base, names=shard.names) for shard in shards]
        with _pool_for(archive, shards, payloads, jobs, pool) as active:
            # The check's contract is record-everything-raise-nothing, so
            # crash recovery applies regardless of the on_error policy.
            _run_recovering(
                active, run_check_shard, payloads,
                lambda name: dict(base, names=[name], fresh=True),
                retries=archive.options.retries, absorb=absorb,
                exhausted=exhausted)

    report.failures.extend(failure for _, failure in sorted(failures))
    return report


def _failure_order(failure: str, order: dict) -> int:
    """Archive position of the member a failure string names.

    Failure strings are ``f"{name}: {reason}"`` and member names may
    themselves contain colons, so match against the known names (longest
    match wins) instead of parsing the string.
    """
    best_name = None
    for name in order:
        if failure.startswith(f"{name}:"):
            if best_name is None or len(name) > len(best_name):
                best_name = name
    return order[best_name] if best_name is not None else len(order)
