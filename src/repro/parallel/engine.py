"""Orchestration: plan, shard, dispatch, recover, and merge for parallel reads.

The facade (:meth:`Archive.extract_into` / :meth:`Archive.check` with
``jobs > 1``) calls in here, and both land in one driver,
:func:`_run_sharded`.  Each caller brings only what differs: its
:class:`~repro.api.archive.MemberPlan`s (extraction's plan, or the check's
plan of decoder-bearing members -- both read off the archive's one route
decision), its shard runner, and how to absorb a shard's result.  The driver

1. shards the plan with the cache-affine :class:`~repro.parallel.scheduler.Scheduler`,
2. runs the shards on a :class:`~repro.parallel.pool.WorkerPool` (an
   ephemeral one for facade calls; ``vxserve`` passes its own long-lived
   pool), each shard on an archive and session of its own,
3. hands each shard's result -- the very report objects the serial path
   built in the worker -- to the caller, which merges them
   deterministically: extraction records return in the caller's requested
   order, check failures in archive order, and every worker session's
   counters are summed.

Output equality with the serial path is structural, not incidental: each
worker executes the *serial* extraction/check code over its shard, and that
code reads every member through the archive's one checked read step.

This module also owns worker crash recovery.  A shard whose worker died
(``BrokenProcessPool`` in process mode, a simulated
:class:`~repro.errors.WorkerCrashed` in thread mode) loses its results
wholesale; under a salvage policy its members are rescheduled one at a
time against a respawned pool -- extraction is idempotent (each member
streams through a temp-and-rename), so re-running members the crashed
shard had already finished is safe.  Each reschedule counts against the
member's ``ReadOptions.retries`` budget and, like every shard, runs on a
pristine VM and session; a member that keeps killing workers is
quarantined instead of retried forever.  Re-running culprit and
collateral members individually is also how the culprit is *identified*:
only it crashes again.
"""

from __future__ import annotations

import contextlib

from repro.core.types import IntegrityReport
from repro.parallel.pool import WorkerPool
from repro.parallel.scheduler import Scheduler
from repro.parallel.worker import run_check_shard, run_extract_shard


def _run_sharded(archive, plan, jobs, pool, runner, base, *, absorb,
                 exhausted, recover=True) -> bool:
    """The one sharded driver; both parallel entry points call it.

    It shards ``plan``, takes the path workers reopen the archive by
    (:meth:`Archive.worker_path`), builds every payload from ``base``, runs
    the shards on ``pool`` (or an ephemeral pool) and hands each shard's
    result to ``absorb``.  Returns False, having run nothing, when the plan
    makes at most one shard: the caller's serial path is then the whole job.

    Crash recovery (see the module docstring): each member of a crashed shard
    is charged one attempt and re-run alone as a shard of its own, until it
    completes or has cost more than ``ReadOptions.retries`` attempts and goes
    to ``exhausted(name, attempts)``.  Reruns go one member at a time: a
    process-pool break fails every in-flight future, so batching them would
    charge innocent members for the culprit's crash.  With ``recover`` false
    a crash is raised like any shard error.
    """
    shards = Scheduler(jobs).plan(plan)
    if len(shards) <= 1:
        return False
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

    with contextlib.ExitStack() as stack:
        base = dict(base, source={"path": stack.enter_context(archive.worker_path())},
                    options=archive.options)
        payloads = [dict(base, names=shard.names, worker=shard.worker)
                    for shard in shards]
        if pool is None:
            pool = stack.enter_context(WorkerPool(
                min(jobs, len(shards)), archive.options.executor,
                total_cost=sum(shard.cost for shard in shards),
                payload=payloads[0]))
        for outcome in pool.run_all(runner, payloads):
            settle(outcome, outcome.payload["names"])
        while retry:
            rerun = list(retry)
            retry.clear()
            for name in rerun:
                if attempts[name] > archive.options.retries:
                    exhausted(name, attempts[name])
                else:
                    [outcome] = pool.run_all(
                        runner, [dict(base, names=[name], worker=None)])
                    settle(outcome, [name])
    return True


def parallel_extract_into(archive, directory, names, jobs, *,
                          mode=None, force_decode=None, pool=None):
    """Sharded :meth:`Archive.extract_into`; see that method for semantics."""
    from repro.api.archive import (ExtractionRecord, ExtractionReport,
                                   MemberFailure)
    from repro.api.options import ON_ERROR_ABORT, ON_ERROR_QUARANTINE

    options = archive.options
    by_name: dict[str, ExtractionRecord] = {}
    failures: list[MemberFailure] = []

    def absorb(result):
        report, stats = result
        archive.session.stats.merge(stats)
        by_name.update((record.name, record) for record in report)
        failures.extend(report.failures)

    def exhausted(name, attempts):
        failures.append(MemberFailure(
            name=name,
            error_type="WorkerCrashed",
            message=(f"member killed its worker {attempts} time(s); "
                     f"retry budget ({options.retries}) exhausted"),
            attempts=attempts,
            quarantined=options.on_error == ON_ERROR_QUARANTINE,
        ))

    plan = archive.extraction_plan(names, mode=mode, force_decode=force_decode)
    base = {"directory": str(directory), "mode": mode,
            "force_decode": force_decode}
    if not _run_sharded(archive, plan, jobs, pool, run_extract_shard, base,
                        absorb=absorb, exhausted=exhausted,
                        recover=options.on_error != ON_ERROR_ABORT):
        return archive.extract_into(directory, names, mode=mode,
                                    force_decode=force_decode, jobs=1)
    order = {name: index for index, name in enumerate(names)}
    failures.sort(key=lambda failure: order.get(failure.name, len(order)))
    return ExtractionReport(
        (by_name[name] for name in names if name in by_name),
        failures,
    )


def parallel_check(archive, jobs, *, reuse=None, names=None, pool=None):
    """Sharded :meth:`Archive.check`; see that method for semantics."""
    plan = archive._check_plan(names if names is not None else archive.names())
    order = {item.name: item.index for item in plan}
    report = IntegrityReport()
    failures: list[tuple[int, str]] = []

    def absorb(shard):
        report.checked += shard.checked
        report.passed += shard.passed
        failures.extend((_failure_order(failure, order), failure)
                        for failure in shard.failures)
        report.merge(shard)

    def exhausted(name, attempts):
        report.checked += 1
        failures.append((order.get(name, len(order)),
                         f"{name}: worker crashed {attempts} time(s); "
                         f"retry budget exhausted"))

    # The check's contract is record-everything-raise-nothing, so crash
    # recovery applies regardless of the on_error policy.
    base = {"reuse": reuse.value if reuse is not None else None}
    if not _run_sharded(archive, plan, jobs, pool, run_check_shard, base,
                        absorb=absorb, exhausted=exhausted):
        return archive.check(reuse=reuse, names=names, jobs=1)
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
