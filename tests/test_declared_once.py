"""A counter is declared once and every consumer derives from it.

These tests walk ``dataclasses.fields`` of :class:`SessionStats` and
:class:`ExecutionStats` instead of naming today's members, so adding a
counter without its consumers picking it up fails here; and they walk what
``vxserve``'s ``health`` and ``stats`` put on the wire, so a fact reported
at two places fails here too.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

import repro.api as vxa
from repro.api.options import EXECUTOR_THREAD
from repro.parallel.service import BatchService
from repro.vm.limits import ExecutionStats
from repro.workloads import synthetic_log_bytes

COUNTERS = [field.name for field in dataclasses.fields(vxa.SessionStats)]


def test_execution_stats_merge_sums_every_field():
    def numbered(offset):
        stats = ExecutionStats(**{
            field.name: index + offset
            for index, field in enumerate(dataclasses.fields(ExecutionStats))
            if field.name != "syscalls"})
        stats.record_syscall("read")
        return stats

    total, other = numbered(1), numbered(100)
    other.record_syscall("write")
    total.merge(other)
    for index, field in enumerate(dataclasses.fields(ExecutionStats)):
        if field.name != "syscalls":
            assert getattr(total, field.name) == 2 * index + 101, field.name
    assert total.syscalls == {"read": 2, "write": 1}


@pytest.fixture()
def archive_path(tmp_path):
    path = tmp_path / "two-decoders.zip"
    with vxa.create(path) as builder:
        for index in range(3):
            builder.add(f"z{index}.txt", synthetic_log_bytes(700, seed=index),
                        codec="vxz")
            builder.add(f"b{index}.txt", synthetic_log_bytes(700, seed=9 + index),
                        codec="vxbwt")
    return path


@pytest.fixture()
def numbered_shards(monkeypatch):
    """Make every worker shard report counter number ``i`` as exactly ``i + 1``.

    Wraps the serial ``extract_into``/``check`` a shard runs (``jobs=1``);
    returns the list of shard runs so tests know how many were merged.
    """
    runs = []
    real_extract, real_check = vxa.Archive.extract_into, vxa.Archive.check

    def extract_into(self, *args, **kwargs):
        report = real_extract(self, *args, **kwargs)
        if kwargs.get("jobs") == 1:
            runs.append("extract")
            for index, name in enumerate(COUNTERS):
                setattr(self.session.stats, name,
                        getattr(self.session.stats, name) + index + 1)
        return report

    def check(self, *args, **kwargs):
        report = real_check(self, *args, **kwargs)
        if kwargs.get("jobs") == 1:
            runs.append("check")
            for index, name in enumerate(COUNTERS):
                setattr(report, name, index + 1)
        return report

    monkeypatch.setattr(vxa.Archive, "extract_into", extract_into)
    monkeypatch.setattr(vxa.Archive, "check", check)
    return runs


def test_every_counter_survives_the_parallel_extract_merge(
        tmp_path, archive_path, numbered_shards):
    # Native mode: no VM runs, so the only counter movement is the numbered one.
    options = vxa.ReadOptions(mode=vxa.MODE_NATIVE, executor=EXECUTOR_THREAD)
    with vxa.open(archive_path, options) as archive:
        before = archive.session.stats.as_dict()
        report = archive.extract_into(tmp_path / "out", jobs=2)
        after = archive.session.stats.as_dict()
    assert len(report) == 6 and len(numbered_shards) == 2
    assert list(after) == COUNTERS
    for index, name in enumerate(COUNTERS):
        assert after[name] - before[name] == 2 * (index + 1), name


def test_every_counter_survives_the_parallel_check_merge(
        archive_path, numbered_shards):
    with vxa.open(archive_path,
                  vxa.ReadOptions(executor=EXECUTOR_THREAD)) as archive:
        report = archive.check(jobs=2)
    assert report.ok and report.checked == 6 and len(numbered_shards) == 2
    assert report.as_dict() == {name: 2 * (index + 1)
                                 for index, name in enumerate(COUNTERS)}


def test_every_counter_reaches_the_vxserve_counters_block(
        archive_path, numbered_shards):
    service = BatchService(jobs=2, executor=EXECUTOR_THREAD)
    try:
        response = service.handle({"op": "check", "archive": str(archive_path)})
        assert response["ok"], response
        stats = service.handle({"op": "stats"})["result"]
    finally:
        service.close()
    assert len(numbered_shards) == 2
    for index, name in enumerate(COUNTERS):
        assert response["result"][name] == 2 * (index + 1), name
        assert stats["counters"][f"session_{name}_total"] == 2 * (index + 1), name


def _leaves(value, path=()):
    """Yield ``(path, leaf)`` for every scalar under ``value``.

    Maps keyed by data, not by schema -- the per-archive breakers and the
    per-client counts -- are leaves themselves.
    """
    if isinstance(value, dict) and path[-1:] not in (("breakers",),
                                                     ("open_by_client",)):
        for key, item in value.items():
            yield from _leaves(item, path + (key,))
    else:
        yield path, value


def test_health_and_stats_report_each_fact_once():
    """``health`` carries gauges and configuration, ``stats`` the monotonic
    counters, and no name appears at two paths of the two results."""
    service = BatchService(jobs=1, executor=EXECUTOR_THREAD)
    try:
        results = {op: service.handle({"op": op})["result"]
                   for op in ("health", "stats")}
    finally:
        service.close()
    paths = [path for op, result in results.items()
             for path, _ in _leaves(result, (op,))]
    # A counter and the gauge it totals are one fact.
    names = Counter(path[-1].removesuffix("_total") for path in paths)
    assert sorted(".".join(path) for path in paths
                  if names[path[-1].removesuffix("_total")] > 1) == []
    assert [".".join(path) for path in paths if path[-1].endswith("_total")
            and path[:2] != ("stats", "counters")] == []
    assert "ok" not in results["health"]  # the response's own ``ok`` says it
