"""One read path: a member's route is decided once, and check reads it too.

Extraction, :meth:`Archive.extraction_plan` and :meth:`Archive.check` (at one
and at two jobs) must agree on which members run their archived decoder, and
check must *record* damage -- a damaged decoder pseudo-file included -- the
way its contract says, never raise it.
"""

from __future__ import annotations

import itertools

import pytest

import repro.api as vxa
from repro.codecs.registry import CodecRegistry
from repro.codecs.vxz import VxzCodec
from repro.core.extension import parse_extension
from repro.errors import DecoderMissingError
from repro.parallel.service import BatchService
from repro.workloads import synthetic_log_bytes
from repro.zipformat.crc import crc32
from repro.zipformat.reader import ZipReader
from repro.zipformat.structures import METHOD_DEFLATE, read_local_header
from repro.zipformat.writer import deflate_compress

#: Only vxz has a native codec: the vxbwt members meet a missing codec.
_VXZ_ONLY = CodecRegistry([VxzCodec()], default="vxz")


@pytest.fixture(scope="module")
def mixed_path(tmp_path_factory):
    """Plain deflate and stored members, a pre-compressed stored member, and
    members on two decoder images (vxz, vxbwt)."""
    path = tmp_path_factory.mktemp("route") / "mixed.zip"
    deflated = synthetic_log_bytes(500, seed=1)
    with vxa.create(path) as builder:
        builder._zip.add_member("plain.deflate", deflate_compress(deflated),
                                method=METHOD_DEFLATE,
                                uncompressed_size=len(deflated),
                                crc=crc32(deflated))
        builder.add("plain.stored", b"stored bytes " * 30, store_raw=True)
        builder.add("pre.vxz", VxzCodec().encode(synthetic_log_bytes(400, seed=2)))
        builder.add("one.vxz", synthetic_log_bytes(600, seed=3), codec="vxz")
        builder.add("one.bwt", synthetic_log_bytes(500, seed=4), codec="vxbwt")
        builder.add("two.bwt", synthetic_log_bytes(450, seed=5), codec="vxbwt")
    return path


def _options(**changes) -> vxa.ReadOptions:
    return vxa.ReadOptions(registry=_VXZ_ONLY, on_error=vxa.ON_ERROR_SKIP,
                           executor=vxa.EXECUTOR_THREAD, **changes)


@pytest.mark.parametrize("mode, force", itertools.product(
    (vxa.MODE_AUTO, vxa.MODE_NATIVE, vxa.MODE_VXA), (False, True)))
def test_the_plan_names_a_decoder_exactly_when_extraction_runs_it(
        tmp_path, mixed_path, mode, force):
    with vxa.open(mixed_path, _options()) as archive:
        plan = archive.extraction_plan(mode=mode, force_decode=force)
        report = archive.extract_into(tmp_path, mode=mode, force_decode=force)
    used = {record.name: record.used_vxa_decoder for record in report}
    failed = {failure.name: failure.error_type for failure in report.failures}
    # The one route that cannot complete: native mode, no native codec.
    assert failed == ({"one.bwt": DecoderMissingError.__name__,
                       "two.bwt": DecoderMissingError.__name__}
                      if mode == vxa.MODE_NATIVE else {})
    assert [item.name for item in plan] == archive.names()
    for item in plan:
        assert (item.decoder_offset is not None) == used.get(item.name, False), \
            (mode, force, item.name)
    offsets = {item.name: item.decoder_offset for item in plan}
    if mode == vxa.MODE_VXA:
        assert offsets["one.bwt"] == offsets["two.bwt"] != offsets["one.vxz"]
        assert (offsets["pre.vxz"] is None) is not force


@pytest.mark.parametrize("jobs", (1, 2))
def test_check_verifies_exactly_the_members_the_vxa_plan_decodes(
        mixed_path, jobs):
    with vxa.open(mixed_path, _options()) as archive:
        decoded = [item.name for item in archive.extraction_plan(
                       mode=vxa.MODE_VXA, force_decode=True)
                   if item.decoder_offset is not None]
        clean = archive.check(jobs=jobs)
    assert decoded == ["pre.vxz", "one.vxz", "one.bwt", "two.bwt"]
    assert (clean.checked, clean.passed, clean.failures) == (4, 4, [])
    # Starve every member's decoder of fuel: each member check runs fails,
    # and names itself.
    starved = vxa.FaultPlan([vxa.FaultSpec(name, "exhaust-fuel", at=1)
                             for name in archive.names()])
    with vxa.open(mixed_path, _options(fault_plan=starved)) as archive:
        report = archive.check(jobs=jobs)
    assert (report.checked, report.passed) == (4, 0)
    assert [line.split(":", 1)[0] for line in report.failures] == decoded


def _damage_vxz_decoder(tmp_path):
    """Three members, two on the vxz decoder, whose deflated image has one
    byte flipped; the vxbwt member's decoder is intact."""
    path = tmp_path / "damaged-decoder.zip"
    with vxa.create(path) as builder:
        builder.add("a.txt", synthetic_log_bytes(500, seed=1), codec="vxz")
        builder.add("b.txt", synthetic_log_bytes(500, seed=2), codec="vxz")
        builder.add("c.txt", synthetic_log_bytes(500, seed=3), codec="vxbwt")
    data = bytearray(path.read_bytes())
    reader = ZipReader(bytes(data))
    offset = parse_extension(reader.find("a.txt").extra).decoder_offset
    entry, data_offset = read_local_header(reader.read_extent, offset)
    data[data_offset + entry.compressed_size // 2] ^= 0x55
    path.write_bytes(bytes(data))
    return path


def test_check_records_a_damaged_decoder_at_one_and_two_jobs(tmp_path):
    path = _damage_vxz_decoder(tmp_path)
    verdicts = []
    for jobs in (1, 2):
        options = vxa.ReadOptions(executor=vxa.EXECUTOR_THREAD)
        with vxa.open(path, options) as archive:
            report = archive.check(jobs=jobs)
        assert (report.checked, report.passed) == (3, 1), jobs
        assert [line.split(":", 1)[0] for line in report.failures] \
            == ["a.txt", "b.txt"], jobs
        verdicts.append(report.failures)
    assert verdicts[0] == verdicts[1]


def test_vxserve_reports_a_damaged_decoder_on_check_and_refuses_extract(
        tmp_path):
    path = _damage_vxz_decoder(tmp_path)
    service = BatchService(jobs=2, executor=vxa.EXECUTOR_THREAD)
    try:
        checked = service.handle({"op": "check", "archive": str(path)})
        # Extraction meets the damaged decoder only when it runs it.
        extracted = service.handle({"op": "extract", "archive": str(path),
                                    "dest": str(tmp_path / "out"),
                                    "mode": vxa.MODE_VXA})
    finally:
        service.close()
    assert checked["ok"], checked
    result = checked["result"]
    assert not result["ok"] and (result["checked"], result["passed"]) == (3, 1)
    assert [line.split(":", 1)[0] for line in result["failures"]] \
        == ["a.txt", "b.txt"]
    assert not extracted["ok"]
    assert extracted["error_code"] == "archive_damaged"
