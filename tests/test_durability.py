"""Durability chaos suite: crash-consistent writes, salvage reads, repair.

The acceptance matrix for the durable-archive work: for every media fault
in {truncate-tail, flip-bytes in a payload, flip-bytes in the central
directory, torn-finalize}, ``vxunzip repair`` must recover every undamaged
member byte-identically (CRC-verified by the repaired archive's own
commit record and re-extraction), and ``check --deep`` exit codes must
distinguish clean (0) / salvageable (1) / unrecoverable (2) -- pinned at
``jobs=1`` and ``jobs=2``.  Plus the substrate tests: commit-record
round-trips, torn-finalize leaving no destination, durable extraction
fsyncing outputs, and salvage extraction containing damage per-member.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import zipfile

import pytest

import repro.api as vxa
from repro.api.options import EXECUTOR_THREAD
from repro.core.integrity import assess_media
from repro.errors import ArchiveDamagedError, CodecError, VxaError, ZipFormatError
from repro.faults.media import TornFinalize, flip_bytes, truncate_tail
from repro.repair import ACTION_COPIED, minimal_diagnosis, repair_archive
from repro.workloads import synthetic_log_bytes
from repro.zipformat.reader import ZipReader


def _members() -> dict[str, bytes]:
    data = {f"member{index}.txt": synthetic_log_bytes(900 + 70 * index,
                                                      seed=index)
            for index in range(4)}
    data["plain.bin"] = bytes(range(256)) * 8
    return data


@pytest.fixture(scope="module")
def members() -> dict[str, bytes]:
    return _members()


def _build(path: pathlib.Path, members: dict[str, bytes],
           options: vxa.WriteOptions | None = None) -> None:
    with vxa.create(path, options) as builder:
        for name, data in members.items():
            if name.endswith(".bin"):
                builder.add(name, data, store_raw=True)
            else:
                builder.add(name, data, codec="vxz")


@pytest.fixture(scope="module")
def clean_archive(tmp_path_factory, members) -> pathlib.Path:
    path = tmp_path_factory.mktemp("durability") / "clean.vxa"
    _build(path, members)
    return path


def _read_options(jobs: int = 1, **changes) -> vxa.ReadOptions:
    changes.setdefault("mode", vxa.MODE_VXA)
    changes.setdefault("jobs", jobs)
    changes.setdefault("executor", EXECUTOR_THREAD)
    return vxa.ReadOptions(**changes)


def _extract_all(source, out: pathlib.Path, *, jobs: int = 1,
                 **option_changes):
    with vxa.open(source, _read_options(jobs, **option_changes)) as archive:
        report = archive.extract_into(out)
        stats = dataclasses.replace(archive.session.stats)
    return report, stats


# -- commit record round-trip ------------------------------------------------------


def test_commit_record_verifies_on_clean_archive(clean_archive):
    reader = ZipReader(clean_archive.read_bytes())
    assert reader.commit_marker is not None
    assert reader.commit_verified
    assert reader.digest_table is not None
    assert not reader.directory_reconstructed
    # Every named member and every decoder extent has a digest row.
    named = {entry.name for entry in reader.entries}
    assert {row.name for row in reader.digest_table.extents
            if row.name} == named


def test_commit_record_is_invisible_to_plain_zip_readers(tmp_path, members):
    path = tmp_path / "compat.vxa"
    with vxa.create(path) as builder:
        for name, data in members.items():
            builder.add(name, data, store_raw=True)
    with zipfile.ZipFile(path) as plain:
        assert sorted(plain.namelist()) == sorted(members)
        for name, data in members.items():
            assert plain.read(name) == data


def test_user_comment_survives_commit_marker(tmp_path, members):
    path = tmp_path / "comment.vxa"
    with vxa.create(path) as builder:
        builder.add("one.bin", members["plain.bin"], store_raw=True)
        builder.finish(b"user comment")
    reader = ZipReader(path.read_bytes())
    assert reader.comment == b"user comment"
    assert reader.commit_verified


def test_commit_record_can_be_disabled(tmp_path, members):
    path = tmp_path / "plain.vxa"
    _build(path, members, vxa.WriteOptions(commit_record=False))
    reader = ZipReader(path.read_bytes())
    assert reader.commit_marker is None
    assert not reader.commit_verified
    assessment = assess_media(path)
    assert assessment.commit_status == "absent"
    assert assessment.classification() == "clean"


# -- crash-consistent finalize -----------------------------------------------------


def test_durable_create_leaves_no_temp(tmp_path, members):
    path = tmp_path / "durable.vxa"
    _build(path, members)
    assert path.exists()
    assert not list(tmp_path.glob("*.vxa-tmp.*"))


def test_nondurable_create_writes_in_place(tmp_path, members):
    path = tmp_path / "direct.vxa"
    _build(path, members, vxa.WriteOptions(durable=False))
    assert path.exists()
    assert assess_media(path).classification() == "clean"


@pytest.mark.parametrize("fault", ["pre-fsync", "pre-rename", "mid-directory"])
def test_torn_finalize_never_exposes_destination(tmp_path, members, fault):
    path = tmp_path / f"torn-{fault}.vxa"
    with pytest.raises(TornFinalize):
        _build(path, members, vxa.WriteOptions(finalize_fault=fault))
    # The destination is never renamed into place on a torn finalize.
    assert not path.exists()


def test_torn_directory_temp_is_salvageable(tmp_path, members):
    path = tmp_path / "torn.vxa"
    with pytest.raises(TornFinalize):
        _build(path, members, vxa.WriteOptions(finalize_fault="mid-directory"))
    [temp] = list(tmp_path.glob("torn.vxa.vxa-tmp.*"))
    assessment = assess_media(temp)
    assert assessment.classification() == "salvageable"
    assert assessment.directory_status == "reconstructed"
    repaired = tmp_path / "repaired.vxa"
    result = repair_archive(temp, repaired)
    assert result.rebuilt
    assert sorted(result.copied) == sorted(members)
    assert assess_media(repaired).classification() == "clean"


# -- the chaos matrix --------------------------------------------------------------


def _damage(clean: pathlib.Path, out: pathlib.Path, fault: str) -> set[str]:
    """Apply one matrix fault; returns the member names expected to be lost."""
    data = clean.read_bytes()
    reader = ZipReader(data)
    if fault == "truncate-tail":
        keep = reader.directory_offset + reader.directory_size // 2
        out.write_bytes(truncate_tail(data, len(data) - keep))
        return set()
    if fault == "flip-payload":
        target = next(entry for entry in reader.entries
                      if entry.name == "member1.txt")
        start, size = reader.member_extent(target)
        offset = start + size - min(32, target.compressed_size)
        out.write_bytes(flip_bytes(data, offset, 8, seed=11))
        return {"member1.txt"}
    if fault == "flip-directory":
        out.write_bytes(flip_bytes(data, reader.directory_offset + 12, 6,
                                   seed=12))
        return set()
    raise AssertionError(fault)


MATRIX = ["truncate-tail", "flip-payload", "flip-directory", "torn-finalize"]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("fault", MATRIX)
def test_repair_recovers_undamaged_members_byte_identically(
        tmp_path, members, clean_archive, fault, jobs):
    damaged = tmp_path / "damaged.vxa"
    if fault == "torn-finalize":
        target = tmp_path / "never.vxa"
        with pytest.raises(TornFinalize):
            _build(target, members,
                   vxa.WriteOptions(finalize_fault="mid-directory"))
        [temp] = list(tmp_path.glob("never.vxa.vxa-tmp.*"))
        damaged.write_bytes(temp.read_bytes())
        lost = set()
    else:
        lost = _damage(clean_archive, damaged, fault)

    assessment = assess_media(damaged)
    assert assessment.exit_code() == 1, fault      # damaged but salvageable
    assert {m.name for m in assessment.damaged_members} == lost

    repaired = tmp_path / "repaired.vxa"
    result = repair_archive(damaged, repaired)
    assert result.rebuilt
    assert set(result.dropped) == lost
    assert set(result.copied) == set(members) - lost
    # The repaired archive carries a fresh, verified commit record and its
    # own media assessment is clean (every copied extent CRC/digest-checked).
    verify = assess_media(repaired)
    assert verify.exit_code() == 0
    assert verify.commit_status == "verified"
    # Survivors re-extract byte-identically at the pinned worker count.
    out = tmp_path / "out"
    report, _ = _extract_all(repaired, out, jobs=jobs)
    assert not report.failures
    for name in set(members) - lost:
        assert (out / name).read_bytes() == members[name], name


def test_deep_check_exit_codes_span_the_scale(tmp_path, members,
                                              clean_archive):
    assert assess_media(clean_archive).exit_code() == 0
    data = clean_archive.read_bytes()
    reader = ZipReader(data)
    salvageable = tmp_path / "salvageable.vxa"
    _damage(clean_archive, salvageable, "flip-payload")
    assert assess_media(salvageable).exit_code() == 1
    # Damage every member extent: nothing intact, nothing salvageable.
    hopeless = data
    for entry in reader.entries:
        start, size = reader.member_extent(entry)
        hopeless = flip_bytes(hopeless, start + size - 4, 4, seed=13)
    wrecked = tmp_path / "wrecked.vxa"
    wrecked.write_bytes(hopeless)
    assert assess_media(wrecked).exit_code() == 2
    with pytest.raises(ArchiveDamagedError):
        repair_archive(wrecked, tmp_path / "no.vxa")


def test_minimal_diagnosis_attributes_loss_to_decoder_extent(tmp_path,
                                                             clean_archive):
    data = clean_archive.read_bytes()
    decoder_offset = min(assess_media(clean_archive).decoders)
    damaged = tmp_path / "decoderless.vxa"
    damaged.write_bytes(flip_bytes(data, decoder_offset + 40, 4, seed=14))
    assessment = assess_media(damaged)
    regions = minimal_diagnosis(assessment)
    # One region (the decoder extent) explains every dependent member; the
    # members damaged only via the decoder get no regions of their own.
    [region] = [r for r in regions if r.members]
    assert "decoder extent damaged" in region.description
    assert set(region.members) == {m.name for m in assessment.members
                                   if m.status != "intact"}
    # The precompressed/raw member survives decoder loss on repair.
    result = repair_archive(damaged, tmp_path / "out.vxa")
    assert "plain.bin" in result.copied


def test_repair_is_idempotent_on_clean_archives(tmp_path, members,
                                                clean_archive):
    out1 = tmp_path / "r1.vxa"
    result = repair_archive(clean_archive, out1)
    assert result.classification == "clean"
    assert [a.action for a in result.actions] == [ACTION_COPIED] * len(members)
    out2 = tmp_path / "r2.vxa"
    repair_archive(out1, out2)
    # A second repair of already-repaired output is byte-stable.
    assert out1.read_bytes() == out2.read_bytes()


def test_repair_dry_run_writes_nothing(tmp_path, clean_archive):
    before = clean_archive.read_bytes()
    result = repair_archive(clean_archive)
    assert not result.rebuilt and result.output_path is None
    assert clean_archive.read_bytes() == before
    assert not list(tmp_path.glob("*.vxa-tmp.*"))


# -- salvage extraction ------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
def test_salvage_extraction_contains_damage_per_member(tmp_path, members,
                                                       clean_archive, jobs):
    damaged = tmp_path / "damaged.vxa"
    lost = _damage(clean_archive, damaged, "flip-payload")
    out = tmp_path / "out"
    report, stats = _extract_all(damaged, out, jobs=jobs,
                                 on_damage=vxa.ON_DAMAGE_SALVAGE)
    assert {f.name for f in report.failures} == lost
    for failure in report.failures:
        assert failure.error_type in ("CodecError", "IntegrityError")
    for name in set(members) - lost:
        assert (out / name).read_bytes() == members[name], name
    assert stats.members_salvaged >= 1
    assert stats.commit_record_verified >= 1


def test_reject_mode_still_aborts_on_damage(tmp_path, members, clean_archive):
    damaged = tmp_path / "damaged.vxa"
    _damage(clean_archive, damaged, "flip-payload")
    with pytest.raises((CodecError, VxaError)):
        _extract_all(damaged, tmp_path / "out")


def test_salvage_reconstructs_lost_directory(tmp_path, members, clean_archive):
    damaged = tmp_path / "truncated.vxa"
    _damage(clean_archive, damaged, "truncate-tail")
    with pytest.raises(ZipFormatError):
        vxa.open(damaged.read_bytes(), _read_options())
    out = tmp_path / "out"
    report, stats = _extract_all(damaged, out,
                                 on_damage=vxa.ON_DAMAGE_SALVAGE)
    assert not report.failures
    for name, data in members.items():
        assert (out / name).read_bytes() == data, name
    assert stats.directory_reconstructed == 1
    assert stats.members_salvaged >= 1


# -- durable extraction outputs ----------------------------------------------------


def _count_fsyncs(monkeypatch) -> list[int]:
    calls: list[int] = []
    real = os.fsync

    def counting(fd):
        calls.append(fd)
        return real(fd)

    monkeypatch.setattr(os, "fsync", counting)
    return calls


def test_extract_fsyncs_outputs_by_default(tmp_path, members, clean_archive,
                                           monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    _extract_all(clean_archive, tmp_path / "out")
    # At least one fsync per extracted member, plus the directory flushes.
    assert len(calls) >= len(members)


def test_durable_output_off_skips_fsync(tmp_path, members, clean_archive,
                                        monkeypatch):
    calls = _count_fsyncs(monkeypatch)
    report, _ = _extract_all(clean_archive, tmp_path / "out",
                             durable_output=False)
    assert not report.failures
    assert calls == []


# -- torn archives never parse as committed ----------------------------------------


def test_truncation_always_detected_with_commit_record(clean_archive):
    """Any tail truncation of a committed archive is detected, never silent."""
    data = clean_archive.read_bytes()
    for drop in (1, 2, 7, 64, 300):
        torn = truncate_tail(data, drop)
        try:
            reader = ZipReader(torn)
        except ZipFormatError:
            continue                      # detected: strict open refused
        assert not reader.commit_verified
