"""Integration tests for the VXA core, driven through ``vxa.create`` / ``vxa.open``."""

import io
import zipfile

import pytest

import repro.api as vxa
from repro.api import MODE_NATIVE, MODE_VXA
from repro.codecs.registry import CodecRegistry, default_registry
from repro.codecs.vxz import VxzCodec
from repro.core.extension import VxaExtension, parse_extension
from repro.core.policy import SecurityAttributes, VmReusePolicy, reuse_groups
from repro.core.integrity import format_report
from repro.elf.reader import is_vxa_executable
from repro.errors import ArchiveError, DecoderMissingError, GuestFault, IntegrityError
from repro.formats.bmp import is_bmp
from repro.formats.ppm import write_ppm
from repro.formats.wav import is_wav, write_wav
from repro.workloads.audio import synthetic_music
from repro.workloads.images import synthetic_photo
from repro.workloads.text import synthetic_log_bytes, synthetic_source_tree_bytes


@pytest.fixture(scope="module")
def sample_files():
    return {
        "src/driver.c": synthetic_source_tree_bytes(12000, seed=50),
        "logs/boot.log": synthetic_log_bytes(6000, seed=51),
        "music/song.wav": write_wav(
            synthetic_music(seconds=0.3, sample_rate=16000, channels=2, seed=52)
        ),
        "photos/shot.ppm": write_ppm(synthetic_photo(48, 40, seed=53)),
    }


def _build(files: dict, **options):
    """Archive ``files`` in memory; returns ``(archive_bytes, manifest)``."""
    buffer = io.BytesIO()
    with vxa.create(buffer, vxa.WriteOptions(**options)) as builder:
        for name, data in files.items():
            builder.add(name, data)
    return buffer.getvalue(), builder.manifest


def _open(archive: bytes, **options):
    return vxa.open(archive, vxa.ReadOptions(**options))


@pytest.fixture(scope="module")
def archive_and_manifest(sample_files):
    return _build(sample_files, allow_lossy=True)


# -- writer behaviour ---------------------------------------------------------------


def test_archive_lists_all_files(archive_and_manifest, sample_files):
    archive, _ = archive_and_manifest
    reader = _open(archive)
    assert set(reader.names()) == set(sample_files)


def test_codec_selection_per_file(archive_and_manifest):
    _, manifest = archive_and_manifest
    by_name = {info.name: info for info in manifest.files}
    assert by_name["src/driver.c"].codec == "vxz"           # default general codec
    assert by_name["music/song.wav"].codec == "vxflac"       # lossless audio
    assert by_name["photos/shot.ppm"].codec in ("vximg", "vxjp2")   # lossy allowed
    for info in manifest.files:
        assert info.stored_size < info.original_size          # everything compressed


def test_decoders_are_deduplicated(sample_files):
    # Two text files share the default codec: only one decoder gets stored.
    _, manifest = _build({"a.txt": sample_files["src/driver.c"],
                          "b.txt": sample_files["logs/boot.log"]})
    assert len(manifest.decoders) == 1
    assert manifest.decoders[0].codec_name == "vxz"


def test_lossy_requires_permission(sample_files):
    with vxa.create(io.BytesIO(), vxa.WriteOptions(allow_lossy=False)) as builder:
        info = builder.add("photo.ppm", sample_files["photos/shot.ppm"])
    chosen = default_registry().get(info.codec)
    assert not chosen.info.lossy          # lossless fallback without permission


def test_redec_path_stores_precompressed_data_untouched(sample_files):
    codec = VxzCodec()
    already_compressed = codec.encode(sample_files["src/driver.c"])
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        info = builder.add("bundle.vxz", already_compressed)
    archive = buffer.getvalue()
    assert info.precompressed
    assert info.stored_size == len(already_compressed)
    # Old tools see a method-0 member holding the original compressed bytes.
    with zipfile.ZipFile(io.BytesIO(archive)) as handle:
        assert handle.read("bundle.vxz") == already_compressed


def test_store_raw_files_have_no_decoder():
    buffer = io.BytesIO()
    with vxa.create(buffer) as builder:
        builder.add("plain.txt", b"tiny", store_raw=True)
    reader = _open(buffer.getvalue())
    assert reader.extension_for("plain.txt") is None
    assert reader.extract("plain.txt").data == b"tiny"
    assert not builder.manifest.decoders


def test_writer_rejects_empty_name_and_reuse_after_finish():
    builder = vxa.create(io.BytesIO())
    with pytest.raises(ArchiveError):
        builder.add("", b"data")
    builder.add("x", b"data")
    builder.finish()
    with pytest.raises(ArchiveError):
        builder.add("y", b"data")


# -- extension headers and decoder pseudo-files -----------------------------------------


def test_extension_header_round_trip():
    extension = VxaExtension(
        decoder_offset=1234,
        original_size=5678,
        original_crc32=0xDEADBEEF,
        codec_name="vxz",
        precompressed=True,
        lossy=False,
    )
    parsed = parse_extension(extension.pack())
    assert parsed == extension
    assert parse_extension(b"") is None


def test_members_carry_extension_and_decoder(archive_and_manifest):
    archive, manifest = archive_and_manifest
    reader = _open(archive)
    for name in reader.names():
        extension = reader.extension_for(name)
        assert extension is not None
        assert extension.codec_name in default_registry().names
        image = reader.decoder_image_for(name)
        assert is_vxa_executable(image)
    # The archive embeds one decoder per distinct codec used.
    codecs_used = {info.codec for info in manifest.files}
    assert len(manifest.decoders) == len(codecs_used)


def test_old_zip_tools_can_list_but_not_extract_vxa_members(archive_and_manifest):
    archive, _ = archive_and_manifest
    with zipfile.ZipFile(io.BytesIO(archive)) as handle:
        names = set(handle.namelist())
        assert "src/driver.c" in names                 # listing works
        info = handle.getinfo("src/driver.c")
        assert info.compress_type not in (zipfile.ZIP_STORED, zipfile.ZIP_DEFLATED)
        with pytest.raises(NotImplementedError):
            handle.read("src/driver.c")                # extraction needs VXA


# -- reader behaviour ---------------------------------------------------------------------


def test_extract_native_fast_path(archive_and_manifest, sample_files):
    archive, _ = archive_and_manifest
    reader = _open(archive)
    result = reader.extract("src/driver.c", mode=MODE_NATIVE)
    assert not result.used_vxa_decoder
    assert result.data == sample_files["src/driver.c"]


def test_extract_with_archived_decoder_matches_native(archive_and_manifest, sample_files):
    archive, _ = archive_and_manifest
    reader = _open(archive)
    vxa = reader.extract("src/driver.c", mode=MODE_VXA)
    native = reader.extract("src/driver.c", mode=MODE_NATIVE)
    assert vxa.used_vxa_decoder
    assert vxa.data == native.data == sample_files["src/driver.c"]


def test_extract_without_codec_knowledge(archive_and_manifest, sample_files):
    """The critical durability property: a reader with an *empty* codec set
    can still decode everything, because decoders travel with the archive."""
    archive, _ = archive_and_manifest
    empty_registry = CodecRegistry([VxzCodec()], default="vxz")
    empty_registry.unregister  # (still has the mandatory default, but nothing else)
    reader = _open(archive, registry=CodecRegistry([VxzCodec()], default="vxz"))
    # Remove even the default from lookups by asking for VXA mode explicitly.
    extracted = reader.extract_all(mode=MODE_VXA)
    assert extracted["src/driver.c"].data == sample_files["src/driver.c"]
    for result in extracted.values():
        assert result.used_vxa_decoder
    # Media files decode to the simple uncompressed formats of Table 1.
    assert is_wav(extracted["music/song.wav"].data)
    assert is_bmp(extracted["photos/shot.ppm"].data)


def test_lossy_member_decodes_to_recorded_reference(archive_and_manifest, sample_files):
    archive, _ = archive_and_manifest
    reader = _open(archive)
    result = reader.extract("photos/shot.ppm", mode=MODE_VXA)
    assert is_bmp(result.data)
    extension = reader.extension_for("photos/shot.ppm")
    assert extension.lossy
    assert len(result.data) == extension.original_size


def test_native_mode_fails_when_codec_unknown(archive_and_manifest):
    archive, _ = archive_and_manifest
    audio_free = CodecRegistry([VxzCodec()], default="vxz")
    reader = _open(archive, registry=audio_free)
    with pytest.raises(DecoderMissingError):
        reader.extract("music/song.wav", mode=MODE_NATIVE)
    # AUTO mode falls back to the archived decoder instead.
    fallback = reader.extract("music/song.wav")
    assert fallback.used_vxa_decoder


def test_precompressed_member_left_compressed_by_default(sample_files):
    codec = VxzCodec()
    compressed = codec.encode(sample_files["logs/boot.log"])
    archive, _ = _build({"logs.vxz": compressed})
    reader = _open(archive)
    default = reader.extract("logs.vxz")
    assert not default.decoded
    assert default.data == compressed
    forced = reader.extract("logs.vxz", force_decode=True)
    assert forced.decoded
    assert forced.data == sample_files["logs/boot.log"]


def test_corrupted_member_fails_integrity(archive_and_manifest):
    archive, _ = archive_and_manifest
    corrupted = bytearray(archive)
    reader = _open(archive)
    entry = reader.entries()[0]
    # Flip a byte in the middle of the member's stored *data* region (past the
    # 30-byte local header, the filename and the VXA extension header).
    data_start = entry.local_header_offset + 30 + len(entry.name.encode()) + len(entry.extra)
    corrupted[data_start + entry.compressed_size // 2] ^= 0xFF
    bad_reader = _open(bytes(corrupted))
    with pytest.raises((IntegrityError, ArchiveError, GuestFault)):
        bad_reader.extract(entry.name, mode=MODE_VXA)


# -- integrity checking ----------------------------------------------------------------------


def _check(archive: bytes, **kwargs):
    with vxa.open(io.BytesIO(archive)) as opened:
        return opened.check(**kwargs)


def test_integrity_check_passes_for_good_archive(archive_and_manifest):
    archive, _ = archive_and_manifest
    report = _check(archive)
    assert report.ok
    assert report.checked == report.passed == 4
    assert "OK" in format_report(report)
    with _open(archive) as opened:
        assert opened.check().ok


def test_integrity_check_detects_corruption(archive_and_manifest):
    archive, _ = archive_and_manifest
    reader = _open(archive)
    entry = reader.entries()[0]
    corrupted = bytearray(archive)
    corrupted[entry.local_header_offset + 64] ^= 0x55
    report = _check(bytes(corrupted))
    assert not report.ok
    assert report.failures
    with _open(bytes(corrupted)) as opened:
        assert not opened.check().ok


# -- VM reuse policy ---------------------------------------------------------------------------


def test_reuse_groups_policies():
    files = [
        ("a", SecurityAttributes(owner=0, mode=0o644)),
        ("b", SecurityAttributes(owner=0, mode=0o644)),
        ("secret", SecurityAttributes(owner=0, mode=0o600)),
        ("c", SecurityAttributes(owner=0, mode=0o600)),
    ]
    fresh = reuse_groups(files, VmReusePolicy.ALWAYS_FRESH)
    assert fresh == [["a"], ["b"], ["secret"], ["c"]]
    grouped = reuse_groups(files, VmReusePolicy.REUSE_SAME_ATTRIBUTES)
    assert grouped == [["a", "b"], ["secret", "c"]]
    always = reuse_groups(files, VmReusePolicy.ALWAYS_REUSE)
    assert always == [["a", "b", "secret", "c"]]


def test_integrity_check_with_reuse_policy(archive_and_manifest):
    archive, _ = archive_and_manifest
    report = _check(archive, reuse=VmReusePolicy.ALWAYS_REUSE)
    assert report.ok


def test_manifest_reports_decoder_overhead(archive_and_manifest):
    archive, manifest = archive_and_manifest
    assert manifest.archive_size == len(archive)
    assert 0 < manifest.decoder_overhead_bytes < manifest.archive_size
    assert 0 < manifest.decoder_overhead_fraction < 1
