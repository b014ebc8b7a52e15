"""Tests for the from-scratch ZIP container layer."""

import io
import pathlib
import random
import struct
import sys
import tracemalloc
import zipfile
import zlib

import pytest
from hypothesis import given, strategies as st

import repro.api as vxa
import repro.zipformat
from repro.errors import ZipFormatError
from repro.zipformat.crc import crc32
from repro.zipformat.reader import DEFAULT_CHUNK_SIZE, ZipReader
from repro.zipformat.structures import (
    ExtraField,
    METHOD_DEFLATE,
    METHOD_STORE,
    METHOD_VXA,
    dos_datetime,
    pack_extra_fields,
    unpack_extra_fields,
)
from repro.zipformat.writer import ZipWriter, deflate_compress, deflate_decompress


# -- CRC-32 ---------------------------------------------------------------------
#
# ``repro.zipformat.crc.crc32`` is computed by zlib.  The table-driven
# algorithm the container layer used to run per payload byte lives on here,
# as the independent oracle the product function is held to.

_POLYNOMIAL = 0xEDB88320


def _build_table() -> tuple[int, ...]:
    table = []
    for byte in range(256):
        value = byte
        for _ in range(8):
            if value & 1:
                value = (value >> 1) ^ _POLYNOMIAL
            else:
                value >>= 1
        table.append(value)
    return tuple(table)


_TABLE = _build_table()


def oracle_crc32(data: bytes, value: int = 0) -> int:
    accumulator = (~value) & 0xFFFFFFFF
    for byte in data:
        accumulator = (accumulator >> 8) ^ _TABLE[(accumulator ^ byte) & 0xFF]
    return (~accumulator) & 0xFFFFFFFF


#: Decoder output and file chunks reach ``crc32`` as all three.
_BUFFER_TYPES = st.sampled_from([bytes, bytearray, memoryview])
_U32 = st.integers(min_value=0, max_value=2**32 - 1)


def test_crc32_known_vectors():
    for crc in (crc32, oracle_crc32):
        assert crc(b"") == 0
        assert crc(b"123456789") == 0xCBF43926
        assert crc(b"The quick brown fox jumps over the lazy dog") == 0x414FA339


@given(st.binary(max_size=2000), _BUFFER_TYPES)
def test_crc32_matches_zlib(data, buffer_type):
    assert (crc32(buffer_type(data)) == oracle_crc32(data)
            == zlib.crc32(data) & 0xFFFFFFFF)


@given(st.binary(max_size=1500), st.lists(st.integers(0, 1500), max_size=6),
       _U32, _BUFFER_TYPES)
def test_crc32_streaming_equals_one_shot(data, cuts, prior, buffer_type):
    """The int-carrying form ``iter_member_chunks`` uses, at arbitrary splits."""
    edges = [0, *sorted(min(cut, len(data)) for cut in cuts), len(data)]
    parts = [data[low:high] for low, high in zip(edges, edges[1:])]
    for start in (0, prior):
        checksum = start
        for part in parts:
            checksum = crc32(buffer_type(part), checksum)
            assert 0 <= checksum <= 2**32 - 1
        assert checksum == oracle_crc32(data, start)


def test_crc32_equals_oracle_on_a_mebibyte():
    buffer = random.Random(23).randbytes((1 << 20) + 17)
    expected = oracle_crc32(buffer)
    assert crc32(buffer) == expected
    assert crc32(buffer[1 << 16:], crc32(buffer[:1 << 16])) == expected


# -- deflate helpers ----------------------------------------------------------------


@given(st.binary(max_size=4000))
def test_deflate_round_trip(data):
    assert deflate_decompress(deflate_compress(data), len(data)) == data


def test_deflate_size_mismatch_detected():
    compressed = deflate_compress(b"hello world")
    with pytest.raises(ZipFormatError):
        deflate_decompress(compressed, 5)


def _deflated_zeros(mebibytes: int) -> bytes:
    """Raw deflate of that many MiB of zeros (65 KB for 64), a MiB at a time."""
    compressor = zlib.compressobj(9, zlib.DEFLATED, -15)
    zeros = bytes(1 << 20)
    return (b"".join(compressor.compress(zeros) for _ in range(mebibytes))
            + compressor.flush())


def test_a_deflate_bomb_is_refused_at_its_declared_size():
    """65 KB of deflate holding 64 MiB of zeros, declared as 10 bytes, as a
    decoder pseudo-file and as a plain member: each is refused having
    inflated no more than it declares, not the 64 MiB it holds."""
    bomb = _deflated_zeros(64)
    writer = ZipWriter()
    pseudo = writer.add_member("", bomb, method=METHOD_DEFLATE, uncompressed_size=10,
                               crc=0, in_central_directory=False)
    writer.add_member("bomb.txt", bomb, method=METHOD_DEFLATE, uncompressed_size=10,
                      crc=0)
    reader = ZipReader(writer.finish())
    entry = reader.find("bomb.txt")
    del bomb, writer
    for read in (lambda: reader.read_member_at(pseudo.local_header_offset),
                 lambda: reader.read_member(entry)):
        tracemalloc.start()
        try:
            with pytest.raises(ZipFormatError):
                read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_a_deflate_member_streams_in_chunks_of_the_size_asked_for():
    """The same 64 MiB of zeros, declared as what they are, comes out in
    64 KiB chunks, never all at once."""
    stored = _deflated_zeros(64)
    checksum = 0
    for _ in range(64):
        checksum = crc32(bytes(1 << 20), checksum)
    writer = ZipWriter()
    writer.add_member("zeros.bin", stored, method=METHOD_DEFLATE,
                      uncompressed_size=64 << 20, crc=checksum)
    reader = ZipReader(writer.finish())
    entry = reader.find("zeros.bin")
    del stored, writer
    total = largest = 0
    tracemalloc.start()
    try:
        for chunk in reader.iter_member_chunks(entry):
            total += len(chunk)
            largest = max(largest, len(chunk))
            del chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (total, largest) == (64 << 20, DEFAULT_CHUNK_SIZE)
    assert peak < 1 << 20


# -- extra fields ---------------------------------------------------------------------


def test_extra_field_round_trip():
    fields = [ExtraField(0x7856, b"payload"), ExtraField(0x0001, b"\x01\x02")]
    packed = pack_extra_fields(fields)
    unpacked = unpack_extra_fields(packed)
    assert [(field.header_id, field.payload) for field in unpacked] == [
        (0x7856, b"payload"),
        (0x0001, b"\x01\x02"),
    ]


def test_dos_datetime_packing():
    time_word, date_word = dos_datetime(2005, 12, 13, 14, 30, 20)
    assert date_word >> 9 == 2005 - 1980
    assert (date_word >> 5) & 0xF == 12
    assert date_word & 0x1F == 13
    assert time_word >> 11 == 14
    assert (time_word >> 5) & 0x3F == 30


# -- writer/reader round trips -----------------------------------------------------------


def build_simple_archive() -> bytes:
    writer = ZipWriter()
    writer.add_member("readme.txt", b"hello vxzip", method=METHOD_STORE)
    writer.add_deflate_member("src/main.c", b"int main() { return 0; }\n" * 50)
    return writer.finish(b"test archive")


def test_round_trip_store_and_deflate():
    archive = build_simple_archive()
    reader = ZipReader(archive)
    assert reader.names() == ["readme.txt", "src/main.c"]
    assert reader.read_member(reader.find("readme.txt")) == b"hello vxzip"
    assert reader.read_member(reader.find("src/main.c")) == b"int main() { return 0; }\n" * 50
    assert reader.comment == b"test archive"


def test_missing_member_raises():
    reader = ZipReader(build_simple_archive())
    with pytest.raises(ZipFormatError):
        reader.find("nope.txt")
    assert "readme.txt" in reader
    assert "nope.txt" not in reader


def test_crc_corruption_detected():
    archive = bytearray(build_simple_archive())
    # Flip a byte inside the stored member's data ("hello vxzip").
    index = archive.find(b"hello vxzip")
    archive[index] ^= 0xFF
    reader = ZipReader(bytes(archive))
    with pytest.raises(ZipFormatError):
        reader.read_member(reader.find("readme.txt"))


def test_pseudo_files_are_hidden_but_reachable():
    writer = ZipWriter()
    writer.add_member("visible.txt", b"visible")
    pseudo = writer.add_pseudo_file(b"decoder image bytes" * 100)
    archive = writer.finish()
    reader = ZipReader(archive)
    assert reader.names() == ["visible.txt"]               # pseudo-file not listed
    entry, data = reader.read_member_at(pseudo.local_header_offset)
    assert data == b"decoder image bytes" * 100
    assert entry.name == ""
    assert entry.method == METHOD_DEFLATE                   # decoders are deflated


def test_vxa_method_members_not_readable_directly():
    writer = ZipWriter()
    writer.add_member("weird.vxz", b"\x01\x02\x03", method=METHOD_VXA,
                      uncompressed_size=100, crc=0)
    reader = ZipReader(writer.finish())
    with pytest.raises(ZipFormatError):
        reader.read_member(reader.find("weird.vxz"))
    assert reader.read_stored_bytes(reader.find("weird.vxz")) == b"\x01\x02\x03"


def test_truncated_archive_rejected():
    archive = build_simple_archive()
    with pytest.raises(ZipFormatError):
        ZipReader(archive[: len(archive) // 2])
    with pytest.raises(ZipFormatError):
        ZipReader(b"not a zip at all")


def test_writer_rejects_use_after_finish():
    writer = ZipWriter()
    writer.add_member("a", b"a")
    writer.finish()
    with pytest.raises(ZipFormatError):
        writer.add_member("b", b"b")
    with pytest.raises(ZipFormatError):
        writer.finish()


# -- interoperability with the standard library --------------------------------------------


def test_stdlib_zipfile_can_list_and_extract_standard_members():
    """Archives we write are genuine ZIP files old tools can partially use."""
    archive = build_simple_archive()
    with zipfile.ZipFile(io.BytesIO(archive)) as handle:
        assert handle.namelist() == ["readme.txt", "src/main.c"]
        assert handle.read("readme.txt") == b"hello vxzip"
        assert handle.read("src/main.c") == b"int main() { return 0; }\n" * 50
        assert handle.testzip() is None


def test_stdlib_zipfile_round_trip_into_our_reader():
    """We can read archives produced by an unmodified ZIP implementation."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", zipfile.ZIP_DEFLATED) as handle:
        handle.writestr("alpha.txt", b"alpha contents")
        handle.writestr("beta/gamma.txt", b"gamma contents" * 200)
    reader = ZipReader(buffer.getvalue())
    assert set(reader.names()) == {"alpha.txt", "beta/gamma.txt"}
    assert reader.read_member(reader.find("alpha.txt")) == b"alpha contents"
    assert reader.read_member(reader.find("beta/gamma.txt")) == b"gamma contents" * 200


# -- EOCD location pinning ----------------------------------------------------------
#
# The backward scan for the end-of-central-directory record must survive
# trailing junk and hostile comments, and every truncation must surface as
# ZipFormatError -- never a raw struct.error leaking from the parser.


def test_trailing_junk_after_eocd_tolerated():
    archive = build_simple_archive()
    reader = ZipReader(archive + b"\x00" * 40 + b"junk appended by a mirror")
    assert reader.names() == ["readme.txt", "src/main.c"]
    assert reader.read_member(reader.find("readme.txt")) == b"hello vxzip"


def test_fake_eocd_signature_in_comment_ignored():
    # A comment embedding the EOCD magic followed by garbage: the backward
    # scan must reject the fake candidate (bad bounds) and keep looking.
    fake = b"PK\x05\x06" + b"\xff" * 18
    writer = ZipWriter()
    writer.add_member("real.txt", b"real data", method=METHOD_STORE)
    archive = writer.finish(b"prefix " + fake + b" suffix")
    reader = ZipReader(archive)
    assert reader.names() == ["real.txt"]
    assert fake in reader.comment


def test_comment_length_lie_rejected():
    archive = bytearray(build_simple_archive())
    # The comment length field is the last u16 before the comment bytes;
    # inflate it so it claims more bytes than the file holds.
    comment = b"test archive"
    length_at = len(archive) - len(comment) - 2
    archive[length_at:length_at + 2] = (len(comment) + 99).to_bytes(2, "little")
    with pytest.raises(ZipFormatError):
        ZipReader(bytes(archive))


def test_every_truncation_raises_zipformaterror_not_struct_error():
    archive = build_simple_archive()
    for drop in range(1, 80):
        truncated = archive[:-drop]
        try:
            reader = ZipReader(truncated)
        except ZipFormatError:
            continue                        # the only acceptable refusal
        # An open that "succeeds" must have found a shorter-comment EOCD
        # parse that is still internally consistent; members stay readable.
        for entry in reader.entries:
            reader.read_stored_bytes(entry)


def test_salvage_scan_recovers_members_without_directory():
    archive = build_simple_archive()
    strict = ZipReader(archive)
    torn = archive[:strict.directory_offset + 7]     # mid-directory tear
    with pytest.raises(ZipFormatError):
        ZipReader(torn)
    salvaged = ZipReader(torn, salvage=True)
    assert salvaged.directory_reconstructed
    assert salvaged.names() == ["readme.txt", "src/main.c"]
    assert salvaged.read_member(salvaged.find("readme.txt")) == b"hello vxzip"


def test_commit_marker_round_trip_at_container_level():
    writer = ZipWriter()
    writer.add_member("a.txt", b"alpha", method=METHOD_STORE)
    archive = writer.finish(b"note", commit=True)
    reader = ZipReader(archive)
    assert reader.commit_verified
    assert reader.comment == b"note"
    # Flipping one directory byte must break the committed-directory check.
    damaged = bytearray(archive)
    damaged[reader.directory_offset + 10] ^= 0x5A
    with pytest.raises(ZipFormatError):
        ZipReader(bytes(damaged))


# -- sizes that disagree ------------------------------------------------------------
#
# A stored member's two size fields describe the same bytes.  An entry whose
# fields disagree would list one size and extract another; both read paths
# refuse it the way the deflate arm always has.


def _patch_u32(archive: bytes, offset: int, value: int) -> bytes:
    patched = bytearray(archive)
    patched[offset:offset + 4] = struct.pack("<I", value)
    return bytes(patched)


def test_stored_member_with_disagreeing_sizes_rejected():
    writer = ZipWriter()
    writer.add_member("lies.bin", b"twelve bytes", method=METHOD_STORE)
    archive = writer.finish()
    # Central header: uncompressed size is the u32 at offset 24.
    directory = archive.index(b"PK\x01\x02")
    reader = ZipReader(_patch_u32(archive, directory + 24, 99))
    entry = reader.find("lies.bin")
    assert (entry.compressed_size, entry.uncompressed_size) == (12, 99)
    for verify_crc in (True, False):
        with pytest.raises(ZipFormatError, match="holds 12 bytes.*says 99"):
            reader.read_member(entry, verify_crc=verify_crc)


def test_stored_pseudo_file_with_disagreeing_sizes_rejected():
    writer = ZipWriter()
    pseudo = writer.add_pseudo_file(b"decoder image", deflate=False)
    archive = writer.finish()
    # Local header: uncompressed size is the u32 at offset 22.
    lying = ZipReader(_patch_u32(archive, pseudo.local_header_offset + 22, 7))
    with pytest.raises(ZipFormatError, match="holds 13 bytes.*says 7"):
        lying.read_member_at(pseudo.local_header_offset)
    assert ZipReader(archive).read_member_at(
        pseudo.local_header_offset)[1] == b"decoder image"


def test_corrupt_deflate_stream_is_a_structured_error_when_streamed():
    data = bytes(random.Random(5).choices(range(16), k=200_000))
    writer = ZipWriter()
    entry = writer.add_deflate_member("nibbles.bin", data)
    archive = bytearray(writer.finish())
    payload = entry.local_header_offset + 30 + len(entry.name)
    archive[payload + 5] ^= 0x55            # inside the first block's code lengths
    reader = ZipReader(bytes(archive))
    with pytest.raises(ZipFormatError, match="corrupt deflate member"):
        reader.read_member(reader.find("nibbles.bin"))


# -- the per-chunk gate ---------------------------------------------------------------
#
# The container layer runs no Python bytecode per payload byte: what it does
# for a member grows with the number of *chunks* it streams, never with the
# bytes in them.  Counted in executed lines (``sys.settrace``), not timed.

_CONTAINER_SOURCES = tuple(
    str(pathlib.Path(package.__file__).parent)
    for package in (repro.zipformat, vxa))

#: Executed lines allowed per extra 64 KiB chunk (measured: 0 writing, 22
#: reading, 25 extracting through the facade; a byte loop costs 131,072).
_LINES_PER_CHUNK = 40


def _container_lines(call) -> int:
    """Line events in ``src/repro/zipformat`` and ``src/repro/api`` during ``call``."""
    lines = 0

    def count(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return count

    def trace(frame, event, arg):
        if frame.f_code.co_filename.startswith(_CONTAINER_SOURCES):
            return count
        return None

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(previous)
    return lines


def test_container_work_grows_with_chunks_not_bytes(tmp_path):
    def measure(size):
        payload = random.Random(size).randbytes(size)
        writer = ZipWriter()
        written = _container_lines(lambda: writer.add_member("blob.bin", payload))
        reader = ZipReader(writer.finish())
        entry = reader.find("blob.bin")
        read = _container_lines(lambda: reader.read_member(entry))
        path, out = tmp_path / f"{size}.zip", tmp_path / f"out-{size}"
        with vxa.create(path) as builder:
            added = _container_lines(
                lambda: builder.add("blob.bin", payload, store_raw=True))
        with vxa.open(path) as archive:
            extracted = _container_lines(lambda: archive.extract_into(out))
        assert (out / "blob.bin").read_bytes() == payload
        return {"ZipWriter.add_member": written, "ZipReader.read_member": read,
                "ArchiveBuilder.add": added, "Archive.extract_into": extracted}

    small, large = 1 << 16, 1 << 20
    extra_chunks = (large - small) // DEFAULT_CHUNK_SIZE
    one_chunk, many_chunks = measure(small), measure(large)
    for name, few in one_chunk.items():
        many = many_chunks[name]
        print(f"{name}: {few} lines for 1 chunk, {many} for {extra_chunks + 1} "
              f"({(many - few) / extra_chunks:.1f} per extra chunk)")
        assert few > 0                           # the tracer saw the layer at all
        assert many - few <= _LINES_PER_CHUNK * extra_chunks, name
