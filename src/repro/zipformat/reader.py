"""ZIP archive reader used by vxUnZIP.

The reader operates over any seekable byte source -- in-memory bytes, an
``open(path, "rb")`` handle, an ``mmap`` -- and never materialises the whole
archive as a single ``bytes`` object: the end-of-central-directory record is
located by reading only the archive tail, the central directory is read as
one (small) blob, and member payloads are fetched by absolute offset in
bounded chunks.  This is what lets the :mod:`repro.api` facade serve
multi-gigabyte archives without loading them into memory.
"""

from __future__ import annotations

import io
import zlib
from typing import Iterator

from repro.errors import ZipFormatError
from repro.zipformat.commit import (
    CommitMarker,
    DigestTable,
    find_marker_in_tail,
    sha256,
    split_comment,
)
from repro.zipformat.crc import crc32
from repro.zipformat.structures import (
    CENTRAL_HEADER_SIGNATURE,
    EOCD_MAX_SCAN,
    EOCD_SIGNATURE,
    LOCAL_HEADER_SIGNATURE,
    METHOD_DEFLATE,
    METHOD_STORE,
    METHOD_VXA,
    ZipEntry,
    parse_eocd,
    read_local_header,
    unpack_central_header,
    unpack_local_header,
)
from repro.zipformat.writer import deflate_decompress

#: Refuse to inflate members that claim more than this (zip-bomb guard).
MAX_MEMBER_SIZE = 1 << 31

#: Default unit for chunked member reads.
DEFAULT_CHUNK_SIZE = 1 << 16


class ByteSource:
    """Random-access byte reads over a seekable file object.

    ``read_at`` loops over short reads, so sources whose ``read()`` returns
    fewer bytes than requested (sockets wrapped in files, throttled readers,
    the capped-read objects the test suite uses) still work.
    """

    def __init__(self, file):
        for method in ("read", "seek", "tell"):
            if not hasattr(file, method):
                raise ZipFormatError(
                    "archive source must be a seekable binary file object "
                    f"(missing {method}())"
                )
        self._file = file
        file.seek(0, io.SEEK_END)
        self._size = file.tell()

    @property
    def size(self) -> int:
        return self._size

    def read_at(self, offset: int, length: int) -> bytes:
        """Read up to ``length`` bytes starting at ``offset``."""
        if length <= 0 or offset >= self._size:
            return b""
        self._file.seek(offset)
        chunks: list[bytes] = []
        remaining = min(length, self._size - offset)
        while remaining > 0:
            chunk = self._file.read(remaining)
            if not chunk:
                break
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def iter_at(self, offset: int, length: int,
                chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
        """Yield ``length`` bytes starting at ``offset`` in bounded chunks."""
        position = offset
        end = offset + length
        while position < end:
            want = min(chunk_size, end - position)
            chunk = self.read_at(position, want)
            if len(chunk) < want:
                raise ZipFormatError("archive truncated during member read")
            position += len(chunk)
            yield chunk


class ZipReader:
    """Parses a ZIP archive from bytes or a seekable binary file object.

    Regular members are enumerated through the central directory, as standard
    tools do.  Decoder pseudo-files are *not* listed there; they are reached
    by absolute offset (stored in the VXA extension header of the members
    that use them) via :meth:`read_member_at`.
    """

    def __init__(self, source, *, salvage: bool = False):
        if isinstance(source, (bytes, bytearray, memoryview)):
            source = io.BytesIO(bytes(source))
        self._source = ByteSource(source)
        self.comment = b""
        self.entries: list[ZipEntry] = []
        #: Pseudo-file entries discovered by a salvage scan (empty otherwise).
        self.pseudo_entries: list[ZipEntry] = []
        self.commit_marker: CommitMarker | None = None
        #: True when the central directory's SHA-256 matched the commit marker.
        self.commit_verified = False
        self.digest_table: DigestTable | None = None
        #: True when the directory was rebuilt by scanning local headers.
        self.directory_reconstructed = False
        self.directory_offset: int | None = None
        self.directory_size: int | None = None
        #: Human-readable notes about damage encountered while opening.
        self.damage: list[str] = []
        try:
            self._open_via_directory(salvage=salvage)
        except ZipFormatError:
            if not salvage:
                raise
            self._open_via_scan()
        self._load_digest_table()

    # -- opening -----------------------------------------------------------------------

    def _open_via_directory(self, *, salvage: bool) -> None:
        entry_count, directory_size, directory_offset, raw_comment = self._locate_eocd()
        if directory_offset + directory_size > self._source.size:
            raise ZipFormatError("central directory extends past end of archive")
        self.comment, self.commit_marker = split_comment(raw_comment)
        directory = self._source.read_at(directory_offset, directory_size)
        if len(directory) < directory_size:
            raise ZipFormatError("central directory is truncated")
        if self.commit_marker is not None:
            if sha256(directory) == self.commit_marker.directory_sha256:
                self.commit_verified = True
            else:
                # The archive *claims* a committed state the directory bytes
                # contradict -- directory bitrot.  The directory may still
                # parse into plausible-looking garbage, so never trust it.
                raise ZipFormatError(
                    "central directory does not match the archive commit record"
                )
        entries: list[ZipEntry] = []
        offset = 0
        for _ in range(entry_count):
            entry, offset = unpack_central_header(directory, offset)
            entries.append(entry)
        self.entries = entries
        self.directory_offset = directory_offset
        self.directory_size = directory_size

    def _locate_eocd(self):
        """Find and parse the EOCD, scanning every candidate signature.

        The last ``PK\\x05\\x06`` in the tail is not necessarily the real
        record: comments and trailing junk can contain the byte pattern, and
        truncation can clip the genuine record.  Candidates are tried from
        the end backwards; one wins only if it parses cleanly and its
        directory bounds fit below it in the file.
        """
        size = self._source.size
        scan = min(size, EOCD_MAX_SCAN)
        base = size - scan
        tail = self._source.read_at(base, scan)
        position = tail.rfind(EOCD_SIGNATURE)
        first_error: ZipFormatError | None = None
        while position >= 0:
            try:
                parsed = parse_eocd(tail, position)
            except ZipFormatError as error:
                if first_error is None:
                    first_error = error
            else:
                _, directory_size, directory_offset, _ = parsed
                if directory_offset + directory_size <= base + position:
                    return parsed
                if first_error is None:
                    first_error = ZipFormatError(
                        "end of central directory record points outside the archive"
                    )
            position = tail.rfind(EOCD_SIGNATURE, 0, position)
        if first_error is not None:
            raise first_error
        raise ZipFormatError("end of central directory record not found")

    def _open_via_scan(self) -> None:
        """Reconstruct the member list by scanning local headers from offset 0.

        This is the damage-tolerant path: the central directory and EOCD are
        treated as lost, every parseable local-header extent is recovered
        (named members into :attr:`entries`, decoder pseudo-files into
        :attr:`pseudo_entries`), and corrupt stretches are skipped by
        resynchronising on the next record signature.
        """
        self.directory_reconstructed = True
        self.entries = []
        self.pseudo_entries = []
        self.directory_offset = None
        self.directory_size = None
        size = self._source.size
        if self.commit_marker is None:
            scan = min(size, EOCD_MAX_SCAN)
            tail = self._source.read_at(size - scan, scan)
            self.commit_marker = find_marker_in_tail(tail)
        offset = 0
        while offset + len(LOCAL_HEADER_SIGNATURE) <= size:
            signature = self._source.read_at(offset, 4)
            if signature in (CENTRAL_HEADER_SIGNATURE, EOCD_SIGNATURE):
                break
            if signature != LOCAL_HEADER_SIGNATURE:
                self.damage.append(f"unrecognised bytes at offset {offset}")
                offset = self._next_signature(offset + 1)
                continue
            try:
                entry, data_offset = read_local_header(self._source.read_at, offset)
                end = data_offset + entry.compressed_size
                if end > size:
                    raise ZipFormatError(
                        f"member extent at offset {offset} extends past end of archive"
                    )
            except ZipFormatError:
                self.damage.append(f"unparseable local header at offset {offset}")
                offset = self._next_signature(offset + 1)
                continue
            if entry.name:
                entry.in_central_directory = True
                self.entries.append(entry)
            else:
                entry.in_central_directory = False
                self.pseudo_entries.append(entry)
            offset = end

    def _next_signature(self, start: int) -> int:
        """Resynchronise: offset of the next record signature at/after ``start``."""
        signatures = (LOCAL_HEADER_SIGNATURE, CENTRAL_HEADER_SIGNATURE,
                      EOCD_SIGNATURE)
        size = self._source.size
        position = start
        overlap = 3
        while position < size:
            block = self._source.read_at(position, DEFAULT_CHUNK_SIZE + overlap)
            best = -1
            for signature in signatures:
                found = block.find(signature)
                if found >= 0 and (best < 0 or found < best):
                    best = found
            if best >= 0:
                return position + best
            if len(block) < DEFAULT_CHUNK_SIZE + overlap:
                break
            position += DEFAULT_CHUNK_SIZE
        return size

    def _load_digest_table(self) -> None:
        marker = self.commit_marker
        if marker is None:
            return
        extent = self._source.read_at(marker.table_offset, marker.table_size)
        if len(extent) != marker.table_size or sha256(extent) != marker.table_sha256:
            self.damage.append("digest table extent is damaged")
            return
        try:
            entry, data_offset = unpack_local_header(extent, 0)
            payload = extent[data_offset:data_offset + entry.compressed_size]
            self.digest_table = DigestTable.parse(payload)
        except ZipFormatError as error:
            self.damage.append(f"digest table is unreadable: {error}")

    # -- lookup ------------------------------------------------------------------------

    def names(self) -> list[str]:
        return [entry.name for entry in self.entries]

    def find(self, name: str) -> ZipEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise ZipFormatError(f"archive has no member named {name!r}")

    def __contains__(self, name: str) -> bool:
        return any(entry.name == name for entry in self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    # -- member access -----------------------------------------------------------------

    def _stored_extent(self, entry: ZipEntry) -> tuple[int, int]:
        """Locate a member's stored payload; returns ``(data_offset, size)``."""
        local_entry, data_offset = read_local_header(
            self._source.read_at, entry.local_header_offset
        )
        size = entry.compressed_size or local_entry.compressed_size
        if data_offset + size > self._source.size:
            raise ZipFormatError(f"member {entry.name!r} extends past end of archive")
        return data_offset, size

    def read_stored_bytes(self, entry: ZipEntry) -> bytes:
        """Return a member's stored (possibly compressed) bytes."""
        data_offset, size = self._stored_extent(entry)
        return self._source.read_at(data_offset, size)

    def iter_stored_chunks(self, entry: ZipEntry, *,
                           chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
        """Yield a member's stored bytes in bounded chunks."""
        data_offset, size = self._stored_extent(entry)
        yield from self._source.iter_at(data_offset, size, chunk_size)

    def iter_member_chunks(self, entry: ZipEntry, *, verify_crc: bool = True,
                           chunk_size: int = DEFAULT_CHUNK_SIZE) -> Iterator[bytes]:
        """Decompress a traditionally-stored member as a stream of chunks.

        Members using the VXA method cannot be read this way -- they need the
        archived decoder (raise, so callers fall back to the VXA path).
        """
        if entry.uncompressed_size > MAX_MEMBER_SIZE:
            raise ZipFormatError(f"member {entry.name!r} is implausibly large")
        if entry.method == METHOD_STORE:
            data_offset, size = self._stored_extent(entry)
            if size != entry.uncompressed_size:
                raise ZipFormatError(
                    f"stored member {entry.name!r} holds {size} bytes, "
                    f"its directory entry says {entry.uncompressed_size}"
                )
            plain = self._source.iter_at(data_offset, size, chunk_size)
        elif entry.method == METHOD_DEFLATE:
            plain = self._iter_inflated_chunks(entry, chunk_size)
        elif entry.method == METHOD_VXA:
            raise ZipFormatError(
                f"member {entry.name!r} uses the VXA method; extract it through "
                "the archive reader so the attached decoder can run"
            )
        else:
            raise ZipFormatError(
                f"member {entry.name!r} uses unsupported method {entry.method}"
            )
        checksum = 0
        for chunk in plain:
            if verify_crc:
                checksum = crc32(chunk, checksum)
            yield chunk
        if verify_crc and checksum != entry.crc32:
            raise ZipFormatError(f"CRC mismatch for member {entry.name!r}")

    def _iter_inflated_chunks(self, entry: ZipEntry,
                              chunk_size: int) -> Iterator[bytes]:
        """Inflate a deflate member, holding it to its declared size."""
        decompressor = zlib.decompressobj(-15)
        produced = 0
        for chunk in self.iter_stored_chunks(entry, chunk_size=chunk_size):
            try:
                out = decompressor.decompress(chunk)
            except zlib.error as error:
                raise ZipFormatError(f"corrupt deflate member: {error}") from None
            if out:
                produced += len(out)
                if produced > entry.uncompressed_size:
                    raise ZipFormatError(
                        f"deflate member decompressed to more than "
                        f"{entry.uncompressed_size} bytes, expected exactly that"
                    )
                yield out
        out = decompressor.flush()
        if out:
            produced += len(out)
            yield out
        if produced != entry.uncompressed_size:
            raise ZipFormatError(
                f"deflate member decompressed to {produced} bytes, "
                f"expected {entry.uncompressed_size}"
            )

    def read_member(self, entry: ZipEntry, *, verify_crc: bool = True) -> bytes:
        """Decompress a member stored with a traditional ZIP method."""
        return b"".join(self.iter_member_chunks(entry, verify_crc=verify_crc))

    def read_member_at(self, offset: int, *, verify_crc: bool = True) -> tuple[ZipEntry, bytes]:
        """Read a member (typically a decoder pseudo-file) by local-header offset."""
        entry, data_offset = read_local_header(self._source.read_at, offset)
        if data_offset + entry.compressed_size > self._source.size:
            raise ZipFormatError("pseudo-file extends past end of archive")
        stored = self._source.read_at(data_offset, entry.compressed_size)
        if entry.method == METHOD_STORE:
            if len(stored) != entry.uncompressed_size:
                raise ZipFormatError(
                    f"stored pseudo-file at offset {offset} holds {len(stored)} "
                    f"bytes, its header says {entry.uncompressed_size}"
                )
            data = stored
        elif entry.method == METHOD_DEFLATE:
            data = deflate_decompress(stored, entry.uncompressed_size)
        else:
            raise ZipFormatError(
                f"pseudo-file at offset {offset} uses unsupported method {entry.method}"
            )
        if verify_crc and crc32(data) != entry.crc32:
            raise ZipFormatError(f"CRC mismatch for pseudo-file at offset {offset}")
        return entry, data

    def read_extent(self, offset: int, size: int) -> bytes:
        """Read raw archive bytes (for digest-table verification and repair)."""
        return self._source.read_at(offset, size)

    def member_extent(self, entry: ZipEntry) -> tuple[int, int]:
        """Full extent of a member: ``(local_header_offset, total_size)``."""
        _, data_offset = read_local_header(self._source.read_at,
                                           entry.local_header_offset)
        size = data_offset - entry.local_header_offset + entry.compressed_size
        return entry.local_header_offset, size

    @property
    def source_size(self) -> int:
        return self._source.size
