"""Streaming ZIP archive writer with support for decoder pseudo-files."""

from __future__ import annotations

import hashlib
import io
import zlib

from repro.errors import ZipFormatError
from repro.zipformat.commit import (
    KIND_MEMBER,
    KIND_PSEUDO,
    MARKER_SIZE,
    CommitMarker,
    DigestTable,
    ExtentDigest,
    sha256,
)
from repro.zipformat.crc import crc32
from repro.zipformat.structures import (
    METHOD_DEFLATE,
    METHOD_STORE,
    ZipEntry,
    pack_central_header,
    pack_eocd,
    pack_local_header,
)

#: Largest user comment a committed archive can carry: the ZIP comment field
#: is 16-bit, and the commit marker rides in its final ``MARKER_SIZE`` bytes.
MAX_COMMITTED_COMMENT = 0xFFFF - MARKER_SIZE


def deflate_compress(data: bytes, level: int = 9) -> bytes:
    """Raw DEFLATE compression (the fixed algorithm decoders are stored with)."""
    compressor = zlib.compressobj(level, zlib.DEFLATED, -15)
    return compressor.compress(data) + compressor.flush()


def deflate_decompress(data: bytes, expected_size: int | None = None) -> bytes:
    """Raw DEFLATE decompression with an optional output-size sanity bound."""
    decompressor = zlib.decompressobj(-15)
    limit = expected_size if expected_size is not None else -1
    try:
        output = decompressor.decompress(data, max(0, limit) if limit >= 0 else 0)
        output += decompressor.flush()
    except zlib.error as error:
        raise ZipFormatError(f"corrupt deflate member: {error}") from None
    if expected_size is not None and len(output) != expected_size:
        raise ZipFormatError(
            f"deflate member decompressed to {len(output)} bytes, expected {expected_size}"
        )
    return output


class ZipWriter:
    """Builds a ZIP archive, either in memory or onto a caller-supplied sink.

    With no arguments the writer accumulates into an internal buffer and
    :meth:`finish` returns the archive bytes (the historical behaviour).
    Given a writable binary ``sink`` (a file opened with ``"wb"``, a socket
    wrapper, ...), members are written through as they are added and never
    held together in memory; :meth:`finish` then returns ``None`` and
    :attr:`total_size` reports how many bytes were produced.

    Members added with ``in_central_directory=False`` become "pseudo-files":
    they occupy space in the archive body with their own local header, but do
    not appear in the central directory, so ordinary ZIP tools never list
    them -- exactly how vxZIP hides archived decoders (paper section 3.2).
    """

    def __init__(self, sink=None):
        self._owns_sink = sink is None
        self._sink = io.BytesIO() if sink is None else sink
        self._offset = 0
        self._entries: list[ZipEntry] = []
        self._digests: list[ExtentDigest] = []
        self._finished = False

    def _write(self, blob: bytes) -> None:
        self._sink.write(blob)
        self._offset += len(blob)

    # -- adding members --------------------------------------------------------------

    def add_member(
        self,
        name: str,
        payload: bytes,
        *,
        method: int = METHOD_STORE,
        uncompressed_size: int | None = None,
        crc: int | None = None,
        extra: bytes = b"",
        comment: bytes = b"",
        in_central_directory: bool = True,
        external_attributes: int = 0,
    ) -> ZipEntry:
        """Add one member whose *stored* bytes are ``payload``.

        For ``METHOD_STORE`` the payload is the member data itself; for other
        methods the caller supplies already-compressed bytes together with
        the original size and CRC.
        """
        if self._finished:
            raise ZipFormatError("archive already finalised")
        if method == METHOD_STORE:
            uncompressed_size = len(payload)
            crc = crc32(payload) if crc is None else crc
        else:
            if uncompressed_size is None or crc is None:
                raise ZipFormatError(
                    "compressed members need an explicit uncompressed size and CRC"
                )
        entry = ZipEntry(
            name=name,
            method=method,
            crc32=crc,
            compressed_size=len(payload),
            uncompressed_size=uncompressed_size,
            local_header_offset=self._offset,
            extra=extra,
            comment=comment,
            in_central_directory=in_central_directory,
            external_attributes=external_attributes,
        )
        header = pack_local_header(entry)
        self._write(header)
        self._write(payload)
        self._entries.append(entry)
        # Digest the whole extent (header + name + extra + payload) so that
        # header corruption is as detectable later as payload bitrot.
        digest = hashlib.sha256(header)
        digest.update(payload)
        self._digests.append(ExtentDigest(
            kind=KIND_MEMBER if in_central_directory else KIND_PSEUDO,
            offset=entry.local_header_offset,
            size=len(header) + len(payload),
            digest=digest.digest(),
            name=name,
        ))
        return entry

    def add_deflate_member(self, name: str, data: bytes, **kwargs) -> ZipEntry:
        """Convenience: compress ``data`` with deflate and add it (method 8)."""
        compressed = deflate_compress(data)
        return self.add_member(
            name,
            compressed,
            method=METHOD_DEFLATE,
            uncompressed_size=len(data),
            crc=crc32(data),
            **kwargs,
        )

    def add_pseudo_file(self, data: bytes, *, deflate: bool = True) -> ZipEntry:
        """Add a hidden pseudo-file (used for archived decoders).

        Decoders are themselves compressed "using a fixed, well-known
        algorithm: namely the ubiquitous deflate method" (section 3.2).
        """
        if deflate:
            compressed = deflate_compress(data)
            return self.add_member(
                "",
                compressed,
                method=METHOD_DEFLATE,
                uncompressed_size=len(data),
                crc=crc32(data),
                in_central_directory=False,
            )
        return self.add_member("", data, in_central_directory=False)

    # -- finishing ---------------------------------------------------------------------

    @property
    def current_offset(self) -> int:
        return self._offset

    @property
    def total_size(self) -> int:
        """Bytes written so far (the archive size once finished)."""
        return self._offset

    def finish(self, comment: bytes = b"", *, commit: bool = False):
        """Write the central directory and EOCD.

        With ``commit=True`` a per-extent digest table is first written as a
        hidden pseudo-file and a commit marker is appended to the EOCD
        comment -- see :mod:`repro.zipformat.commit`.  Plain ZIP readers see
        both as inert bytes; commit-aware readers get torn-write detection
        and a bitrot oracle.

        Returns the archive bytes when the writer owns its buffer, ``None``
        when writing to a caller-supplied sink.
        """
        if self._finished:
            raise ZipFormatError("archive already finalised")
        marker_suffix = b""
        if commit:
            if len(comment) > MAX_COMMITTED_COMMENT:
                raise ZipFormatError(
                    f"comment of {len(comment)} bytes leaves no room for the "
                    f"commit marker (max {MAX_COMMITTED_COMMENT})"
                )
            table_blob = DigestTable(extents=list(self._digests)).pack()
            # Stored uncompressed: the table must stay readable even when
            # nothing else in the archive is.
            table_entry = self.add_member("", table_blob, in_central_directory=False)
            table_extent = self._digests.pop()  # the table does not digest itself
            table_offset = table_entry.local_header_offset
            table_size = table_extent.size
            table_sha = table_extent.digest  # covers the full extent, like all rows
        directory = bytearray()
        listed = [entry for entry in self._entries if entry.in_central_directory]
        for entry in listed:
            directory += pack_central_header(entry)
        directory_offset = self._offset
        # Recorded for callers that need the directory's extent after the
        # fact (the torn-finalize fault injector tears inside it).
        self.directory_offset = directory_offset
        self.directory_size = len(directory)
        self._write(bytes(directory))
        if commit:
            marker_suffix = CommitMarker(
                directory_offset=directory_offset,
                directory_size=len(directory),
                directory_sha256=sha256(bytes(directory)),
                table_offset=table_offset,
                table_size=table_size,
                table_sha256=table_sha,
            ).pack()
        self._write(pack_eocd(len(listed), len(directory), directory_offset,
                              comment + marker_suffix))
        self._finished = True
        if self._owns_sink:
            return self._sink.getvalue()
        return None
