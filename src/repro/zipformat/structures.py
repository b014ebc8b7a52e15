"""ZIP container record layouts (local headers, central directory, EOCD).

The vxZIP format "retains the same basic structure and features as the
existing ZIP format" (paper section 3.1): archives produced here are genuine
ZIP files -- the central directory lists ordinary members, decoder
pseudo-files hide between members with empty filenames, and VXA metadata
rides in a standard extra field.  Unmodified ZIP tools can list and partially
extract these archives (a property the test suite checks with ``zipfile``).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

LOCAL_HEADER_SIGNATURE = b"PK\x03\x04"
CENTRAL_HEADER_SIGNATURE = b"PK\x01\x02"
EOCD_SIGNATURE = b"PK\x05\x06"

_LOCAL_HEADER = struct.Struct("<4sHHHHHIIIHH")
_CENTRAL_HEADER = struct.Struct("<4sHHHHHHIIIHHHHHII")
_EOCD = struct.Struct("<4sHHHHIIH")

#: Compression method tags.
METHOD_STORE = 0
METHOD_DEFLATE = 8
#: The single "special" method tag reserved for files compressed with VXA
#: codecs that have no traditional ZIP method of their own (section 3.1).
METHOD_VXA = 0x5658          # 'VX'

#: Version-needed-to-extract values advertised in headers.
VERSION_STORE = 10
VERSION_DEFLATE = 20
VERSION_VXA = 63             # deliberately high: old tools must skip these members

#: Fixed DOS timestamp used for deterministic archives (2005-12-13, the
#: FAST '05 submission era); callers may override per file.
DEFAULT_DOS_TIME = (0, 0)            # midnight
DEFAULT_DOS_DATE = ((2005 - 1980) << 9) | (12 << 5) | 13


def dos_datetime(year: int, month: int, day: int, hour: int = 0, minute: int = 0,
                 second: int = 0) -> tuple[int, int]:
    """Convert a calendar date to the (time, date) words ZIP headers store."""
    if year < 1980:
        year = 1980
    dos_time = (hour << 11) | (minute << 5) | (second // 2)
    dos_date = ((year - 1980) << 9) | (month << 5) | day
    return dos_time, dos_date


@dataclass
class ZipEntry:
    """One archive member (or decoder pseudo-file)."""

    name: str
    method: int = METHOD_STORE
    crc32: int = 0
    compressed_size: int = 0
    uncompressed_size: int = 0
    local_header_offset: int = 0
    extra: bytes = b""
    comment: bytes = b""
    dos_time: int = DEFAULT_DOS_TIME[0] if isinstance(DEFAULT_DOS_TIME, tuple) else 0
    dos_date: int = DEFAULT_DOS_DATE
    external_attributes: int = 0
    flags: int = 0
    in_central_directory: bool = True

    @property
    def label(self) -> str:
        """How errors name it: a member by name, a pseudo-file by offset."""
        return (f"member {self.name!r}" if self.name
                else f"pseudo-file at offset {self.local_header_offset}")

    def version_needed(self) -> int:
        if self.method == METHOD_VXA:
            return VERSION_VXA
        if self.method == METHOD_DEFLATE:
            return VERSION_DEFLATE
        return VERSION_STORE


def pack_local_header(entry: ZipEntry) -> bytes:
    name_bytes = entry.name.encode("utf-8")
    header = _LOCAL_HEADER.pack(
        LOCAL_HEADER_SIGNATURE,
        entry.version_needed(),
        entry.flags,
        entry.method,
        entry.dos_time,
        entry.dos_date,
        entry.crc32,
        entry.compressed_size,
        entry.uncompressed_size,
        len(name_bytes),
        len(entry.extra),
    )
    return header + name_bytes + entry.extra


def read_local_header(read_at, offset: int):
    """Parse a local file header through a ``read_at(offset, length)`` callable.

    Works over any random-access byte source (an in-memory buffer, a seekable
    file, an mmap) so the reader never has to hold the whole archive in one
    ``bytes`` object.  Returns ``(entry, data_offset)``.
    """
    from repro.errors import ZipFormatError

    fixed = read_at(offset, _LOCAL_HEADER.size)
    if len(fixed) < _LOCAL_HEADER.size or fixed[:4] != LOCAL_HEADER_SIGNATURE:
        raise ZipFormatError(f"no local file header at offset {offset}")
    fields = _LOCAL_HEADER.unpack(fixed)
    (_, _, flags, method, dos_time, dos_date, crc, compressed_size,
     uncompressed_size, name_length, extra_length) = fields
    tail = read_at(offset + _LOCAL_HEADER.size, name_length + extra_length)
    if len(tail) < name_length + extra_length:
        raise ZipFormatError("local file header extends past end of archive")
    entry = ZipEntry(
        name=tail[:name_length].decode("utf-8", "replace"),
        method=method,
        crc32=crc,
        compressed_size=compressed_size,
        uncompressed_size=uncompressed_size,
        local_header_offset=offset,
        extra=tail[name_length:],
        dos_time=dos_time,
        dos_date=dos_date,
        flags=flags,
    )
    return entry, offset + _LOCAL_HEADER.size + name_length + extra_length


def unpack_local_header(data: bytes, offset: int):
    """Parse a local file header out of in-memory bytes; returns ``(entry, data_offset)``."""
    return read_local_header(lambda pos, length: data[pos : pos + length], offset)


def pack_central_header(entry: ZipEntry) -> bytes:
    name_bytes = entry.name.encode("utf-8")
    header = _CENTRAL_HEADER.pack(
        CENTRAL_HEADER_SIGNATURE,
        (3 << 8) | 63,               # made by: UNIX, spec 6.3
        entry.version_needed(),
        entry.flags,
        entry.method,
        entry.dos_time,
        entry.dos_date,
        entry.crc32,
        entry.compressed_size,
        entry.uncompressed_size,
        len(name_bytes),
        len(entry.extra),
        len(entry.comment),
        0,                           # disk number start
        0,                           # internal attributes
        entry.external_attributes,
        entry.local_header_offset,
    )
    return header + name_bytes + entry.extra + entry.comment


def unpack_central_header(data: bytes, offset: int):
    """Parse one central directory record; returns ``(entry, next_offset)``."""
    from repro.errors import ZipFormatError

    if data[offset : offset + 4] != CENTRAL_HEADER_SIGNATURE:
        raise ZipFormatError(f"no central directory record at offset {offset}")
    if offset + _CENTRAL_HEADER.size > len(data):
        raise ZipFormatError("central directory record extends past end of archive")
    fields = _CENTRAL_HEADER.unpack_from(data, offset)
    (_, _, _, flags, method, dos_time, dos_date, crc, compressed_size,
     uncompressed_size, name_length, extra_length, comment_length,
     _, _, external_attributes, local_offset) = fields
    name_start = offset + _CENTRAL_HEADER.size
    extra_start = name_start + name_length
    comment_start = extra_start + extra_length
    next_offset = comment_start + comment_length
    if next_offset > len(data):
        raise ZipFormatError("central directory record extends past end of archive")
    entry = ZipEntry(
        name=data[name_start:extra_start].decode("utf-8", "replace"),
        method=method,
        crc32=crc,
        compressed_size=compressed_size,
        uncompressed_size=uncompressed_size,
        local_header_offset=local_offset,
        extra=data[extra_start:comment_start],
        comment=data[comment_start:next_offset],
        dos_time=dos_time,
        dos_date=dos_date,
        flags=flags,
        external_attributes=external_attributes,
    )
    return entry, next_offset


def pack_eocd(entry_count: int, directory_size: int, directory_offset: int,
              comment: bytes = b"") -> bytes:
    return _EOCD.pack(
        EOCD_SIGNATURE,
        0,
        0,
        entry_count,
        entry_count,
        directory_size,
        directory_offset,
        len(comment),
    ) + comment


#: A ZIP comment is at most 64 KB, so the EOCD record always lives within
#: this many bytes of the end of the archive.
EOCD_SIZE = _EOCD.size
EOCD_MAX_SCAN = 65536 + _EOCD.size


def parse_eocd(buffer: bytes, position: int):
    """Parse an EOCD record at ``position`` inside ``buffer``.

    Returns ``(entry_count, directory_size, directory_offset, comment)``.
    Raises :class:`~repro.errors.ZipFormatError` (never ``struct.error``)
    when the record is truncated or its comment length lies about the tail.
    """
    from repro.errors import ZipFormatError

    if position < 0 or position + _EOCD.size > len(buffer):
        raise ZipFormatError("end of central directory record is truncated")
    fields = _EOCD.unpack_from(buffer, position)
    (_, _, _, entry_count, _, directory_size, directory_offset, comment_length) = fields
    comment_end = position + _EOCD.size + comment_length
    if comment_end > len(buffer):
        raise ZipFormatError(
            "end of central directory comment extends past end of archive"
        )
    comment = buffer[position + _EOCD.size : comment_end]
    return entry_count, directory_size, directory_offset, comment


@dataclass
class ExtraField:
    """One entry of a ZIP extra-field block."""

    header_id: int
    payload: bytes = b""


def pack_extra_fields(fields: list[ExtraField]) -> bytes:
    blob = bytearray()
    for item in fields:
        blob += struct.pack("<HH", item.header_id, len(item.payload))
        blob += item.payload
    return bytes(blob)


def unpack_extra_fields(extra: bytes) -> list[ExtraField]:
    fields: list[ExtraField] = []
    offset = 0
    while offset + 4 <= len(extra):
        header_id, size = struct.unpack_from("<HH", extra, offset)
        offset += 4
        payload = extra[offset : offset + size]
        offset += size
        fields.append(ExtraField(header_id=header_id, payload=payload))
    return fields
