"""The streaming archive-building facade (vxZIP's writing side).

:class:`ArchiveBuilder` writes members straight through to a caller-supplied
(or path-opened) binary sink as they are added, so building a multi-gigabyte
archive never accumulates the whole output in memory.  Codec selection keeps the paper's
behaviour: recognise already-compressed input and store it untouched with a
decoder attached (the redec path), otherwise encode with a fitting codec
and tag the member with the reserved VXA method.
"""

from __future__ import annotations

import contextlib
import os
import pathlib

from repro.codecs.base import Codec
from repro.codecs.registry import default_registry
from repro.core.decoder_store import DecoderStore, StoredDecoder
from repro.core.extension import VxaExtension, pack_unix_extra
from repro.core.fsutil import fsync_directory, fsync_file
from repro.core.policy import SecurityAttributes
from repro.core.types import ArchivedFileInfo, ArchiveManifest
from repro.errors import ArchiveError
from repro.faults.media import TornFinalize
from repro.zipformat.crc import crc32
from repro.zipformat.structures import METHOD_STORE, METHOD_VXA
from repro.zipformat.writer import ZipWriter

from repro.api.options import (
    FINALIZE_FAULT_MID_DIRECTORY,
    FINALIZE_FAULT_PRE_FSYNC,
    FINALIZE_FAULT_PRE_RENAME,
    WriteOptions,
)


class ArchiveBuilder:
    """Builds vxZIP archives onto a writable binary sink.

    Use :func:`repro.api.create` rather than constructing directly.  The
    builder is a context manager: leaving the ``with`` block cleanly
    finalises the archive (writes the central directory); leaving it on an
    exception does not, so a half-built archive is never silently passed
    off as complete.
    """

    def __init__(self, file, options: WriteOptions | None = None, *,
                 owns_file: bool = False, final_path=None, temp_path=None):
        self.options = options or WriteOptions()
        self._file = file
        self._owns_file = owns_file
        # Durable path-backed builds write to ``temp_path`` and atomically
        # rename onto ``final_path`` at close; both stay ``None`` for
        # caller-supplied sinks (see :func:`repro.api.create`).
        self._final_path = pathlib.Path(final_path) if final_path is not None else None
        self._temp_path = pathlib.Path(temp_path) if temp_path is not None else None
        self._registry = self.options.registry or default_registry()
        self._zip = ZipWriter(sink=file)
        self._decoders = DecoderStore(self._zip)
        self._manifest = ArchiveManifest()
        self._finished = False
        self._closed = False

    @property
    def temp_path(self):
        """Temp file a durable build is writing to (``None`` otherwise)."""
        return self._temp_path

    # -- adding files ----------------------------------------------------------

    def add(
        self,
        name: str,
        data: bytes,
        *,
        codec: str | None = None,
        allow_lossy: bool | None = None,
        attributes: SecurityAttributes | None = None,
        store_raw: bool = False,
        encode_options: dict | None = None,
    ) -> ArchivedFileInfo:
        """Archive one file.

        Args:
            name: member name inside the archive.
            data: file contents.
            codec: force a specific codec by name (bypasses selection).
            allow_lossy: override the session-level lossy policy for this file.
            attributes: Unix-style security attributes recorded on the member.
            store_raw: store the file uncompressed with no decoder attached.
            encode_options: extra keyword arguments for the codec's encoder.
        """
        if self._finished:
            raise ArchiveError("archive already finalised")
        if not name:
            raise ArchiveError("archived files need a name")
        lossy_ok = (self.options.allow_lossy if allow_lossy is None
                    else allow_lossy)
        attributes = attributes or SecurityAttributes()
        external = (attributes.mode & 0xFFFF) << 16
        # uid/gid ride in a standard Info-ZIP extra field so readers can
        # reconstruct the full protection domain for VM-reuse decisions;
        # omitted for the default 0/0 domain, which readers assume anyway.
        unix_extra = b""
        if attributes.owner or attributes.group:
            unix_extra = pack_unix_extra(attributes.owner, attributes.group)

        if store_raw:
            self._zip.add_member(name, data, method=METHOD_STORE,
                                 extra=unix_extra,
                                 external_attributes=external)
            info = ArchivedFileInfo(name, None, len(data), len(data), False,
                                    METHOD_STORE)
            self._manifest.files.append(info)
            return info

        recognized = self._registry.recognize_compressed(data)
        if codec is not None:
            chosen = self._registry.get(codec)
            if recognized is not None and recognized.name == chosen.name:
                return self._add_precompressed(name, data, chosen, external,
                                               unix_extra)
            return self._add_encoded(name, data, chosen, external, unix_extra,
                                     encode_options)
        if recognized is not None:
            return self._add_precompressed(name, data, recognized, external,
                                           unix_extra)
        chosen = self._registry.select_for_raw(data, allow_lossy=lossy_ok)
        return self._add_encoded(name, data, chosen, external, unix_extra,
                                 encode_options)

    def add_path(self, path, name: str | None = None, **kwargs) -> ArchivedFileInfo:
        """Archive a file from disk (member name defaults to its basename)."""
        path = pathlib.Path(path)
        return self.add(name or path.name, path.read_bytes(), **kwargs)

    def _attach(self, codec: Codec) -> StoredDecoder | None:
        if not self.options.attach_decoders:
            return None
        return self._decoders.store(codec.name, codec.guest_decoder_image())

    def _add_precompressed(self, name: str, data: bytes, codec: Codec,
                           external: int, unix_extra: bytes) -> ArchivedFileInfo:
        """The redec path: store already-compressed data untouched (method 0)."""
        decoder = self._attach(codec)
        decoded = codec.decode(data)
        extra = unix_extra
        if decoder is not None:
            extra += VxaExtension(
                decoder_offset=decoder.offset,
                original_size=len(decoded),
                original_crc32=crc32(decoded),
                codec_name=codec.name,
                precompressed=True,
                lossy=codec.info.lossy,
            ).pack()
        self._zip.add_member(name, data, method=METHOD_STORE, extra=extra,
                             external_attributes=external)
        info = ArchivedFileInfo(name, codec.name, len(data), len(data), True,
                                METHOD_STORE)
        self._manifest.files.append(info)
        return info

    def _add_encoded(self, name: str, data: bytes, codec: Codec, external: int,
                     unix_extra: bytes,
                     encode_options: dict | None) -> ArchivedFileInfo:
        """Compress with a codec's native encoder and tag with the VXA method."""
        encoded = codec.encode(data, **(encode_options or {}))
        decoder = self._attach(codec)
        # For lossy codecs the "original" the decoder reproduces is the decoded
        # output, not the input bytes; record the decoder's actual product so
        # integrity checks are meaningful (paper section 2.3).
        if codec.info.lossy:
            reference = codec.decode(encoded)
        else:
            reference = data
        reference_crc = crc32(reference)
        extra = unix_extra
        if decoder is not None:
            extra += VxaExtension(
                decoder_offset=decoder.offset,
                original_size=len(reference),
                original_crc32=reference_crc,
                codec_name=codec.name,
                precompressed=False,
                lossy=codec.info.lossy,
            ).pack()
        self._zip.add_member(
            name,
            encoded,
            method=METHOD_VXA,
            uncompressed_size=len(reference),
            crc=reference_crc,
            extra=extra,
            external_attributes=external,
        )
        info = ArchivedFileInfo(name, codec.name, len(encoded), len(data),
                                False, METHOD_VXA)
        self._manifest.files.append(info)
        return info

    # -- finishing -------------------------------------------------------------

    def finish(self, comment: bytes | None = None) -> ArchiveManifest:
        """Write the central directory and EOCD; return the manifest."""
        if self._finished:
            raise ArchiveError("archive already finalised")
        self._zip.finish(self.options.comment if comment is None else comment,
                         commit=self.options.commit_record)
        self._finished = True
        self._manifest.decoders = self._decoders.stored
        self._manifest.archive_size = self._zip.total_size
        return self._manifest

    @property
    def manifest(self) -> ArchiveManifest:
        return self._manifest

    @property
    def finished(self) -> bool:
        return self._finished

    def close(self) -> None:
        """Finalise (if needed) and release the sink when the builder owns it.

        Durable path-backed builds complete the crash-consistency sequence
        here: flush + fsync the temp file, atomically rename it onto the
        destination, then fsync the parent directory.  A crash anywhere in
        that sequence leaves either the old destination state or the fully
        committed new archive -- never a torn one.
        """
        if self._closed:
            return
        if not self._finished:
            self.finish()
        self._closed = True
        if self._final_path is not None:
            self._durable_finalize()
        elif self._owns_file:
            self._file.close()

    def _durable_finalize(self) -> None:
        fault = self.options.finalize_fault
        file = self._file
        if fault == FINALIZE_FAULT_MID_DIRECTORY:
            # Simulate the writeback stopping halfway through the central
            # directory: members are on disk, the directory is torn and the
            # EOCD never made it.
            file.flush()
            tear_at = self._zip.directory_offset + max(1, self._zip.directory_size // 2)
            file.truncate(tear_at)
            file.close()
            raise TornFinalize("simulated crash mid central-directory write")
        if fault == FINALIZE_FAULT_PRE_FSYNC:
            file.flush()
            file.close()
            raise TornFinalize("simulated crash before output fsync")
        fsync_file(file)
        file.close()
        if fault == FINALIZE_FAULT_PRE_RENAME:
            raise TornFinalize("simulated crash before atomic rename")
        os.replace(self._temp_path, self._final_path)
        fsync_directory(self._final_path.parent)

    def __enter__(self) -> "ArchiveBuilder":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
            return
        if self._owns_file:
            with contextlib.suppress(OSError, ValueError):
                self._file.close()
        # An abandoned durable build must not leave its temp file around --
        # except after an injected torn finalize, where the temp *is* the
        # simulated crash state the chaos suite inspects.
        if (self._temp_path is not None and not isinstance(exc, TornFinalize)
                and self._temp_path.exists()):
            with contextlib.suppress(OSError):
                self._temp_path.unlink()
