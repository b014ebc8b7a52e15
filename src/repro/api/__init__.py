"""``repro.api`` -- the public, streaming, session-oriented archive facade.

This package is the single supported surface for working with vxZIP
archives::

    import repro.api as vxa

    # Build an archive straight onto disk.
    with vxa.create("backup.zip", vxa.WriteOptions(allow_lossy=True)) as builder:
        builder.add("notes.txt", b"hello")

    # Read it back without ever loading the whole file into memory.
    with vxa.open("backup.zip") as archive:
        data = archive.extract("notes.txt").data
        with archive.open_member("notes.txt") as stream:
            first = stream.read(4096)          # chunked streaming decode
        report = archive.check()               # always-run-the-decoder check

Both :func:`open` and :func:`create` accept either a filesystem path or a
seekable binary file object; configuration is carried by the frozen
:class:`ReadOptions` / :class:`WriteOptions` dataclasses, and decoder VM
lifecycle (the paper's section 2.4 reuse-vs-reinitialise trade-off) is
owned by one :class:`DecoderSession` per archive.
"""

from __future__ import annotations

import builtins
import os

from repro.api.archive import (
    Archive,
    ExtractionRecord,
    ExtractionReport,
    MemberFailure,
    MemberInfo,
    MemberPlan,
    safe_extract_path,
)
from repro.api.builder import ArchiveBuilder
from repro.api.options import (
    EXECUTOR_AUTO,
    EXECUTOR_PROCESS,
    EXECUTOR_THREAD,
    ON_DAMAGE_REJECT,
    ON_DAMAGE_SALVAGE,
    ON_ERROR_ABORT,
    ON_ERROR_QUARANTINE,
    ON_ERROR_SKIP,
    ReadOptions,
    WriteOptions,
)
from repro.faults import FaultPlan, FaultSpec
from repro.api.session import DecoderSession
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.core.types import (
    ArchivedFileInfo,
    ArchiveManifest,
    ExtractedFile,
    IntegrityReport,
    MODE_AUTO,
    MODE_NATIVE,
    MODE_VXA,
    SessionStats,
)

__all__ = [
    "open",
    "create",
    "Archive",
    "ArchiveBuilder",
    "ReadOptions",
    "WriteOptions",
    "DecoderSession",
    "SessionStats",
    "ExtractedFile",
    "ExtractionRecord",
    "ExtractionReport",
    "MemberFailure",
    "ArchivedFileInfo",
    "ArchiveManifest",
    "FaultPlan",
    "FaultSpec",
    "IntegrityReport",
    "MemberInfo",
    "MemberPlan",
    "SecurityAttributes",
    "VmReusePolicy",
    "MODE_AUTO",
    "MODE_NATIVE",
    "MODE_VXA",
    "EXECUTOR_AUTO",
    "EXECUTOR_PROCESS",
    "EXECUTOR_THREAD",
    "ON_ERROR_ABORT",
    "ON_ERROR_SKIP",
    "ON_ERROR_QUARANTINE",
    "ON_DAMAGE_REJECT",
    "ON_DAMAGE_SALVAGE",
    "safe_extract_path",
]


def open(source, options: ReadOptions | None = None) -> Archive:
    """Open a vxZIP archive for reading.

    ``source`` may be a filesystem path (opened and owned by the returned
    :class:`Archive`), a seekable binary file object, or -- for convenience
    -- in-memory ``bytes``.
    """
    if isinstance(source, (str, os.PathLike)):
        file = builtins.open(source, "rb")
        try:
            return Archive(file, options, owns_file=True, source_path=source)
        except BaseException:
            file.close()
            raise
    return Archive(source, options)


def create(target, options: WriteOptions | None = None) -> ArchiveBuilder:
    """Start building a vxZIP archive.

    ``target`` may be a filesystem path (created and owned by the returned
    :class:`ArchiveBuilder`) or a writable binary file object.  Path targets
    default to the crash-consistent finalize (``WriteOptions.durable``):
    the archive is built in a temp file next to its destination and only
    renamed into place -- fsynced -- once complete, so a crash mid-build
    can never leave a torn archive under the target name.
    """
    options = options or WriteOptions()
    if isinstance(target, (str, os.PathLike)):
        if options.durable:
            final_path = os.fspath(target)
            temp_path = f"{final_path}.vxa-tmp.{os.getpid()}"
            file = builtins.open(temp_path, "wb")
            try:
                return ArchiveBuilder(file, options, owns_file=True,
                                      final_path=final_path, temp_path=temp_path)
            except BaseException:
                file.close()
                os.unlink(temp_path)
                raise
        file = builtins.open(target, "wb")
        try:
            return ArchiveBuilder(file, options, owns_file=True)
        except BaseException:
            file.close()
            raise
    return ArchiveBuilder(target, options)
