"""The VXA architecture core beneath the :mod:`repro.api` facade.

Extension headers, decoder storage, the VM reuse policy, integrity checking
and the result types the facade shares.
"""

from repro.core.decoder_store import DecoderStore, StoredDecoder
from repro.core.extension import VxaExtension, parse_extension
from repro.core.integrity import check_archive, format_report, is_archive_intact
from repro.core.policy import SecurityAttributes, VmReusePolicy, reuse_groups
from repro.core.types import (
    ArchivedFileInfo,
    ArchiveManifest,
    ExtractedFile,
    IntegrityReport,
    MODE_AUTO,
    MODE_NATIVE,
    MODE_VXA,
)

__all__ = [
    "ExtractedFile",
    "IntegrityReport",
    "MODE_AUTO",
    "MODE_NATIVE",
    "MODE_VXA",
    "ArchivedFileInfo",
    "ArchiveManifest",
    "DecoderStore",
    "StoredDecoder",
    "VxaExtension",
    "parse_extension",
    "check_archive",
    "format_report",
    "is_archive_intact",
    "SecurityAttributes",
    "VmReusePolicy",
    "reuse_groups",
]
