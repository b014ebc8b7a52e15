"""Reproduction of "VXA: A Virtual Architecture for Durable Compressed Archives".

Public API
----------

The supported surface is the streaming, session-oriented facade in
:mod:`repro.api`, re-exported here::

    import repro

    with repro.create("backup.zip") as builder:
        builder.add("notes.txt", b"hello")

    with repro.open("backup.zip") as archive:
        data = archive.extract("notes.txt").data

* :func:`repro.open` / :func:`repro.create` -- open an archive for reading
  or start building one, over a path or a seekable file object.
* :class:`repro.Archive` / :class:`repro.ArchiveBuilder` -- the session
  objects those return (context managers).
* :class:`repro.ReadOptions` / :class:`repro.WriteOptions` -- frozen
  configuration (extraction mode, engine, execution limits, VM reuse
  policy; codec registry, lossy policy, decoder attachment).
* :mod:`repro.errors` -- the exception hierarchy, rooted at
  :class:`repro.errors.VxaError`.

Lower layers remain importable for tooling and experiments:
:class:`repro.vm.VirtualMachine` (the vx32-analogue sandbox that runs
archived decoders), :mod:`repro.codecs` (native encoders + VXA guest
decoders), and :mod:`repro.vxc` (the small C-like compiler used to build
guest decoders).
"""

from repro.api import (
    Archive,
    ArchiveBuilder,
    DecoderSession,
    MODE_AUTO,
    MODE_NATIVE,
    MODE_VXA,
    ON_DAMAGE_REJECT,
    ON_DAMAGE_SALVAGE,
    ReadOptions,
    SecurityAttributes,
    VmReusePolicy,
    WriteOptions,
    create,
    open,
)
from repro.client import VxServeClient, VxServeError
from repro.errors import (
    ArchiveDamagedError,
    ArchiveError,
    CodecError,
    DecoderMissingError,
    GuestFault,
    IntegrityError,
    PathTraversalError,
    VxaError,
    ZipFormatError,
)

__version__ = "0.2.0"

__all__ = [
    "__version__",
    "open",
    "create",
    "Archive",
    "ArchiveBuilder",
    "ReadOptions",
    "WriteOptions",
    "DecoderSession",
    "SecurityAttributes",
    "VmReusePolicy",
    "MODE_AUTO",
    "MODE_NATIVE",
    "MODE_VXA",
    "ON_DAMAGE_REJECT",
    "ON_DAMAGE_SALVAGE",
    "VxServeClient",
    "VxServeError",
    "VxaError",
    "ArchiveDamagedError",
    "ArchiveError",
    "CodecError",
    "DecoderMissingError",
    "GuestFault",
    "IntegrityError",
    "PathTraversalError",
    "ZipFormatError",
]
