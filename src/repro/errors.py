"""Exception hierarchy for the VXA reproduction.

All library-specific errors derive from :class:`VxaError` so applications can
catch one base class.  Errors raised *on behalf of* a guest decoder (faults,
sandbox violations, resource exhaustion) derive from :class:`GuestFault`;
they indicate that an archived decoder misbehaved, never that the host is in
an inconsistent state -- this is the isolation property of paper section 2.4.
"""

from __future__ import annotations


class VxaError(Exception):
    """Base class for all errors raised by this library."""


# --------------------------------------------------------------------------
# Toolchain errors (ISA / assembler / ELF / vxc compiler)
# --------------------------------------------------------------------------

class InvalidInstructionError(VxaError):
    """An instruction could not be encoded or decoded.

    Decode failures carry the instruction offset and a machine-readable
    reason so static analysis (:mod:`repro.analysis`) can pinpoint
    ill-formed code in its report instead of parsing exception text.
    """

    def __init__(self, message: str, *, offset: int | None = None,
                 reason: str | None = None):
        super().__init__(message)
        self.offset = offset
        self.reason = reason or "invalid"

    def __reduce__(self):
        # Rebuild through the constructor so offset/reason survive the
        # pickle boundary regardless of how args were formatted.
        return (_rebuild_invalid_instruction,
                (self.args[0], self.offset, self.reason))


class AssemblerError(VxaError):
    """Assembly source was malformed (bad mnemonic, unknown label, ...)."""


class ElfFormatError(VxaError):
    """An ELF image was malformed or not a VXA-32 executable."""


class VxcError(VxaError):
    """Base class for vxc compiler errors."""


class VxcSyntaxError(VxcError):
    """vxc source failed to lex or parse."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        location = ""
        if line is not None:
            location = f" at line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(message + location)
        self.line = line
        self.column = column

    def __reduce__(self):
        # The constructor *appends* the location to the message, so a naive
        # rebuild from the stored (already-formatted) message with the same
        # line/column would duplicate it.  Rebuild from the formatted
        # message with no location and restore line/column as state.
        return (VxcSyntaxError, (self.args[0],),
                {"line": self.line, "column": self.column})


class VxcSemanticError(VxcError):
    """vxc source is syntactically valid but semantically wrong."""


# --------------------------------------------------------------------------
# Virtual machine / guest faults
# --------------------------------------------------------------------------

class GuestFault(VxaError):
    """A guest decoder faulted; the host and VM remain consistent."""


class MemoryFault(GuestFault):
    """The guest accessed memory outside its sandbox."""

    def __init__(self, address: int, size: int, kind: str):
        super().__init__(f"guest {kind} fault: address=0x{address:08x} size={size}")
        self.address = address
        self.size = size
        self.kind = kind

    def __reduce__(self):
        # args holds the formatted message, not the constructor arguments, so
        # spell out how to rebuild the fault when it crosses a process
        # boundary (parallel extraction workers return faults by pickle).
        return (MemoryFault, (self.address, self.size, self.kind))


class IllegalInstructionFault(GuestFault):
    """The guest executed an illegal or unsafe instruction."""


class DivisionFault(GuestFault):
    """The guest divided by zero."""


class SyscallFault(GuestFault):
    """The guest made an invalid virtual system call."""


class ResourceLimitExceeded(GuestFault):
    """The guest exceeded an execution resource limit (fuel, output, memory)."""


class DeadlineExceeded(ResourceLimitExceeded):
    """The guest ran past its wall-clock deadline (``member_deadline``).

    Derives from :class:`ResourceLimitExceeded` so every handler that
    already contains a fuel-exhausted decoder contains a wedged one too.
    ``instructions`` records the guest fuel consumed when the deadline
    fired, when the engine knows it.
    """

    def __init__(self, message: str, *, deadline: float | None = None,
                 instructions: int | None = None):
        super().__init__(message)
        self.deadline = deadline
        self.instructions = instructions

    def __reduce__(self):
        return (_rebuild_deadline_exceeded,
                (self.args[0], self.deadline, self.instructions))


class InjectedFault(GuestFault):
    """A deterministic fault raised by an active :mod:`repro.faults` plan.

    Only ever raised when a :class:`~repro.faults.FaultPlan` is installed
    (tests and chaos drills); production runs never construct one.
    """


# --------------------------------------------------------------------------
# Codec and data format errors
# --------------------------------------------------------------------------

class CodecError(VxaError):
    """Encoded data is corrupt or not in the expected codec format."""


class FormatError(VxaError):
    """An uncompressed container (BMP/WAV/PPM) is malformed."""


# --------------------------------------------------------------------------
# Archive errors
# --------------------------------------------------------------------------

class ZipFormatError(VxaError):
    """A ZIP container is structurally malformed."""


class ArchiveError(VxaError):
    """A vxZIP archive violates the VXA conventions (missing decoder, ...)."""


class IntegrityError(ArchiveError):
    """An archive integrity check failed (CRC mismatch or decode failure)."""


class ImageVerificationError(ArchiveError):
    """A decoder image failed static verification under ``verify_images="reject"``.

    Raised *before* any VM runs the image, so a hostile or malformed decoder
    is refused at admission rather than merely contained at runtime.  Derives
    from :class:`ArchiveError` so integrity checks record the refusal as an
    ordinary member failure.
    """


class DecoderMissingError(ArchiveError):
    """An archived file references a decoder that is not present."""


class ArchiveDamagedError(ArchiveError):
    """The archive media is damaged beyond what the caller allows.

    Raised when opening a corrupt/torn archive under ``on_damage="reject"``,
    or when repair finds nothing salvageable.  Not retryable: the bytes on
    disk will not get better by asking again.
    """


class PathTraversalError(ArchiveError):
    """A member name would escape the extraction directory (zip-slip)."""


# --------------------------------------------------------------------------
# Parallel execution errors
# --------------------------------------------------------------------------

class WorkerCrashed(VxaError):
    """A pool worker died (or simulated dying) while processing a shard.

    This is a *host-level* event, not a guest fault: the worker process was
    killed (``BrokenProcessPool``), or an injected ``kill-worker`` fault
    fired in a thread/serial worker.  The parallel engine converts it into
    a reschedule of the shard's unfinished members; under
    ``on_error="abort"`` it propagates to the caller.
    """

    def __init__(self, message: str, *, member: str | None = None,
                 worker: int | None = None):
        super().__init__(message)
        self.member = member
        self.worker = worker

    def __reduce__(self):
        return (_rebuild_worker_crashed,
                (self.args[0], self.member, self.worker))


# --------------------------------------------------------------------------
# Pickle rebuild helpers (keyword-only constructors cannot be re-invoked
# from a plain args tuple; workers report structured errors by pickle)
# --------------------------------------------------------------------------

def _rebuild_invalid_instruction(message, offset, reason):
    return InvalidInstructionError(message, offset=offset, reason=reason)


def _rebuild_deadline_exceeded(message, deadline, instructions):
    return DeadlineExceeded(message, deadline=deadline,
                            instructions=instructions)


def _rebuild_worker_crashed(message, member, worker):
    return WorkerCrashed(message, member=member, worker=worker)
