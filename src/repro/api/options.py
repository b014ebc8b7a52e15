"""Frozen configuration objects for the :mod:`repro.api` facade.

Every reading and writing knob (extraction mode, engine, execution limits,
VM reuse policy, lossy permission, ...) lives in one of two immutable
dataclasses, fixed for the lifetime of an
:class:`~repro.api.archive.Archive` or
:class:`~repro.api.builder.ArchiveBuilder` session and handed down whole
to the layers that read them.  A scheduler can hand a session to a worker
knowing its behaviour cannot drift mid-batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from repro.core.policy import VmReusePolicy
from repro.core.types import MODE_AUTO, MODE_NATIVE, MODE_VXA
from repro.vm.limits import ExecutionLimits
from repro.vm.machine import ENGINE_INTERPRETER, ENGINE_TRANSLATOR

if TYPE_CHECKING:
    from repro.codecs.registry import CodecRegistry
    from repro.faults import FaultPlan

_MODES = (MODE_AUTO, MODE_NATIVE, MODE_VXA)
_ENGINES = (ENGINE_TRANSLATOR, ENGINE_INTERPRETER)

#: Executor kinds for parallel extraction (``ReadOptions.executor``).
EXECUTOR_AUTO = "auto"
EXECUTOR_PROCESS = "process"
EXECUTOR_THREAD = "thread"
_EXECUTORS = (EXECUTOR_AUTO, EXECUTOR_PROCESS, EXECUTOR_THREAD)

#: Per-member failure policies (``ReadOptions.on_error``).
ON_ERROR_ABORT = "abort"
ON_ERROR_SKIP = "skip"
ON_ERROR_QUARANTINE = "quarantine"
_ON_ERROR = (ON_ERROR_ABORT, ON_ERROR_SKIP, ON_ERROR_QUARANTINE)

#: Media-damage policies (``ReadOptions.on_damage``).
ON_DAMAGE_REJECT = "reject"
ON_DAMAGE_SALVAGE = "salvage"
_ON_DAMAGE = (ON_DAMAGE_REJECT, ON_DAMAGE_SALVAGE)

#: Torn-finalize fault injection points (``WriteOptions.finalize_fault``).
FINALIZE_FAULT_PRE_FSYNC = "pre-fsync"
FINALIZE_FAULT_PRE_RENAME = "pre-rename"
FINALIZE_FAULT_MID_DIRECTORY = "mid-directory"
_FINALIZE_FAULTS = (FINALIZE_FAULT_PRE_FSYNC, FINALIZE_FAULT_PRE_RENAME,
                    FINALIZE_FAULT_MID_DIRECTORY)


@dataclass(frozen=True)
class ReadOptions:
    """Session-wide configuration for reading an archive.

    Attributes:
        mode: default extraction mode -- ``"auto"`` (native decoder when
            available, archived decoder otherwise), ``"native"`` or ``"vxa"``.
            ``"vxa"`` needs no codec dependency: it imports no codec module,
            no numpy and no compiler, only the VM and the archived decoder.
            ``"auto"`` and ``"native"`` import the codecs of the members they
            meet, when they meet them.
        force_decode: decode pre-compressed (redec) members all the way to
            their uncompressed form instead of returning the stored bytes.
        engine: VM engine used for archived decoders (``"translator"`` or
            ``"interpreter"``).
        limits: resource ceilings for decoder runs (``None`` -> defaults).
        reuse: VM reuse policy applied across members sharing a decoder
            (paper section 2.4); enforced by the session's
            :class:`~repro.api.session.DecoderSession`.  It decides when a
            sandbox is re-initialised, never whether translated code is kept:
            that belongs to the decoder image under every policy.
        registry: codec registry for native fast paths (``None`` -> default).
        jobs: default worker count for :meth:`Archive.extract_into` and
            :meth:`Archive.check` (``1`` keeps the serial path; ``N > 1``
            shards members by decoder image across the
            :mod:`repro.parallel` engine).
        executor: worker pool flavour for ``jobs > 1`` -- ``"process"``
            (one OS process per worker, true multi-core scaling),
            ``"thread"`` (in-process pool: cheap startup, used for small
            archives and tests), or ``"auto"`` to choose by workload size
            and machine shape.
        verify_images: static-analysis admission policy for archived
            decoder images -- ``"off"`` (default), ``"warn"`` (analyse and
            warn on unsafe images) or ``"reject"`` (refuse to run an image
            the verifier cannot prove safe; see :mod:`repro.analysis`).
        on_error: what a failing member does to the rest of the run --
            ``"abort"`` (default: first failure raises, matching the old
            behaviour), ``"skip"`` (record the failure in the
            :class:`~repro.api.archive.ExtractionReport` and continue) or
            ``"quarantine"`` (like skip, but failed members are flagged
            quarantined and crash-killed members are retried up to
            ``retries`` before quarantine).
        retries: per-member retry budget after a worker crash (fresh VM and
            fresh session on each retry).  A member whose processing kills
            workers ``retries + 1`` times is quarantined rather than
            retried forever.  Only consulted when ``on_error`` is not
            ``"abort"``.
        member_deadline: wall-clock seconds one member's decoder run may
            take before it is aborted with
            :class:`~repro.errors.DeadlineExceeded` (piggybacked on the
            engines' fuel checks, so a wedged guest cannot hang a worker).
            ``None`` disables the deadline.
        fault_plan: deterministic fault-injection plan
            (:class:`~repro.faults.FaultPlan`) consulted by the read path's
            chaos hooks; ``None`` (production) makes every hook a no-op.
        on_damage: what archive *media* damage does to the session --
            ``"reject"`` (default: a torn or corrupt container raises
            :class:`~repro.errors.ArchiveDamagedError`/``ZipFormatError``
            at open) or ``"salvage"`` (reconstruct the directory by
            scanning local headers, extract healthy members byte-identically
            and route damaged ones through the
            :class:`~repro.api.archive.ExtractionReport` as per-member
            failures, mirroring what ``on_error`` does for failing
            decoders).
        durable_output: fsync extracted files (and their directory) before
            the temp-to-final rename in :meth:`Archive.extract_into`, so a
            crash right after extraction cannot leave renamed-but-empty
            output files.  Default on; disable for bulk scratch extractions
            where speed beats durability.
    """

    mode: str = MODE_AUTO
    force_decode: bool = False
    engine: str = ENGINE_TRANSLATOR
    limits: ExecutionLimits | None = None
    reuse: VmReusePolicy = VmReusePolicy.ALWAYS_FRESH
    registry: CodecRegistry | None = None
    jobs: int = 1
    executor: str = EXECUTOR_AUTO
    verify_images: str = "off"
    on_error: str = ON_ERROR_ABORT
    retries: int = 1
    member_deadline: float | None = None
    fault_plan: FaultPlan | None = None
    on_damage: str = ON_DAMAGE_REJECT
    durable_output: bool = True

    def __post_init__(self):
        if self.mode not in _MODES:
            raise ValueError(f"unknown extraction mode {self.mode!r}")
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if not isinstance(self.reuse, VmReusePolicy):
            raise TypeError("reuse must be a VmReusePolicy")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.executor not in _EXECUTORS:
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.verify_images not in ("off", "warn", "reject"):
            raise ValueError(f"unknown verify_images mode {self.verify_images!r}")
        if self.on_error not in _ON_ERROR:
            raise ValueError(f"unknown on_error policy {self.on_error!r}")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.member_deadline is not None and self.member_deadline <= 0:
            raise ValueError("member_deadline must be positive")
        if self.fault_plan is not None:
            from repro.faults import FaultPlan

            if not isinstance(self.fault_plan, FaultPlan):
                raise TypeError("fault_plan must be a FaultPlan")
        if self.on_damage not in _ON_DAMAGE:
            raise ValueError(f"unknown on_damage policy {self.on_damage!r}")

    def with_changes(self, **changes) -> "ReadOptions":
        """A copy of these options with some fields replaced."""
        return replace(self, **changes)


@dataclass(frozen=True)
class WriteOptions:
    """Session-wide configuration for building an archive.

    Attributes:
        registry: codec registry used for recognition/selection/encoding
            (``None`` -> default).
        allow_lossy: permit lossy media codecs during codec selection.
        comment: ZIP end-of-central-directory comment.
        durable: crash-consistent finalize for path-backed builds -- the
            archive is written to a temp file next to its destination, the
            file and its parent directory are fsynced, and only then is it
            atomically renamed into place.  A crash at any point leaves
            either the complete old state or the complete new archive,
            never a torn one.  Ignored for caller-supplied sinks (sockets,
            in-memory buffers), which have no rename to make atomic.
        commit_record: append the end-of-archive commit record (per-extent
            SHA-256 digest table + commit marker,
            :mod:`repro.zipformat.commit`) at finalize.  Backward
            compatible -- plain ZIP readers see only comment bytes and one
            more hidden pseudo-file.  Disable only for interop ablations.
        finalize_fault: deterministic torn-finalize injection point for the
            chaos suite -- ``"pre-fsync"`` / ``"pre-rename"`` abort the
            durable finalize before the respective step, ``"mid-directory"``
            truncates the temp file halfway through the central directory
            first.  ``None`` (production) injects nothing.
    """

    registry: CodecRegistry | None = None
    allow_lossy: bool = False
    comment: bytes = b"vxZIP archive"
    durable: bool = True
    commit_record: bool = True
    finalize_fault: str | None = None

    def __post_init__(self):
        if (self.finalize_fault is not None
                and self.finalize_fault not in _FINALIZE_FAULTS):
            raise ValueError(f"unknown finalize_fault {self.finalize_fault!r}")

    def with_changes(self, **changes) -> "WriteOptions":
        """A copy of these options with some fields replaced."""
        return replace(self, **changes)
