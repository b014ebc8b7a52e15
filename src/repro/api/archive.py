"""The streaming, session-oriented archive reading facade.

:class:`Archive` operates on a seekable file object (the central directory
is parsed from the archive tail, member payloads are fetched by offset in
bounded chunks), so a multi-gigabyte archive is never held in memory.  All
behavioural knobs live in one frozen :class:`~repro.api.options.ReadOptions`
and decoder VM lifecycle is owned by a single
:class:`~repro.api.session.DecoderSession` per archive.
"""

from __future__ import annotations

import contextlib
import io
import os
import pathlib
import shutil
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

from repro.codecs.registry import default_registry
from repro.core.extension import VxaExtension, parse_extension, parse_unix_extra
from repro.core.fsutil import fsync_directory, fsync_file
from repro.core.policy import SecurityAttributes, VmReusePolicy
from repro.core.types import (
    ExtractedFile,
    IntegrityReport,
    MODE_AUTO,
    MODE_NATIVE,
    MODE_VXA,
)
from repro.errors import (
    ArchiveError,
    DecoderMissingError,
    IntegrityError,
    PathTraversalError,
    VxaError,
    WorkerCrashed,
)
from repro.vm.limits import ExecutionLimits
from repro.zipformat.crc import crc32
from repro.zipformat.reader import DEFAULT_CHUNK_SIZE, ZipReader
from repro.zipformat.structures import METHOD_STORE, METHOD_VXA, ZipEntry

from repro.api.options import (
    ON_DAMAGE_SALVAGE,
    ON_ERROR_ABORT,
    ON_ERROR_QUARANTINE,
    ReadOptions,
)
from repro.api.session import DecoderSession


@dataclass(frozen=True)
class MemberInfo:
    """Listing metadata for one archive member."""

    name: str
    stored_size: int
    original_size: int
    method: int
    codec_name: str | None
    precompressed: bool
    lossy: bool
    has_decoder: bool
    attributes: SecurityAttributes


@dataclass
class ExtractionRecord:
    """What :meth:`Archive.extract_into` did with one member."""

    name: str
    path: pathlib.Path
    size: int
    used_vxa_decoder: bool
    decoded: bool
    codec_name: str | None

    def as_dict(self) -> dict:
        return dict(vars(self), path=str(self.path))


@dataclass
class MemberFailure:
    """One contained member failure, as the salvage policies record it.

    Attributes:
        name: the failing member.
        error_type: exception class name (``"ResourceLimitExceeded"``, ...).
        message: the exception message.
        offset: the member's archived-decoder pseudo-file offset, when it
            has one (identifies *which* decoder image misbehaved).
        instructions: guest fuel consumed when the failure fired, when the
            engine recorded it on the exception.
        worker: shard worker id that hit the failure (``None`` = serial).
        attempts: processing attempts made, counting crash retries.
        quarantined: the member was put beyond use by the ``quarantine``
            policy (every recorded failure under it, including members that
            repeatedly killed their worker).
    """

    name: str
    error_type: str
    message: str
    offset: int | None = None
    instructions: int | None = None
    worker: int | None = None
    attempts: int = 1
    quarantined: bool = False

    def as_dict(self) -> dict:
        return dict(vars(self))


class ExtractionReport(list):
    """Result of :meth:`Archive.extract_into`: records plus failures.

    A ``list`` subclass holding the successful
    :class:`ExtractionRecord` entries (in the caller's requested order),
    so every caller that treated the return value as a plain record list
    keeps working; the containment layer's extra facts ride on
    attributes:

    * ``failures`` -- :class:`MemberFailure` per contained member failure
      (always empty under ``on_error="abort"``, which raises instead);
    * ``quarantined`` -- names the ``quarantine`` policy put beyond use.
    """

    def __init__(self, records=(), failures=None):
        super().__init__(records)
        self.failures: list[MemberFailure] = list(failures or ())

    @property
    def records(self) -> list[ExtractionRecord]:
        return list(self)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def quarantined(self) -> list[str]:
        return [failure.name for failure in self.failures
                if failure.quarantined]


@dataclass(frozen=True)
class MemberPlan:
    """Scheduling facts about one member extraction.

    ``decoder_offset`` is the member's route read off as the scheduler needs
    it: the archived-decoder pseudo-file offset when the route runs that
    decoder, ``None`` for a VM-free route (plain ZIP data, stored redec bytes,
    or a native codec).  The :mod:`repro.parallel` scheduler groups members
    by it so each worker keeps one warm VM (and each worker process one warm
    code cache) per decoder image.  ``cost`` is the stored size --
    the paper's members are decode-bound, so compressed bytes are a serviceable
    work estimate.  ``domain`` is the canonical protection-domain key used by
    ``REUSE_SAME_ATTRIBUTES`` so a worker can order its members to minimise
    sandbox re-initialisations without ever violating the policy.
    """

    index: int
    name: str
    decoder_offset: int | None
    cost: int
    domain: tuple


#: The four ways a member leaves the archive (:meth:`Archive._route`).
_ROUTE_PLAIN = "plain"      # a plain ZIP member, streamed stored or inflated
_ROUTE_STORED = "stored"    # a pre-compressed member, handed out as stored
_ROUTE_NATIVE = "native"    # decoded by the registry's native codec
_ROUTE_VXA = "vxa"          # decoded by the member's archived decoder


class _Route(NamedTuple):
    """How one member is read, as :meth:`Archive._route` decided it."""

    kind: str
    extension: VxaExtension | None

    @property
    def decoder_offset(self) -> int | None:
        """The archived decoder this route runs; ``None`` when it runs none."""
        return self.extension.decoder_offset if self.kind == _ROUTE_VXA else None

    @property
    def codec_name(self) -> str | None:
        return self.extension.codec_name if self.extension else None


class _MemberStream(io.RawIOBase):
    """Read-only raw stream over a member's (decoded) contents."""

    def __init__(self, chunks: Iterator[bytes], name: str):
        self._chunks = chunks
        self._buffer = b""
        self._name = name

    def readable(self) -> bool:
        return True

    def readinto(self, target) -> int:
        while not self._buffer:
            chunk = next(self._chunks, None)
            if chunk is None:
                return 0
            self._buffer = chunk
        count = min(len(target), len(self._buffer))
        target[:count] = self._buffer[:count]
        self._buffer = self._buffer[count:]
        return count

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<vxa member stream {self._name!r}>"


def _crashes_worker(error: Exception) -> bool:
    """Must ``error`` crash the pool worker instead of being contained?

    An injected worker kill inside a pool worker must *crash the worker*, so
    the pool's crash recovery is the layer under test (a real process kill
    never reaches a handler at all).  Serially it is one more contained
    member failure.
    """
    if not isinstance(error, WorkerCrashed):
        return False
    from repro.parallel.worker import in_worker

    return in_worker()


def safe_extract_path(directory: pathlib.Path, member_name: str) -> pathlib.Path:
    """Resolve ``member_name`` inside ``directory``, refusing zip-slip escapes.

    Raises :class:`~repro.errors.PathTraversalError` for absolute member
    names and for relative names (``../evil``) whose resolution lands
    outside ``directory``.
    """
    if not member_name:
        raise PathTraversalError("archive member has an empty name")
    if member_name.startswith(("/", "\\")) or pathlib.PurePath(member_name).is_absolute():
        raise PathTraversalError(
            f"refusing to extract member with absolute path {member_name!r}"
        )
    base = directory.resolve()
    target = (directory / member_name).resolve()
    if not target.is_relative_to(base):
        raise PathTraversalError(
            f"member name {member_name!r} escapes the extraction directory"
        )
    return directory / member_name


class Archive:
    """A readable vxZIP archive over a seekable file object.

    Use :func:`repro.api.open` rather than constructing directly.  The
    archive is also a context manager; closing it releases the decoder
    session's VMs and (when the facade opened the path itself) the file.
    """

    def __init__(self, file, options: ReadOptions | None = None, *,
                 owns_file: bool = False, source_path=None):
        if isinstance(file, (bytes, bytearray, memoryview)):
            file = io.BytesIO(bytes(file))
        self.options = options or ReadOptions()
        self._file = file
        self._owns_file = owns_file
        #: Filesystem path this archive was opened from, when known.  Worker
        #: processes re-open the archive independently by path; without one
        #: the parallel engine ships the raw bytes instead.
        self._source_path = (pathlib.Path(source_path)
                             if source_path is not None else None)
        # Under on_damage="salvage" a torn or corrupt container is opened
        # anyway: the member directory is reconstructed from local headers
        # and damaged members surface per-member instead of at open.
        self._salvaging = self.options.on_damage == ON_DAMAGE_SALVAGE
        self._zip = ZipReader(file, salvage=self._salvaging)
        self._registry = self.options.registry or default_registry()
        self._limits = self.options.limits or ExecutionLimits()
        if self.options.member_deadline is not None:
            wall = self._limits.max_wall_seconds
            wall = (self.options.member_deadline if wall is None
                    else min(wall, self.options.member_deadline))
            self._limits = replace(self._limits, max_wall_seconds=wall)
        self._decoder_cache: dict[int, bytes] = {}
        self._session = DecoderSession(self._load_decoder, self.options, self._limits)
        if self._zip.directory_reconstructed:
            self._session.stats.directory_reconstructed += 1
        if self._zip.commit_verified:
            self._session.stats.commit_record_verified += 1
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    @property
    def session(self) -> DecoderSession:
        """The decoder session owning VM lifecycle for this archive."""
        return self._session

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._session.close()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "Archive":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- listing --------------------------------------------------------------

    def names(self) -> list[str]:
        return self._zip.names()

    def __len__(self) -> int:
        return len(self._zip)

    def __contains__(self, name: str) -> bool:
        return name in self._zip

    def entries(self) -> list[ZipEntry]:
        return list(self._zip.entries)

    def extension_for(self, name: str) -> VxaExtension | None:
        return parse_extension(self._zip.find(name).extra)

    def decoder_image_for(self, name: str) -> bytes | None:
        """The raw decoder ELF attached to a member, if any."""
        extension = self.extension_for(name)
        if extension is None:
            return None
        return self._load_decoder(extension.decoder_offset)

    def info(self, name: str) -> MemberInfo:
        entry = self._zip.find(name)
        extension = parse_extension(entry.extra)
        return MemberInfo(
            name=entry.name,
            stored_size=entry.compressed_size,
            original_size=(extension.original_size if extension
                           else entry.uncompressed_size),
            method=entry.method,
            codec_name=extension.codec_name if extension else None,
            precompressed=bool(extension and extension.precompressed),
            lossy=bool(extension and extension.lossy),
            has_decoder=extension is not None,
            attributes=self._attributes_for(entry),
        )

    # -- extraction -----------------------------------------------------------

    def extract(self, name: str, *, mode: str | None = None,
                force_decode: bool | None = None) -> ExtractedFile:
        """Extract one member fully into memory.

        Pre-compressed members (the redec path) are returned in their stored,
        still-compressed form unless ``force_decode`` is set, mirroring
        vxUnZIP's default of leaving popular formats compressed on extraction.
        """
        route, chunks = self._read(name, mode, force_decode)
        data = b"".join(chunks)
        return ExtractedFile(
            name, data, route.kind == _ROUTE_VXA, route.codec_name,
            bool(route.extension and route.extension.precompressed),
            decoded=route.kind != _ROUTE_STORED)

    def extract_all(self, *, mode: str | None = None,
                    force_decode: bool | None = None) -> dict[str, ExtractedFile]:
        """Extract every listed member; returns ``{name: ExtractedFile}``."""
        return {
            name: self.extract(name, mode=mode, force_decode=force_decode)
            for name in self.names()
        }

    def open_member(self, name: str, *, mode: str | None = None,
                    force_decode: bool | None = None) -> io.RawIOBase:
        """A readable raw stream over a member's extracted contents.

        Plain and pre-compressed members stream straight off the archive
        file in bounded chunks; members needing a decoder are decoded
        first, then served chunk-wise.
        """
        _, chunks = self._read(name, mode, force_decode)
        return _MemberStream(chunks, name)

    def extract_to(self, name: str, writable, *, mode: str | None = None,
                   force_decode: bool | None = None) -> int:
        """Stream one member's extracted contents into ``writable``.

        Returns the number of bytes written.
        """
        _, chunks = self._read(name, mode, force_decode)
        written = 0
        for chunk in chunks:
            writable.write(chunk)
            written += len(chunk)
        return written

    def extract_into(self, directory, names: list[str] | None = None, *,
                     mode: str | None = None,
                     force_decode: bool | None = None,
                     jobs: int | None = None) -> ExtractionReport:
        """Extract members under ``directory``, refusing zip-slip escapes.

        Every member name is validated with :func:`safe_extract_path` before
        anything touches the filesystem; a single escaping name aborts the
        whole extraction with :class:`~repro.errors.PathTraversalError`.

        ``jobs`` (default: ``ReadOptions.jobs``) > 1 shards the members by
        decoder image across the :mod:`repro.parallel` worker pool; output
        bytes are identical to the serial path (each worker runs this very
        method over its shard) and the workers' session counters are merged
        into this archive's :attr:`session` stats.

        Returns an :class:`ExtractionReport` -- a list of the successful
        :class:`ExtractionRecord` entries.  Under ``on_error="abort"``
        (default) the first member failure raises, exactly as before.
        Under ``"skip"``/``"quarantine"`` a failing member is recorded in
        ``report.failures`` and every other member still extracts,
        byte-identical to a clean run (each member streams through its own
        temp-and-rename, so a contained failure leaves no partial file).
        """
        directory = pathlib.Path(directory)
        wanted = names if names is not None else self.names()
        directory.mkdir(parents=True, exist_ok=True)
        targets = [(name, safe_extract_path(directory, name)) for name in wanted]
        jobs = self.options.jobs if jobs is None else jobs
        if jobs > 1 and len(wanted) > 1:
            from repro.parallel.engine import parallel_extract_into

            return parallel_extract_into(
                self, directory, wanted, jobs,
                mode=mode, force_decode=force_decode)
        mode, force = self._read_mode(mode, force_decode)
        on_error = self.options.on_error
        durable = self.options.durable_output
        report = ExtractionReport()
        for name, target in targets:
            entry = self._zip.find(name)
            try:
                route = self._route(entry, mode, force)
                chunks = self._member_chunks(self._session, entry, route)
                target.parent.mkdir(parents=True, exist_ok=True)
                # Stream into a temporary sibling and rename on success, so
                # an error mid-member (CRC mismatch, truncation, decoder
                # fault) never leaves a partial file under the final name.
                # ``durable_output`` additionally fsyncs the data before the
                # rename (and the directory after), so a machine crash right
                # after extraction cannot leave a renamed-but-empty file.
                partial = target.with_name(target.name + ".vxa-partial")
                written = 0
                try:
                    with open(partial, "wb") as sink:
                        for chunk in chunks:
                            sink.write(chunk)
                            written += len(chunk)
                        if durable:
                            fsync_file(sink)
                except BaseException:
                    partial.unlink(missing_ok=True)
                    raise
                partial.replace(target)
                if durable:
                    fsync_directory(target.parent)
            except VxaError as error:
                # Under on_damage="salvage" media damage is contained
                # per-member even for abort callers: salvaging exists
                # precisely to get the healthy members out.
                if _crashes_worker(error) or (on_error == ON_ERROR_ABORT
                                              and not self._salvaging):
                    raise
                report.failures.append(self._member_failure(entry, error))
                continue
            report.append(ExtractionRecord(
                name=name,
                path=target,
                size=written,
                used_vxa_decoder=route.kind == _ROUTE_VXA,
                decoded=route.kind != _ROUTE_STORED,
                codec_name=route.codec_name,
            ))
        if self._salvaging and (self._zip.directory_reconstructed
                                or report.failures):
            # Members extracted out of damaged media: the load-bearing
            # success metric of the salvage path.
            self._session.stats.members_salvaged += len(report)
        return report

    def _member_failure(self, entry: ZipEntry, error: Exception) -> MemberFailure:
        """Record one contained member failure (salvage bookkeeping)."""
        try:
            extension = parse_extension(entry.extra)
        except ArchiveError:
            # Damaged extras must not crash failure bookkeeping itself.
            extension = None
        return MemberFailure(
            name=entry.name,
            error_type=type(error).__name__,
            message=str(error),
            offset=extension.decoder_offset if extension is not None else None,
            instructions=getattr(error, "instructions", None),
            quarantined=self.options.on_error == ON_ERROR_QUARANTINE,
        )

    # -- integrity ------------------------------------------------------------

    def media(self):
        """Media-level damage assessment of this archive's bytes.

        Returns a :class:`~repro.core.integrity.MediaAssessment`: per-member
        ``intact``/``suspect``/``lost`` verdicts from the digest table / CRCs,
        without running any decoders.  ``vxunzip check --deep`` is this.
        """
        from repro.core.integrity import assess_media

        return assess_media(self._file)

    @property
    def directory_reconstructed(self) -> bool:
        """True when this open had to rebuild the directory from local headers."""
        return self._zip.directory_reconstructed

    @property
    def commit_verified(self) -> bool:
        """True when the archive's commit record matched its central directory."""
        return self._zip.commit_verified

    def check(self, *, reuse: VmReusePolicy | None = None,
              jobs: int | None = None,
              names: list[str] | None = None) -> IntegrityReport:
        """Verify every member that carries a VXA decoder.

        Integrity checks "always run the archived VXA decoder" (paper section
        2.3) -- native decoders are never used here, so a bug that only
        affects the archived decoder cannot hide behind the fast path.  The
        check runs through a dedicated :class:`DecoderSession` honouring
        ``reuse`` (default: this archive's configured policy), so per-file
        :class:`SecurityAttributes` gate VM reuse exactly as section 2.4
        prescribes; the report carries the session's reuse/re-init counters.
        Each member goes through the same read step extraction uses; what it
        raises -- a guest fault, a checksum mismatch, a damaged payload or
        decoder pseudo-file -- becomes one ``"{name}: {error}"`` failure line.

        ``jobs`` (default: ``ReadOptions.jobs``) > 1 shards the decoder-bearing
        members by decoder image across the :mod:`repro.parallel` worker pool;
        verdicts (checked/passed/failures) are identical to the serial check
        and the report's counters aggregate every worker's session.  ``names``
        restricts the check to those members, in that order (a name missing
        from the archive raises, exactly as extraction would); the shard
        workers use it to check their slice.
        """
        jobs = self.options.jobs if jobs is None else jobs
        if jobs > 1:
            from repro.parallel.engine import parallel_check

            return parallel_check(self, jobs, reuse=reuse, names=names)
        options = (self.options if reuse is None
                   else self.options.with_changes(reuse=reuse))
        entries = (self._zip.entries if names is None
                   else [self._zip.find(name) for name in names])
        report = IntegrityReport()
        with DecoderSession(self._load_decoder, options,
                            self._limits) as session:
            for entry in entries:
                route = self._route(entry, MODE_VXA, True)
                if route.kind != _ROUTE_VXA:
                    continue
                report.checked += 1
                try:
                    for _ in self._member_chunks(session, entry, route):
                        pass
                except VxaError as error:
                    if _crashes_worker(error):
                        raise
                    report.failures.append(f"{entry.name}: {error}")
                else:
                    report.passed += 1
            report.merge(session.stats)
        return report

    # -- parallel scheduling support ------------------------------------------

    def extraction_plan(self, names: list[str] | None = None, *,
                        mode: str | None = None,
                        force_decode: bool | None = None) -> list[MemberPlan]:
        """Scheduling facts for each requested member under the effective mode.

        Each member's ``decoder_offset`` is read off the route extraction
        will take, decided without reading any member data, so the
        :mod:`repro.parallel` scheduler can shard members by decoder image
        before any work starts.
        """
        mode, force = self._read_mode(mode, force_decode)
        wanted = names if names is not None else self.names()
        plan: list[MemberPlan] = []
        for index, name in enumerate(wanted):
            entry = self._zip.find(name)
            attributes = self._attributes_for(entry)
            plan.append(MemberPlan(
                index=index,
                name=name,
                decoder_offset=self._route(entry, mode, force).decoder_offset,
                cost=max(entry.compressed_size, 1),
                domain=(attributes.owner, attributes.group,
                        attributes.world_readable),
            ))
        return plan

    def _check_plan(self, names: list[str]) -> list[MemberPlan]:
        """The members :meth:`check` verifies, as a plan to shard.

        The check's route is the VXA-mode one with pre-compressed members
        decoded too: every decoder-bearing member runs its archived decoder,
        and nothing else runs.
        """
        return [item for item in self.extraction_plan(
                    names, mode=MODE_VXA, force_decode=True)
                if item.decoder_offset is not None]

    @contextlib.contextmanager
    def worker_path(self) -> Iterator[str]:
        """A path a pool worker reopens this archive by, for the ``with`` block.

        Each shard opens the archive on its own -- concurrent seeks on one
        shared file object would corrupt each other.  The archive's own path
        serves while it still names the very file this reader holds open
        (after an atomic-rename update the handle and the path are different
        archives, and workers reopening by name would diverge from the
        serial path).  Otherwise the open handle is copied, from offset 0, to
        a temporary spool that is unlinked on exit; a worker still holding it
        open keeps a valid handle (POSIX).  The copy streams in bounded
        chunks: the archive is never held in memory as a whole.
        """
        for candidate in (self._source_path, getattr(self._file, "name", None)):
            if (isinstance(candidate, (str, pathlib.Path))
                    and self._path_matches_handle(pathlib.Path(candidate))):
                yield str(candidate)
                return
        import tempfile

        handle, spool = tempfile.mkstemp(prefix="vxa-archive-", suffix=".zip")
        try:
            with os.fdopen(handle, "wb") as sink:
                position = self._file.tell()
                try:
                    self._file.seek(0)
                    shutil.copyfileobj(self._file, sink)
                finally:
                    self._file.seek(position)
            yield spool
        finally:
            os.unlink(spool)

    def _path_matches_handle(self, path: pathlib.Path) -> bool:
        """Does ``path`` still name the file this archive holds open?"""
        try:
            path_stat = path.stat()
        except OSError:
            return False
        try:
            handle_stat = os.fstat(self._file.fileno())
        except (OSError, AttributeError, io.UnsupportedOperation):
            # No OS-level handle to compare against (BytesIO and friends
            # never reach here); fall back to the parsed size, the best
            # identity signal the reader recorded.
            parsed_size = getattr(getattr(self._zip, "_source", None), "size", None)
            return parsed_size is not None and path_stat.st_size == parsed_size
        return (path_stat.st_ino == handle_stat.st_ino
                and path_stat.st_dev == handle_stat.st_dev)

    # -- internals ------------------------------------------------------------

    def _attributes_for(self, entry: ZipEntry) -> SecurityAttributes:
        """Per-file security attributes recovered from the member headers.

        Mode bits come from the ZIP external attributes; owner/group from the
        Info-ZIP Unix extra field when present, so ``same_domain`` compares
        the full protection domain the writer recorded.
        """
        mode = (entry.external_attributes >> 16) & 0xFFFF
        unix = parse_unix_extra(entry.extra)
        owner, group = unix if unix is not None else (0, 0)
        return SecurityAttributes(owner=owner, group=group, mode=mode or 0o644)

    def _load_decoder(self, offset: int) -> bytes:
        image = self._decoder_cache.get(offset)
        if image is None:
            _, image = self._zip.read_member_at(offset)
            self._decoder_cache[offset] = image
        return image

    def _read_mode(self, mode: str | None,
                   force_decode: bool | None) -> tuple[str, bool]:
        """The effective, validated mode and force flag of one read call."""
        mode = self.options.mode if mode is None else mode
        if mode not in (MODE_AUTO, MODE_NATIVE, MODE_VXA):
            raise ArchiveError(f"unknown extraction mode {mode!r}")
        force = self.options.force_decode if force_decode is None else force_decode
        return mode, force

    def _route(self, entry: ZipEntry, mode: str, force: bool) -> _Route:
        """Decide how ``entry`` is read: the one place that decides it.

        Extraction, :meth:`extraction_plan` and :meth:`check` (which asks
        for the ``vxa`` route with ``force``) all read this decision.
        """
        extension = parse_extension(entry.extra)
        if extension is None:
            return _Route(_ROUTE_PLAIN, None)
        if entry.method == METHOD_STORE and extension.precompressed and not force:
            return _Route(_ROUTE_STORED, extension)
        if mode == MODE_VXA or (mode == MODE_AUTO
                                and extension.codec_name not in self._registry):
            return _Route(_ROUTE_VXA, extension)
        return _Route(_ROUTE_NATIVE, extension)

    def _read(self, name: str, mode: str | None,
              force_decode: bool | None) -> tuple[_Route, Iterator[bytes]]:
        """One named member's route and contents, through this archive's session."""
        entry = self._zip.find(name)
        route = self._route(entry, *self._read_mode(mode, force_decode))
        return route, self._member_chunks(self._session, entry, route)

    def _member_chunks(self, session: DecoderSession, entry: ZipEntry,
                       route: _Route) -> Iterator[bytes]:
        """A member's contents along ``route``: the read step extract and check share.

        The chaos hooks that fire before a member is read (IO delay, worker
        kill) fire first.  Plain and stored members then stream lazily off
        the archive file, CRC-checked as they go.  A decoded member is read,
        decoded in full (it is one member, never the archive), held to its
        recorded size and CRC, and then chunked; whatever goes wrong raises.
        """
        plan = self.options.fault_plan
        if plan is not None:
            plan.io_delay(entry.name)
            plan.kill_worker(entry.name)
        if route.kind in (_ROUTE_PLAIN, _ROUTE_STORED):
            return self._zip.iter_member_chunks(entry)
        extension = route.extension
        if entry.method == METHOD_VXA:
            encoded = self._zip.read_stored_bytes(entry)
        else:
            # Pre-compressed member stored with method 0: the member data *is*
            # the encoded stream the decoder understands.
            encoded = self._zip.read_member(entry)
        if plan is not None:
            # A flipped payload byte surfaces exactly as a truly corrupt
            # archive would (codec error or checksum mismatch).
            encoded = plan.corrupt(entry.name, encoded)
        if route.kind == _ROUTE_NATIVE:
            if extension.codec_name not in self._registry:
                raise DecoderMissingError(
                    f"no native decoder available for codec {extension.codec_name!r}"
                )
            # Resolving the native codec imports it; vxa mode never calls it.
            data = self._registry.get(extension.codec_name).decode(encoded)
        else:
            limits = fault_syscall = None
            if plan is not None:
                fuel = plan.fuel_limit(entry.name)
                if fuel is not None:
                    limits = replace(self._limits, max_instructions=fuel)
                fault_syscall = plan.syscall_fault_at(entry.name)
            result = session.decode(extension.decoder_offset, encoded,
                                    attributes=self._attributes_for(entry),
                                    limits=limits, fault_syscall=fault_syscall)
            if result.exit_code != 0:
                raise IntegrityError(
                    f"archived decoder exited with status {result.exit_code}: "
                    f"{result.stderr.decode('latin-1', 'replace')!r}"
                )
            data = result.output
        if (len(data) != extension.original_size
                or crc32(data) != extension.original_crc32):
            raise IntegrityError(
                f"member {entry.name!r} decoded to unexpected contents "
                f"({len(data)} bytes vs {extension.original_size} expected)"
            )
        return (data[offset:offset + DEFAULT_CHUNK_SIZE]
                for offset in range(0, len(data), DEFAULT_CHUNK_SIZE))
