"""The VXA virtual machine: orchestration of memory, CPU state and engines.

A :class:`VirtualMachine` plays the role the vx32 VMM plays inside vxUnZIP:
it loads one decoder ELF image into a private sandbox, binds the three
virtual file handles, runs the decoder with either the dynamic translator
(default, like vx32) or the reference interpreter, and exposes the paper's
reuse-vs-reinitialise policy for decoding several streams with one decoder
(section 2.4).

The sandbox is private and mutable; the code is neither: translations and
proofs are functions of the image digest, so a VM given image bytes takes the
parsed image, its text and its report from :mod:`repro.vm.images`, and
:meth:`VirtualMachine.reset` -- which destroys everything a stream may have
left in the sandbox -- leaves the table of translated code alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.errors import VxaError
from repro.vm.code_cache import CodeCache
from repro.vm.images import ImageRecord, image_record
from repro.vm.interpreter import run_interpreter
from repro.vm.limits import ExecutionLimits, ExecutionStats
from repro.vm.loader import admit_image, load_image
from repro.vm.memory import CHECK_FULL, DEFAULT_MEMORY_SIZE, GuestMemory
from repro.vm.syscalls import StreamSet, SyscallHandler
from repro.vm.translator import run_translator

ENGINE_TRANSLATOR = "translator"
ENGINE_INTERPRETER = "interpreter"

_ENGINES = {
    ENGINE_TRANSLATOR: run_translator,
    ENGINE_INTERPRETER: run_interpreter,
}


@dataclass
class DecodeResult:
    """Outcome of running a decoder over one (or more) encoded streams."""

    output: bytes
    stderr: bytes
    exit_code: int
    stats: ExecutionStats

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


class VirtualMachine:
    """One sandboxed decoder instance.

    Args:
        image: ELF bytes (or a parsed image) of the decoder to run.
        engine: ``"translator"`` (default) or ``"interpreter"``.
        memory_size: initial sandbox size in bytes.
        limits: resource ceilings; defaults to :class:`ExecutionLimits`.
        check_policy: memory sandbox policy (``full``, ``write-only``,
            ``none``) -- see :mod:`repro.vm.memory`.
        use_fragment_cache: disable only for the fragment-cache ablation.
        code_cache: a :class:`~repro.vm.code_cache.CodeCache` to use as
            given (the caller vouches for every VM sharing it); ``None``
            gives the VM an empty table of its own, kept for the VM's life
            (what cold-translation timings and counts are taken on) unless
            :meth:`share_code_cache` swaps it for the process-wide one.
        superblock_limit: maximum guest instructions per translated trace
            (``None`` uses the translator default; ``1`` reproduces the old
            one-basic-block engine).
        chain_fragments: back-patch direct-branch successors so the
            dispatcher's hash lookup is only paid on indirect branches
            (disable only for the chaining ablation).
        verify_images: static-analysis admission policy -- ``"off"``
            (default), ``"warn"`` or ``"reject"``.  ``"reject"`` raises
            :class:`~repro.errors.ImageVerificationError` from the
            constructor, before the image ever executes.
        analysis_elision: let the translator drop bounds guards at sites
            the static verifier proved safe (see
            :mod:`repro.analysis`); disable only for the elision ablation.
    """

    def __init__(
        self,
        image,
        *,
        engine: str = ENGINE_TRANSLATOR,
        memory_size: int = DEFAULT_MEMORY_SIZE,
        limits: ExecutionLimits | None = None,
        check_policy: str = CHECK_FULL,
        use_fragment_cache: bool = True,
        code_cache: CodeCache | None = None,
        superblock_limit: int | None = None,
        chain_fragments: bool = True,
        verify_images: str = "off",
        analysis_elision: bool = True,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}")
        if isinstance(image, (bytes, bytearray)):
            self._record = image_record(bytes(image))
        else:           # a parsed image has no bytes to key on: a private record
            self._record = ImageRecord("", image)
        self._image = self._record.image
        self.engine = engine
        self._memory_size = memory_size
        self.limits = limits or ExecutionLimits()
        self._check_policy = check_policy
        self.use_fragment_cache = use_fragment_cache
        self.code_cache = code_cache if code_cache is not None else CodeCache()
        self.superblock_limit = superblock_limit
        self.chain_fragments = chain_fragments
        self.analysis_elision = analysis_elision
        self.analysis_report = self._admit(verify_images)

        # Mutable machine state, populated by reset().
        self.memory: GuestMemory | None = None
        self.regs: list[int] = [0] * 8
        self.pc = 0
        self.cc = (0, 0)
        self.halted = False
        self.icount = 0
        self.stats = ExecutionStats()
        #: Monotonic wall-clock deadline for the current run (armed by
        #: :meth:`run` from ``max_wall_seconds``); ``None`` disables it.
        self.deadline: float | None = None
        self.syscall_handler: SyscallHandler | None = None
        self.text_start = 0
        self.text_end = 0
        self.text = b""
        self.reset()
        #: Does the translator drop the guards the analysis proved redundant?
        #: Only with a clean report whose proofs cover the sandbox as loaded;
        #: a sandbox only grows and :meth:`reset` reloads the same geometry,
        #: so this is fixed for the VM's life and can key a shared cache.
        report = self.analysis_report
        self.elides_guards = bool(
            analysis_elision and report is not None and report.ok
            and self.memory.size >= report.min_size)

    # -- lifecycle -----------------------------------------------------------

    def _admit(self, verify_images: str):
        """Apply the static-analysis admission policy and return the report.

        In ``warn``/``reject`` modes failures surface exactly as
        :func:`repro.vm.loader.admit_image` specifies.  With verification
        off, the analysis is still consulted when the translator could use
        its proofs -- but purely as an optimisation, so an analysis that
        raised simply leaves every dynamic guard in place.  The report is the
        image record's, so an image is analysed at most once per process.
        """
        if verify_images != "off":
            return admit_image(self._image, verify_images,
                               report=self._record.analysis())
        if self.analysis_elision and self.engine == ENGINE_TRANSLATOR:
            return self._record.analysis()
        return None

    def share_code_cache(self) -> None:
        """Swap the VM's own table for the process-wide one of this image,
        found under every input :func:`~repro.vm.translator.run_translator`
        reads besides the image's text, so whoever else holds it translates
        exactly as this VM would."""
        config = (self._check_policy, self.superblock_limit,
                  self.use_fragment_cache, self.chain_fragments,
                  self.elides_guards)
        self.code_cache = self._record.code_cache(config)

    def reset(self) -> None:
        """Re-initialise the VM with a pristine copy of the decoder image.

        This is the paper's safe default between files whose security
        attributes differ: any state a previous stream may have left in the
        sandbox is destroyed.
        """
        # Reuse the existing sandbox when its geometry is unchanged: the
        # buffer is zeroed *in place* (GuestMemory.reset preserves object
        # identity, which engine bindings and translated fragments rely on)
        # instead of paying a multi-megabyte reallocation per member.  A
        # sandbox the guest grew beyond its initial size is discarded so a
        # fresh decode never inherits a larger address space.
        if self.memory is not None and self.memory.size == self._memory_size:
            self.memory.reset()
        else:
            self.memory = GuestMemory(
                self._memory_size,
                limit=self.limits.max_memory_bytes,
                check_policy=self._check_policy,
            )
        loaded = load_image(self._image, self.memory)
        self.regs = [0] * 8
        self.regs[7] = loaded.stack_top
        self.pc = loaded.entry
        self.cc = (0, 0)
        self.halted = False
        # What executes: the image's immutable text, not the copy just loaded
        # -- which is why the code cache is not touched here: translations
        # are made from that text, never from the sandbox or member data, so
        # keeping them leaks nothing between files.
        self.text_start, self.text_end, self.text = self._image.text
        self.syscall_handler = None

    def _restart(self) -> None:
        """Reset only the CPU state, keeping the sandbox as the last stream
        left it: how :meth:`decode` with ``fresh=False`` reuses VM state
        (section 2.4) for a decoder that does not speak the ``done`` protocol.
        """
        self.regs = [0] * 8
        self.regs[7] = (self.memory.size - 16) & ~0xF
        self.pc = self._image.entry
        self.cc = (0, 0)
        self.halted = False

    # -- execution ------------------------------------------------------------

    def attach_streams(self, streams: StreamSet, on_done=None,
                       limits: ExecutionLimits | None = None,
                       fault_syscall: int | None = None) -> None:
        """Bind stdin/stdout/stderr for the next run.

        ``fault_syscall`` is the fault-injection hook: raise an
        :class:`~repro.errors.InjectedFault` at the guest's Nth virtual
        system call (``None`` in production).
        """
        self.stats = ExecutionStats()
        self.syscall_handler = SyscallHandler(
            self.memory,
            limits or self.limits,
            self.stats,
            streams,
            on_done=on_done,
            fault_at=fault_syscall,
        )

    def run(self) -> int:
        """Run the guest until it exits, halts or faults.

        Returns the guest exit code.  Guest faults propagate as
        :class:`~repro.errors.GuestFault` subclasses; the host and the VM
        object remain usable (call :meth:`reset` to reuse it).
        """
        if self.syscall_handler is None:
            raise VxaError("attach_streams() must be called before run()")
        self._active_limits = self.syscall_handler._limits
        wall = self._active_limits.max_wall_seconds
        self.deadline = (time.monotonic() + wall) if wall else None
        engine = _ENGINES[self.engine]
        engine(self)
        code = self.syscall_handler.exit_code
        return 0 if code is None else code

    @property
    def limits_in_effect(self) -> ExecutionLimits:
        return getattr(self, "_active_limits", self.limits)

    # -- high-level decoding API -----------------------------------------------

    def decode(
        self,
        encoded: bytes,
        *,
        limits: ExecutionLimits | None = None,
        fresh: bool = True,
        fault_syscall: int | None = None,
    ) -> DecodeResult:
        """Decode one encoded stream and return the decoder's output.

        Args:
            encoded: the encoded input supplied on the decoder's stdin.
            limits: per-run resource limits (default: limits scaled to the
                input size).
            fresh: when true (the safe default), the sandbox is re-initialised
                before decoding; when false, the existing sandbox is reused
                (faster, see section 2.4 for the trade-off).  Translated code
                is kept either way.
            fault_syscall: fault-injection hook -- fail the run at the Nth
                virtual system call (``None`` in production).
        """
        if fresh:
            self.reset()
        else:
            self._restart()
        run_limits = limits or self.limits.scaled_for_input(len(encoded))
        streams = StreamSet.from_bytes(encoded)
        self.attach_streams(streams, limits=run_limits,
                            fault_syscall=fault_syscall)
        exit_code = self.run()
        return DecodeResult(
            output=streams.stdout.getvalue(),
            stderr=streams.stderr.getvalue(),
            exit_code=exit_code,
            stats=self.stats,
        )

    def decode_many(
        self,
        encoded_streams: list[bytes],
        *,
        limits: ExecutionLimits | None = None,
    ) -> list[DecodeResult]:
        """Decode several streams with one VM instance using the ``done`` protocol.

        The decoder signals completion of each stream with the ``done``
        virtual system call; the host swaps in the next input stream without
        re-loading the decoder.  This is the paper's state-reuse optimisation
        for archives with many files sharing one decoder.
        """
        if not encoded_streams:
            return []
        results: list[DecodeResult] = []
        total_size = sum(len(stream) for stream in encoded_streams)
        run_limits = limits or self.limits.scaled_for_input(total_size)
        self.reset()

        state = {"index": 0}
        current = StreamSet.from_bytes(encoded_streams[0])

        def on_done() -> bool:
            handler = self.syscall_handler
            results.append(
                DecodeResult(
                    output=handler.streams.stdout.getvalue(),
                    stderr=handler.streams.stderr.getvalue(),
                    exit_code=0,
                    stats=self.stats,
                )
            )
            state["index"] += 1
            if state["index"] >= len(encoded_streams):
                return False
            handler.streams = StreamSet.from_bytes(encoded_streams[state["index"]])
            return True

        self.attach_streams(current, on_done=on_done, limits=run_limits)
        exit_code = self.run()
        # If the decoder exited without calling done for the final stream
        # (legacy single-stream decoders), collect its output here.
        if len(results) < len(encoded_streams) and state["index"] < len(encoded_streams):
            handler = self.syscall_handler
            results.append(
                DecodeResult(
                    output=handler.streams.stdout.getvalue(),
                    stderr=handler.streams.stderr.getvalue(),
                    exit_code=exit_code,
                    stats=self.stats,
                )
            )
        return results


def decode_with_image(image: bytes, encoded: bytes, *, engine: str = ENGINE_TRANSLATOR,
                      limits: ExecutionLimits | None = None) -> DecodeResult:
    """One-shot helper: load ``image``, decode ``encoded``, return the result."""
    vm = VirtualMachine(image, engine=engine, limits=limits or ExecutionLimits())
    return vm.decode(encoded)
