"""Load VXA decoder ELF images into a guest sandbox.

Mirrors vx32's loader: the decoder image is copied to its linked virtual
addresses inside the sandbox and the stack pointer is parked at the top of
the initial sandbox.  (The executable region the engines confine execution
to, and the code they fetch, are ``ElfImage.text``, not this copy.)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.elf.reader import parse_executable
from repro.elf.structures import ElfImage
from repro.errors import ElfFormatError, ImageVerificationError
from repro.vm.memory import DEFAULT_MEMORY_SIZE, GuestMemory

#: Bytes reserved at the top of the sandbox for the guest stack.
DEFAULT_STACK_SIZE = 256 << 10

#: Extra headroom above the image before the heap would hit the stack.
HEAP_HEADROOM = 64 << 10


@dataclass
class LoadedProgram:
    """Result of loading an executable into guest memory."""

    entry: int
    stack_top: int
    brk: int                       # first free address after the image (heap start)


def admit_image(image: ElfImage | bytes, mode: str = "off", *, report=None):
    """Run the static-analysis admission policy over ``image``.

    Args:
        image: raw ELF bytes or a parsed :class:`ElfImage`.
        mode: ``"off"`` (return ``None`` without analysing), ``"warn"``
            (analyse, emit a :class:`UserWarning` for unsafe images) or
            ``"reject"`` (raise :class:`ImageVerificationError` before any
            VM runs the image).
        report: a previously computed
            :class:`~repro.analysis.verify.AnalysisReport` for this very
            image (e.g. from its :mod:`repro.vm.images` record); passing it skips
            re-analysis but still applies the admission decision.

    Returns:
        The :class:`repro.analysis.verify.AnalysisReport`, or ``None`` when
        ``mode`` is ``"off"``.
    """
    if mode == "off":
        return report
    if mode not in ("warn", "reject"):
        raise ValueError(f"unknown verify_images mode: {mode!r}")
    if report is None:
        from repro.analysis.verify import verify_image

        report = verify_image(image)
    if not report.ok:
        problems = report.unsafe_sites
        summary = "; ".join(
            f"0x{site.pc:x}: {site.kind} {site.detail or site.verdict}"
            for site in problems[:4]
        )
        message = (
            f"decoder image failed static verification "
            f"({len(problems)} unsafe site(s): {summary})"
        )
        if mode == "reject":
            raise ImageVerificationError(message)
        import warnings

        warnings.warn(message, UserWarning, stacklevel=2)
    return report


def load_image(image: ElfImage | bytes, memory: GuestMemory) -> LoadedProgram:
    """Copy ``image`` into ``memory`` and return the initial machine state.

    Args:
        image: a parsed :class:`ElfImage` or raw ELF bytes.
        memory: the sandbox to populate; grown if the image needs more room
            for itself, ``HEAP_HEADROOM`` and ``DEFAULT_STACK_SIZE``.

    Raises:
        ElfFormatError: if the image does not fit its declared constraints.
    """
    if isinstance(image, (bytes, bytearray)):
        image = parse_executable(bytes(image))

    load_size = image.load_size
    needed = load_size + HEAP_HEADROOM + DEFAULT_STACK_SIZE
    if needed > memory.size:
        memory.grow(max(needed, min(memory.limit, DEFAULT_MEMORY_SIZE)))
    if load_size + DEFAULT_STACK_SIZE > memory.size:
        raise ElfFormatError(
            f"decoder image needs {load_size} bytes plus stack, sandbox is {memory.size}"
        )

    for segment in image.segments:
        memory.write_bytes(segment.vaddr, segment.data)
        # memsz > filesz space is already zero because sandboxes start zeroed,
        # but re-zero explicitly in case the memory is being reused.
        if segment.memsz > len(segment.data):
            zero_start = segment.vaddr + len(segment.data)
            memory.write_bytes(zero_start, b"\x00" * (segment.memsz - len(segment.data)))

    stack_top = (memory.size - 16) & ~0xF
    return LoadedProgram(entry=image.entry, stack_top=stack_top, brk=load_size)
