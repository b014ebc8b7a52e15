"""ELF32 data structures used to package VXA decoders.

The paper stores each decoder as "simply an ELF executable for the 32-bit
x86 architecture" (section 3.2).  We keep that choice literally: decoders are
genuine little-endian ELF32 ``ET_EXEC`` images with ``PT_LOAD`` program
headers, except that the machine number identifies the VXA-32 virtual
architecture rather than ``EM_386``.  The layout constants below follow the
TIS ELF specification the paper cites.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from functools import cached_property

ELF_MAGIC = b"\x7fELF"

# e_ident indices
EI_CLASS = 4
EI_DATA = 5
EI_VERSION = 6
EI_OSABI = 7
EI_NIDENT = 16

ELFCLASS32 = 1
ELFDATA2LSB = 1
EV_CURRENT = 1

# e_type
ET_EXEC = 2

# e_machine: official numbers for reference plus our private one.
EM_386 = 3
#: Machine number for the VXA-32 virtual architecture (private/experimental range).
EM_VXA32 = 0xF32A

# Program header types / flags
PT_NULL = 0
PT_LOAD = 1
PT_NOTE = 4
PF_X = 1
PF_W = 2
PF_R = 4

EHDR_SIZE = 52
PHDR_SIZE = 32

_EHDR = struct.Struct("<16sHHIIIIIHHHHHH")
_PHDR = struct.Struct("<IIIIIIII")


@dataclass
class ElfHeader:
    """The ELF file header (Elf32_Ehdr)."""

    e_type: int = ET_EXEC
    e_machine: int = EM_VXA32
    e_version: int = EV_CURRENT
    e_entry: int = 0
    e_phoff: int = EHDR_SIZE
    e_shoff: int = 0
    e_flags: int = 0
    e_ehsize: int = EHDR_SIZE
    e_phentsize: int = PHDR_SIZE
    e_phnum: int = 0
    e_shentsize: int = 0
    e_shnum: int = 0
    e_shstrndx: int = 0

    def pack(self) -> bytes:
        ident = bytearray(EI_NIDENT)
        ident[0:4] = ELF_MAGIC
        ident[EI_CLASS] = ELFCLASS32
        ident[EI_DATA] = ELFDATA2LSB
        ident[EI_VERSION] = EV_CURRENT
        return _EHDR.pack(
            bytes(ident),
            self.e_type,
            self.e_machine,
            self.e_version,
            self.e_entry,
            self.e_phoff,
            self.e_shoff,
            self.e_flags,
            self.e_ehsize,
            self.e_phentsize,
            self.e_phnum,
            self.e_shentsize,
            self.e_shnum,
            self.e_shstrndx,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "ElfHeader":
        fields = _EHDR.unpack_from(data, 0)
        header = cls(
            e_type=fields[1],
            e_machine=fields[2],
            e_version=fields[3],
            e_entry=fields[4],
            e_phoff=fields[5],
            e_shoff=fields[6],
            e_flags=fields[7],
            e_ehsize=fields[8],
            e_phentsize=fields[9],
            e_phnum=fields[10],
            e_shentsize=fields[11],
            e_shnum=fields[12],
            e_shstrndx=fields[13],
        )
        header.ident = fields[0]
        return header


@dataclass
class ProgramHeader:
    """One program header (Elf32_Phdr) describing a loadable segment."""

    p_type: int = PT_LOAD
    p_offset: int = 0
    p_vaddr: int = 0
    p_paddr: int = 0
    p_filesz: int = 0
    p_memsz: int = 0
    p_flags: int = PF_R
    p_align: int = 0x1000

    def pack(self) -> bytes:
        return _PHDR.pack(
            self.p_type,
            self.p_offset,
            self.p_vaddr,
            self.p_paddr,
            self.p_filesz,
            self.p_memsz,
            self.p_flags,
            self.p_align,
        )

    @classmethod
    def unpack(cls, data: bytes, offset: int) -> "ProgramHeader":
        fields = _PHDR.unpack_from(data, offset)
        return cls(*fields)


@dataclass
class Segment:
    """A loadable segment extracted from an image."""

    vaddr: int
    data: bytes
    memsz: int
    flags: int

    @property
    def executable(self) -> bool:
        return bool(self.flags & PF_X)

    @property
    def writable(self) -> bool:
        return bool(self.flags & PF_W)


@dataclass
class ElfImage:
    """A parsed ELF executable ready to be loaded into the VM."""

    entry: int
    machine: int
    segments: list[Segment] = field(default_factory=list)
    note: bytes = b""

    @property
    def load_size(self) -> int:
        """Highest address occupied by any segment (i.e. minimum memory size)."""
        top = 0
        for segment in self.segments:
            top = max(top, segment.vaddr + segment.memsz)
        return top

    @cached_property
    def text(self) -> tuple[int, int, bytes]:
        """``(start, end, code)``: the executable region and its immutable bytes.

        ``code`` is indexed by guest address and ``end`` bytes long: the
        executable segments' file bytes at their addresses, zeros elsewhere
        (a zero byte decodes as ``HALT``: padding is inert).  Both engines
        fetch from this one copy and the static analysis reads it, so all
        three see the same code whatever the guest stores later.
        """
        spans = [s for s in self.segments if s.executable]
        if not spans:
            return 0, 0, b""
        end = max(s.vaddr + s.memsz for s in spans)
        code = bytearray(end)
        for s in spans:
            code[s.vaddr:s.vaddr + len(s.data)] = s.data
        return min(s.vaddr for s in spans), end, bytes(code)
