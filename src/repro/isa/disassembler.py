"""Disassembler for VXA-32 machine code.

Used for debugging guest decoders, for the archive inspection tooling and in
tests to assert round-trip properties of the assembler and vxc compiler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import InvalidInstructionError
from repro.isa.encoding import Instruction, decode
from repro.isa.opcodes import Fmt, Op, OPCODES, REGISTER_NAMES


@dataclass(frozen=True)
class DecodeError:
    """One undecodable location found during a linear scan.

    A structured record (offset + machine-readable reason) rather than a bare
    exception, so CFG recovery and ``AnalysisReport`` can pinpoint ill-formed
    code without parsing message strings.
    """

    offset: int              # byte offset within the scanned code
    reason: str              # "illegal-opcode" | "truncated" | "bad-register" | ...
    message: str             # human-readable description


@dataclass
class ScanResult:
    """Outcome of :func:`scan` -- decoded instructions plus structured errors."""

    instructions: list[tuple[int, Instruction]] = field(default_factory=list)
    errors: list[DecodeError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def scan(code: bytes, *, start: int = 0, end: int | None = None) -> ScanResult:
    """Linearly decode ``code``, collecting structured errors instead of raising.

    On an undecodable byte the scan records a :class:`DecodeError` and resumes
    at the next byte, so a single bad region cannot hide later ill-formed
    code.  The VM itself never trusts a linear sweep (see
    :mod:`repro.isa.encoding`); this feeds the disassembler and the static
    analyser's CFG recovery.
    """
    if end is None:
        end = len(code)
    result = ScanResult()
    offset = start
    while offset < end:
        try:
            insn = decode(code, offset)
        except InvalidInstructionError as error:
            result.errors.append(DecodeError(
                offset=error.offset if error.offset is not None else offset,
                reason=error.reason,
                message=str(error),
            ))
            offset += 1
            continue
        if offset + insn.length > end:
            result.errors.append(DecodeError(
                offset=offset,
                reason="straddles-end",
                message=f"instruction at offset {offset} straddles the scan end",
            ))
            offset += 1
            continue
        result.instructions.append((offset, insn))
        offset += insn.length
    return result


def _reg(index: int) -> str:
    return REGISTER_NAMES[index]


def format_instruction(insn: Instruction, address: int | None = None) -> str:
    """Render one decoded instruction as assembly text.

    If ``address`` is provided, relative branch targets are resolved to
    absolute addresses for readability.
    """
    info = OPCODES[insn.op]
    mnemonic = info.mnemonic
    fmt = info.fmt
    if fmt is Fmt.NONE:
        return mnemonic
    if fmt is Fmt.REG:
        return f"{mnemonic} {_reg(insn.rd)}"
    if fmt is Fmt.REG_REG:
        return f"{mnemonic} {_reg(insn.rd)}, {_reg(insn.rs)}"
    if fmt is Fmt.REG_IMM:
        return f"{mnemonic} {_reg(insn.rd)}, {insn.imm:#x}"
    if fmt is Fmt.REL:
        if address is not None:
            target = address + insn.length + insn.imm
            return f"{mnemonic} {target:#x}"
        return f"{mnemonic} {insn.imm:+#x}"
    # REG_REG_IMM
    displacement = insn.imm
    if displacement >= 0x80000000:
        displacement -= 0x100000000
    sign = "+" if displacement >= 0 else "-"
    mem = f"[{_reg(insn.rs)}{sign}{abs(displacement):#x}]"
    if insn.op in (Op.ST8, Op.ST16, Op.ST32):
        mem = f"[{_reg(insn.rd)}{sign}{abs(displacement):#x}]"
        return f"{mnemonic} {mem}, {_reg(insn.rs)}"
    return f"{mnemonic} {_reg(insn.rd)}, {mem}"


def disassemble(code: bytes, base: int = 0) -> list[str]:
    """Disassemble ``code`` linearly, returning one formatted line per instruction.

    Unknown bytes are rendered as ``.byte`` lines.
    """
    lines: list[str] = []
    offset = 0
    while offset < len(code):
        address = base + offset
        try:
            insn = decode(code, offset)
        except InvalidInstructionError:
            lines.append(f"{address:08x}:  .byte {code[offset]:#04x}")
            offset += 1
            continue
        lines.append(f"{address:08x}:  {format_instruction(insn, address)}")
        offset += insn.length
    return lines


def disassemble_for_reassembly(code: bytes, base: int = 0) -> tuple[str, ScanResult]:
    """Disassemble ``code`` into assembler-compatible source text.

    Unlike :func:`disassemble` (a human-oriented listing), the returned
    source round-trips: feeding it back through
    :func:`repro.isa.assembler.assemble` with ``text_base=base`` re-encodes
    the exact original bytes.  Branch targets become ``L_<address>`` labels
    (or absolute integers when they land outside the scanned region),
    undecodable bytes become ``.byte`` directives, and the accompanying
    :class:`ScanResult` carries the structured errors for those regions.
    """
    result = scan(code)
    starts = {offset for offset, _ in result.instructions}

    # Collect label sites: every in-region branch target that is a decodable
    # instruction start gets a label; others are rendered as absolute ints.
    targets: set[int] = set()
    for offset, insn in result.instructions:
        if OPCODES[insn.op].fmt is Fmt.REL:
            relative_target = offset + insn.length + insn.imm
            if relative_target in starts:
                targets.add(relative_target)

    lines = [".text"]
    emitted = {offset: _format_for_reassembly(insn, base + offset, base, starts)
               for offset, insn in result.instructions}
    length_at = {offset: insn.length for offset, insn in result.instructions}
    position = 0
    while position < len(code):
        if position in targets:
            lines.append(f"L_{base + position:x}:")
        if position in emitted:
            lines.append("    " + emitted[position])
            position += length_at[position]
        else:
            lines.append(f"    .byte {code[position]:#04x}")
            position += 1
    return "\n".join(lines) + "\n", result


def _format_for_reassembly(insn: Instruction, address: int, base: int,
                           starts: set[int]) -> str:
    """Render one instruction in the exact syntax the assembler accepts."""
    info = OPCODES[insn.op]
    mnemonic = info.mnemonic
    fmt = info.fmt
    if fmt is Fmt.NONE:
        return mnemonic
    if fmt is Fmt.REG:
        return f"{mnemonic} {_reg(insn.rd)}"
    if fmt is Fmt.REG_REG:
        return f"{mnemonic} {_reg(insn.rd)}, {_reg(insn.rs)}"
    if fmt is Fmt.REG_IMM:
        return f"{mnemonic} {_reg(insn.rd)}, {insn.imm:#x}"
    if fmt is Fmt.REL:
        target = address + insn.length + insn.imm
        if (target - base) in starts:
            return f"{mnemonic} L_{target:x}"
        # Out-of-region or mid-instruction target: keep the raw address so
        # re-encoding reproduces the same displacement bytes.
        return f"{mnemonic} {target & 0xFFFFFFFF:#x}"
    # REG_REG_IMM memory form
    displacement = insn.imm
    if displacement >= 0x80000000:
        displacement -= 0x100000000
    sign = "+" if displacement >= 0 else "-"
    if insn.op in (Op.ST8, Op.ST16, Op.ST32):
        mem = f"[{_reg(insn.rd)}{sign}{abs(displacement):#x}]"
        return f"{mnemonic} {mem}, {_reg(insn.rs)}"
    mem = f"[{_reg(insn.rs)}{sign}{abs(displacement):#x}]"
    return f"{mnemonic} {_reg(insn.rd)}, {mem}"
