"""Instruction set definition for the VXA-32 virtual architecture.

VXA-32 is the guest architecture used by archived decoders, standing in for
the unprivileged 32-bit x86 subset the paper relies on.  The properties that
matter to the reproduction are preserved:

* variable-length instruction encoding (so safe execution requires dynamic
  code scanning, not a single load-time pass -- see paper section 4.2),
* eight general-purpose registers plus a stack pointer, mirroring the x86
  register-pressure argument against dedicated sandbox registers,
* condition flags set by arithmetic/compare instructions,
* a single software-trap instruction (``VXCALL``) through which all host
  interaction is funnelled, mirroring ``int 0x80`` interception.

The module defines opcode numbers, instruction metadata and register names.
Encoding/decoding lives in :mod:`repro.isa.encoding`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Number of general purpose registers (R0..R7).
NUM_REGISTERS = 8

#: Conventional register roles used by the vxc compiler ABI.
REG_RETURN = 0      # R0: return value / first syscall argument slot
REG_ARG0 = 0
REG_ARG1 = 1
REG_ARG2 = 2
REG_ARG3 = 3
REG_TMP0 = 4
REG_TMP1 = 5
REG_FP = 6          # frame pointer
REG_SP = 7          # stack pointer

REGISTER_NAMES = ("r0", "r1", "r2", "r3", "r4", "r5", "fp", "sp")

#: Mapping from register name (and aliases) to register index.
REGISTER_ALIASES = {
    **{name: index for index, name in enumerate(REGISTER_NAMES)},
    "r6": REG_FP,
    "r7": REG_SP,
}


class Op(enum.IntEnum):
    """Opcode numbers for VXA-32 instructions."""

    # Control / misc
    HALT = 0x00
    NOP = 0x01
    VXCALL = 0x02

    # Data movement
    MOVI = 0x10        # movi  rd, imm32
    MOV = 0x11         # mov   rd, rs
    LD32 = 0x12        # ld32  rd, [rs+imm32]
    LD16U = 0x13       # ld16u rd, [rs+imm32]
    LD8U = 0x14        # ld8u  rd, [rs+imm32]
    ST32 = 0x15        # st32  [rd+imm32], rs
    ST16 = 0x16        # st16  [rd+imm32], rs
    ST8 = 0x17         # st8   [rd+imm32], rs
    # Code rule: code is immutable.  Instructions are fetched from the
    # image's executable segments as archived (``ElfImage.text``), never
    # from guest memory: a store into the text range is a legal *data* store
    # that later loads see and that changes nothing that executes.  What
    # runs is what was archived, analysed and digested.
    # Stack rule (the interpreter is the oracle; the translator and
    # ``repro.analysis`` follow it): operands are read before sp moves, so
    # ``push sp`` stores the *old* sp; ``pop rd`` writes rd and then sp, so
    # ``pop sp`` discards the loaded word and ends at sp + 4.  ``call``/
    # ``callr``/``ret`` move sp the same way (``callr`` alone reads its
    # target register after the push).
    PUSH = 0x18        # push  rs      sp -= 4; [sp] = rs
    POP = 0x19         # pop   rd      rd = [sp]; sp += 4
    LD16S = 0x1A       # ld16s rd, [rs+imm32]
    LD8S = 0x1B        # ld8s  rd, [rs+imm32]
    LEA = 0x1C         # lea   rd, [rs+imm32]

    # ALU, register-register
    ADD = 0x20
    SUB = 0x21
    MUL = 0x22
    DIVU = 0x23
    REMU = 0x24
    DIVS = 0x25
    REMS = 0x26
    AND = 0x27
    OR = 0x28
    XOR = 0x29
    SHL = 0x2A
    SHRU = 0x2B
    SHRS = 0x2C
    CMP = 0x2D
    NOT = 0x2E
    NEG = 0x2F

    # ALU, register-immediate
    ADDI = 0x30
    SUBI = 0x31
    MULI = 0x32
    ANDI = 0x33
    ORI = 0x34
    XORI = 0x35
    SHLI = 0x36
    SHRUI = 0x37
    SHRSI = 0x38
    CMPI = 0x39

    # Control flow
    JMP = 0x40         # jmp   rel32 (relative to next instruction)
    JE = 0x41
    JNE = 0x42
    JLTS = 0x43        # signed <
    JLES = 0x44        # signed <=
    JGTS = 0x45        # signed >
    JGES = 0x46        # signed >=
    JLTU = 0x47        # unsigned <
    JLEU = 0x48        # unsigned <=
    JGTU = 0x49        # unsigned >
    JGEU = 0x4A        # unsigned >=
    CALL = 0x4B        # call  rel32
    RET = 0x4C         # ret
    JMPR = 0x4D        # jmpr  rs       (indirect jump)
    CALLR = 0x4E       # callr rs       (indirect call)


class Fmt(enum.Enum):
    """Operand formats used by the encoder/decoder."""

    NONE = "none"              # opcode only
    REG = "reg"                # opcode, reg
    REG_REG = "reg_reg"        # opcode, packed reg pair
    REG_IMM = "reg_imm"        # opcode, reg, imm32
    REG_REG_IMM = "reg_reg_imm"  # opcode, packed reg pair, imm32
    REL = "rel"                # opcode, rel32


@dataclass(frozen=True)
class OpInfo:
    """Static metadata describing one opcode."""

    op: Op
    mnemonic: str
    fmt: Fmt
    is_branch: bool = False
    is_terminator: bool = False  # ends a basic block for the translator


_OPCODE_TABLE = (
    OpInfo(Op.HALT, "halt", Fmt.NONE, is_terminator=True),
    OpInfo(Op.NOP, "nop", Fmt.NONE),
    OpInfo(Op.VXCALL, "vxcall", Fmt.NONE, is_terminator=True),
    OpInfo(Op.MOVI, "movi", Fmt.REG_IMM),
    OpInfo(Op.MOV, "mov", Fmt.REG_REG),
    OpInfo(Op.LD32, "ld32", Fmt.REG_REG_IMM),
    OpInfo(Op.LD16U, "ld16u", Fmt.REG_REG_IMM),
    OpInfo(Op.LD8U, "ld8u", Fmt.REG_REG_IMM),
    OpInfo(Op.LD16S, "ld16s", Fmt.REG_REG_IMM),
    OpInfo(Op.LD8S, "ld8s", Fmt.REG_REG_IMM),
    OpInfo(Op.ST32, "st32", Fmt.REG_REG_IMM),
    OpInfo(Op.ST16, "st16", Fmt.REG_REG_IMM),
    OpInfo(Op.ST8, "st8", Fmt.REG_REG_IMM),
    OpInfo(Op.LEA, "lea", Fmt.REG_REG_IMM),
    OpInfo(Op.PUSH, "push", Fmt.REG),
    OpInfo(Op.POP, "pop", Fmt.REG),
    OpInfo(Op.ADD, "add", Fmt.REG_REG),
    OpInfo(Op.SUB, "sub", Fmt.REG_REG),
    OpInfo(Op.MUL, "mul", Fmt.REG_REG),
    OpInfo(Op.DIVU, "divu", Fmt.REG_REG),
    OpInfo(Op.REMU, "remu", Fmt.REG_REG),
    OpInfo(Op.DIVS, "divs", Fmt.REG_REG),
    OpInfo(Op.REMS, "rems", Fmt.REG_REG),
    OpInfo(Op.AND, "and", Fmt.REG_REG),
    OpInfo(Op.OR, "or", Fmt.REG_REG),
    OpInfo(Op.XOR, "xor", Fmt.REG_REG),
    OpInfo(Op.SHL, "shl", Fmt.REG_REG),
    OpInfo(Op.SHRU, "shru", Fmt.REG_REG),
    OpInfo(Op.SHRS, "shrs", Fmt.REG_REG),
    OpInfo(Op.CMP, "cmp", Fmt.REG_REG),
    OpInfo(Op.NOT, "not", Fmt.REG_REG),
    OpInfo(Op.NEG, "neg", Fmt.REG_REG),
    OpInfo(Op.ADDI, "addi", Fmt.REG_IMM),
    OpInfo(Op.SUBI, "subi", Fmt.REG_IMM),
    OpInfo(Op.MULI, "muli", Fmt.REG_IMM),
    OpInfo(Op.ANDI, "andi", Fmt.REG_IMM),
    OpInfo(Op.ORI, "ori", Fmt.REG_IMM),
    OpInfo(Op.XORI, "xori", Fmt.REG_IMM),
    OpInfo(Op.SHLI, "shli", Fmt.REG_IMM),
    OpInfo(Op.SHRUI, "shrui", Fmt.REG_IMM),
    OpInfo(Op.SHRSI, "shrsi", Fmt.REG_IMM),
    OpInfo(Op.CMPI, "cmpi", Fmt.REG_IMM),
    OpInfo(Op.JMP, "jmp", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JE, "je", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JNE, "jne", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JLTS, "jlts", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JLES, "jles", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JGTS, "jgts", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JGES, "jges", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JLTU, "jltu", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JLEU, "jleu", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JGTU, "jgtu", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.JGEU, "jgeu", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.CALL, "call", Fmt.REL, is_branch=True, is_terminator=True),
    OpInfo(Op.RET, "ret", Fmt.NONE, is_branch=True, is_terminator=True),
    OpInfo(Op.JMPR, "jmpr", Fmt.REG, is_branch=True, is_terminator=True),
    OpInfo(Op.CALLR, "callr", Fmt.REG, is_branch=True, is_terminator=True),
)

#: Opcode value -> OpInfo
OPCODES = {info.op: info for info in _OPCODE_TABLE}

#: Mnemonic -> OpInfo
MNEMONICS = {info.mnemonic: info for info in _OPCODE_TABLE}

#: Conditional jump opcodes (exclude unconditional JMP/CALL).
CONDITIONAL_JUMPS = frozenset(
    {
        Op.JE,
        Op.JNE,
        Op.JLTS,
        Op.JLES,
        Op.JGTS,
        Op.JGES,
        Op.JLTU,
        Op.JLEU,
        Op.JGTU,
        Op.JGEU,
    }
)


class Vxcall(enum.IntEnum):
    """Virtual system call numbers (paper section 4.3).

    Only these five calls are available to decoders.  The call number is
    passed in R0; arguments in R1..R3; the result is returned in R0.
    """

    EXIT = 0
    READ = 1
    WRITE = 2
    SETPERM = 3
    DONE = 4


#: Virtual file handles available to decoders (paper section 4.3).
FD_STDIN = 0
FD_STDOUT = 1
FD_STDERR = 2
