"""Baseline instruction-at-a-time interpreter for the VXA virtual machine.

The paper's vx32 never interprets: it always scans and translates guest code
into cached fragments.  The interpreter here exists for two reasons:

* it is the reference semantics against which the dynamic translator is
  tested (both engines must produce bit-identical results), and
* it provides the "pure emulation" baseline for the portability discussion
  of section 5.4 and the fragment-cache ablation benchmark -- the measured
  gap between interpreter and translator stands in for the gap between a
  portable instruction-set emulator and vx32-style translation.
"""

from __future__ import annotations

from time import monotonic

from repro.errors import (
    DeadlineExceeded,
    DivisionFault,
    IllegalInstructionFault,
    InvalidInstructionError,
    ResourceLimitExceeded,
)
from repro.isa.encoding import decode
from repro.isa.opcodes import Op
from repro.vm.syscalls import ACTION_EXIT

_MASK = 0xFFFFFFFF

#: Instructions between wall-clock deadline checks.  The interpreter runs
#: on the order of a hundred thousand guest instructions per second, so
#: this costs one comparison per instruction and bounds deadline overshoot
#: to tens of milliseconds.
DEADLINE_CHECK_INTERVAL = 10_000


def _signed(value: int) -> int:
    return value - 0x100000000 if value >= 0x80000000 else value


def run_interpreter(vm) -> None:
    """Run ``vm`` until it exits, halts or faults, interpreting one instruction
    at a time."""
    memory = vm.memory
    regs = vm.regs
    stats = vm.stats
    code_cache = vm.code_cache
    decode_cache = code_cache.instructions
    code = vm.text                # the image's immutable code, never memory
    text_start = vm.text_start
    text_end = vm.text_end
    budget = vm.limits_in_effect.max_instructions
    deadline = vm.deadline
    check_at = DEADLINE_CHECK_INTERVAL if deadline is not None else None
    executed = 0
    pc = vm.pc

    try:
        while not vm.halted:
            if budget is not None and executed >= budget:
                raise ResourceLimitExceeded(
                    f"decoder exceeded its instruction budget ({budget})"
                )
            if check_at is not None and executed >= check_at:
                if monotonic() >= deadline:
                    raise DeadlineExceeded(
                        "decoder exceeded its wall-clock deadline",
                        deadline=vm.limits_in_effect.max_wall_seconds,
                        instructions=executed,
                    )
                check_at = executed + DEADLINE_CHECK_INTERVAL
            if not text_start <= pc < text_end:
                raise IllegalInstructionFault(
                    f"execution left the code segment: pc=0x{pc:08x}"
                )
            insn = decode_cache.get(pc)
            if insn is None:
                try:        # ``code`` ends at text_end: a straddler is truncated
                    insn = decode(code, pc)
                except InvalidInstructionError as error:
                    raise IllegalInstructionFault(str(error)) from None
                code_cache.store_instruction(pc, insn)
            executed += 1
            op = insn.op
            rd = insn.rd
            rs = insn.rs
            imm = insn.imm
            next_pc = pc + insn.length

            if op is Op.MOVI:
                regs[rd] = imm
            elif op is Op.MOV:
                regs[rd] = regs[rs]
            elif op is Op.LD32:
                regs[rd] = memory.load32((regs[rs] + imm) & _MASK)
            elif op is Op.LD16U:
                regs[rd] = memory.load16u((regs[rs] + imm) & _MASK)
            elif op is Op.LD8U:
                regs[rd] = memory.load8u((regs[rs] + imm) & _MASK)
            elif op is Op.LD16S:
                regs[rd] = memory.load16s((regs[rs] + imm) & _MASK) & _MASK
            elif op is Op.LD8S:
                regs[rd] = memory.load8s((regs[rs] + imm) & _MASK) & _MASK
            elif op is Op.ST32:
                memory.store32((regs[rd] + imm) & _MASK, regs[rs])
            elif op is Op.ST16:
                memory.store16((regs[rd] + imm) & _MASK, regs[rs])
            elif op is Op.ST8:
                memory.store8((regs[rd] + imm) & _MASK, regs[rs])
            elif op is Op.LEA:
                regs[rd] = (regs[rs] + imm) & _MASK
            elif op is Op.PUSH:
                sp = (regs[7] - 4) & _MASK
                memory.store32(sp, regs[rd])
                regs[7] = sp
            elif op is Op.POP:
                sp = regs[7]
                regs[rd] = memory.load32(sp)
                regs[7] = (sp + 4) & _MASK
            elif op is Op.ADD:
                regs[rd] = (regs[rd] + regs[rs]) & _MASK
            elif op is Op.SUB:
                regs[rd] = (regs[rd] - regs[rs]) & _MASK
            elif op is Op.MUL:
                regs[rd] = (regs[rd] * regs[rs]) & _MASK
            elif op is Op.DIVU:
                divisor = regs[rs]
                if divisor == 0:
                    raise DivisionFault(f"division by zero at pc=0x{pc:08x}")
                regs[rd] = (regs[rd] // divisor) & _MASK
            elif op is Op.REMU:
                divisor = regs[rs]
                if divisor == 0:
                    raise DivisionFault(f"division by zero at pc=0x{pc:08x}")
                regs[rd] = (regs[rd] % divisor) & _MASK
            elif op is Op.DIVS:
                divisor = _signed(regs[rs])
                if divisor == 0:
                    raise DivisionFault(f"division by zero at pc=0x{pc:08x}")
                dividend = _signed(regs[rd])
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                regs[rd] = quotient & _MASK
            elif op is Op.REMS:
                divisor = _signed(regs[rs])
                if divisor == 0:
                    raise DivisionFault(f"division by zero at pc=0x{pc:08x}")
                dividend = _signed(regs[rd])
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                regs[rd] = (dividend - quotient * _signed(regs[rs])) & _MASK
            elif op is Op.AND:
                regs[rd] &= regs[rs]
            elif op is Op.OR:
                regs[rd] |= regs[rs]
            elif op is Op.XOR:
                regs[rd] ^= regs[rs]
            elif op is Op.SHL:
                regs[rd] = (regs[rd] << (regs[rs] & 31)) & _MASK
            elif op is Op.SHRU:
                regs[rd] = regs[rd] >> (regs[rs] & 31)
            elif op is Op.SHRS:
                regs[rd] = (_signed(regs[rd]) >> (regs[rs] & 31)) & _MASK
            elif op is Op.CMP:
                vm.cc = (regs[rd], regs[rs])
            elif op is Op.NOT:
                regs[rd] = (~regs[rs]) & _MASK
            elif op is Op.NEG:
                regs[rd] = (-regs[rs]) & _MASK
            elif op is Op.ADDI:
                regs[rd] = (regs[rd] + imm) & _MASK
            elif op is Op.SUBI:
                regs[rd] = (regs[rd] - imm) & _MASK
            elif op is Op.MULI:
                regs[rd] = (regs[rd] * imm) & _MASK
            elif op is Op.ANDI:
                regs[rd] &= imm
            elif op is Op.ORI:
                regs[rd] |= imm
            elif op is Op.XORI:
                regs[rd] ^= imm
            elif op is Op.SHLI:
                regs[rd] = (regs[rd] << (imm & 31)) & _MASK
            elif op is Op.SHRUI:
                regs[rd] = regs[rd] >> (imm & 31)
            elif op is Op.SHRSI:
                regs[rd] = (_signed(regs[rd]) >> (imm & 31)) & _MASK
            elif op is Op.CMPI:
                vm.cc = (regs[rd], imm)
            elif op is Op.JMP:
                next_pc = (next_pc + imm) & _MASK
            elif Op.JE <= op <= Op.JGEU:
                left, right = vm.cc
                if _condition(op, left, right):
                    next_pc = (next_pc + imm) & _MASK
            elif op is Op.CALL:
                sp = (regs[7] - 4) & _MASK
                memory.store32(sp, next_pc)
                regs[7] = sp
                next_pc = (next_pc + imm) & _MASK
            elif op is Op.RET:
                sp = regs[7]
                next_pc = memory.load32(sp)
                regs[7] = (sp + 4) & _MASK
            elif op is Op.JMPR:
                next_pc = regs[rd]
            elif op is Op.CALLR:
                sp = (regs[7] - 4) & _MASK
                memory.store32(sp, next_pc)
                regs[7] = sp
                next_pc = regs[rd]
            elif op is Op.VXCALL:
                result, action = vm.syscall_handler.dispatch(
                    regs[0], regs[1], regs[2], regs[3]
                )
                regs[0] = result & _MASK
                if action == ACTION_EXIT:
                    vm.halted = True
            elif op is Op.HALT:
                vm.halted = True
                vm.syscall_handler.exit_code = 0
            elif op is Op.NOP:
                pass
            else:  # pragma: no cover - table is exhaustive
                raise IllegalInstructionFault(f"unhandled opcode {op!r} at 0x{pc:08x}")

            pc = next_pc
    finally:
        vm.pc = pc
        stats.instructions += executed
        stats.blocks_executed += executed  # one "block" per instruction


def _condition(op: Op, left: int, right: int) -> bool:
    if op is Op.JE:
        return left == right
    if op is Op.JNE:
        return left != right
    if op is Op.JLTU:
        return left < right
    if op is Op.JLEU:
        return left <= right
    if op is Op.JGTU:
        return left > right
    if op is Op.JGEU:
        return left >= right
    signed_left = _signed(left)
    signed_right = _signed(right)
    if op is Op.JLTS:
        return signed_left < signed_right
    if op is Op.JLES:
        return signed_left <= signed_right
    if op is Op.JGTS:
        return signed_left > signed_right
    return signed_left >= signed_right
