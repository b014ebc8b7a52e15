"""Control-flow-graph recovery for VXA-32 decoder images.

Recursive-descent disassembly from the image entry point: instructions are
decoded along control-flow edges only (never by a blind linear sweep -- the
variable-length encoding makes that unsound, paper section 4.2), then
partitioned into basic blocks.  The walk detects the ill-formed-code classes
the verifier must refuse:

* branches targeting the *middle* of a reachable instruction,
* two reachable instructions overlapping the same bytes,
* branch or call targets outside the executable region,
* straight-line code falling off the end of the text segment,
* reachable bytes that do not decode at all.

Each problem becomes a structured :class:`CfgError` (pc + machine-readable
reason) rather than an exception, so :class:`~repro.analysis.verify.AnalysisReport`
can list every defect in one pass.

Code reachable *only* as the fall-through of a ``VXCALL`` is walked
leniently (``severity="warning"``): a decoder ending in ``vxcall`` with
``EXIT``/``DONE`` in ``r0`` never resumes, so trailing garbage there is
unreachable in practice but not provably so without value analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.elf.reader import parse_executable
from repro.elf.structures import ElfImage
from repro.errors import InvalidInstructionError
from repro.isa.encoding import Instruction, decode
from repro.isa.opcodes import CONDITIONAL_JUMPS, Op, OPCODES

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"


@dataclass(frozen=True)
class CfgError:
    """One structural defect found during CFG recovery."""

    pc: int
    reason: str
    message: str
    severity: str = SEVERITY_ERROR


@dataclass
class BasicBlock:
    """A maximal straight-line run of reachable instructions."""

    start: int
    instructions: list[tuple[int, Instruction]] = field(default_factory=list)
    successors: tuple[int, ...] = ()
    call_target: int | None = None     # direct CALL out of this block
    indirect: bool = False             # ends in JMPR or CALLR

    @property
    def end(self) -> int:
        if not self.instructions:
            return self.start
        pc, insn = self.instructions[-1]
        return pc + insn.length

    @property
    def terminator(self) -> Instruction | None:
        if not self.instructions:
            return None
        insn = self.instructions[-1][1]
        return insn if OPCODES[insn.op].is_terminator else None


@dataclass
class ControlFlowGraph:
    """Recovered control flow of one decoder image."""

    entry: int
    text_start: int
    text_end: int
    insns: dict[int, Instruction]
    blocks: dict[int, BasicBlock]
    errors: list[CfgError]
    call_targets: set[int]
    functions: dict[int, set[int]]     # function entry -> block starts
    call_graph: dict[int, set[int]]    # function entry -> direct callees

    @property
    def ok(self) -> bool:
        return not any(e.severity == SEVERITY_ERROR for e in self.errors)


def recover_cfg(image: ElfImage | bytes) -> ControlFlowGraph:
    """Recover the CFG of ``image`` from its entry point."""
    if isinstance(image, (bytes, bytearray)):
        image = parse_executable(bytes(image))
    text_start, text_end, code = image.text

    errors: list[CfgError] = []
    insns: dict[int, Instruction] = {}
    edges: dict[int, list[int]] = {}
    call_sites: dict[int, int] = {}      # CALL pc -> target
    indirect_pcs: set[int] = set()
    leaders: set[int] = set()
    vxcall_followups: list[int] = []

    def add_error(pc: int, reason: str, message: str, soft: bool) -> None:
        errors.append(CfgError(pc, reason, message,
                               SEVERITY_WARNING if soft else SEVERITY_ERROR))

    def valid_target(site: int, target: int, soft: bool, what: str) -> bool:
        if not text_start <= target < text_end:
            add_error(site, "target-out-of-text",
                      f"{what} at 0x{site:x} targets 0x{target:x}, "
                      f"outside text [0x{text_start:x}, 0x{text_end:x})", soft)
            return False
        return True

    def walk(roots: list[int], soft: bool) -> None:
        worklist = list(roots)
        while worklist:
            pc = worklist.pop()
            if pc in insns:
                continue
            try:
                insn = decode(code, pc)
            except InvalidInstructionError as error:
                at = error.offset if error.offset is not None else pc
                reason = error.reason
                if reason in ("past-end", "truncated"):
                    reason = "falls-off-text"
                add_error(at, reason, str(error), soft)
                continue
            insns[pc] = insn      # (``code`` ends at text_end: no straddlers)
            next_pc = pc + insn.length
            info = OPCODES[insn.op]
            succs: list[int] = []
            if insn.op is Op.HALT or insn.op is Op.RET:
                pass
            elif insn.op is Op.VXCALL:
                # EXIT/DONE never resume; the fall-through is walked in a
                # separate lenient pass so junk after a final vxcall is a
                # warning, not a rejection.
                if next_pc < text_end:
                    vxcall_followups.append(next_pc)
            elif insn.op is Op.JMP:
                target = next_pc + insn.imm
                if valid_target(pc, target, soft, "jump"):
                    succs.append(target)
            elif insn.op in CONDITIONAL_JUMPS:
                target = next_pc + insn.imm
                if valid_target(pc, target, soft, "branch"):
                    succs.append(target)
                if next_pc < text_end:
                    succs.append(next_pc)
                else:
                    add_error(pc, "falls-off-text",
                              f"branch fall-through at 0x{pc:x} leaves text", soft)
            elif insn.op is Op.CALL:
                target = next_pc + insn.imm
                if valid_target(pc, target, soft, "call"):
                    call_sites[pc] = target
                    worklist.append(target)
                    leaders.add(target)
                if next_pc < text_end:
                    succs.append(next_pc)
                else:
                    add_error(pc, "falls-off-text",
                              f"call return point at 0x{pc:x} leaves text", soft)
            elif insn.op is Op.CALLR:
                indirect_pcs.add(pc)
                if next_pc < text_end:
                    succs.append(next_pc)
            elif insn.op is Op.JMPR:
                indirect_pcs.add(pc)
            elif next_pc < text_end:
                succs.append(next_pc)
            else:
                add_error(pc, "falls-off-text",
                          f"code at 0x{pc:x} falls off the end of text", soft)
            edges[pc] = succs
            if info.is_terminator:
                leaders.update(succs)
            worklist.extend(succs)

    if not text_start <= image.entry < text_end:
        errors.append(CfgError(image.entry, "entry-out-of-text",
                               f"entry point 0x{image.entry:x} is outside the "
                               f"executable region"))
    else:
        walk([image.entry], soft=False)
        while vxcall_followups:
            pending = [pc for pc in vxcall_followups if pc not in insns]
            vxcall_followups = []
            for pc in pending:
                leaders.add(pc)
                walk([pc], soft=True)
    leaders.add(image.entry)

    # Overlap / mid-instruction detection: every decoded start must not fall
    # inside the byte span of another decoded instruction.
    interior: dict[int, int] = {}
    for pc, insn in insns.items():
        for inner in range(pc + 1, pc + insn.length):
            interior[inner] = pc
    for pc in insns:
        if pc in interior:
            errors.append(CfgError(
                pc, "mid-instruction-target",
                f"instruction at 0x{pc:x} starts inside the instruction at "
                f"0x{interior[pc]:x} (overlapping decodings)"))
    for site, succs in edges.items():
        for target in succs:
            if target not in insns and target in interior:
                errors.append(CfgError(
                    site, "mid-instruction-target",
                    f"branch at 0x{site:x} targets 0x{target:x}, the middle "
                    f"of the instruction at 0x{interior[target]:x}"))
    for site, target in call_sites.items():
        if target not in insns and target in interior:
            errors.append(CfgError(
                site, "mid-instruction-target",
                f"call at 0x{site:x} targets 0x{target:x}, the middle of the "
                f"instruction at 0x{interior[target]:x}"))

    blocks = _partition(insns, edges, call_sites, indirect_pcs, leaders)
    call_targets = set(call_sites.values())
    functions, call_graph = _partition_functions(
        blocks, image.entry, call_targets)

    return ControlFlowGraph(
        entry=image.entry,
        text_start=text_start,
        text_end=text_end,
        insns=insns,
        blocks=blocks,
        errors=errors,
        call_targets=call_targets,
        functions=functions,
        call_graph=call_graph,
    )


def _partition(
    insns: dict[int, Instruction],
    edges: dict[int, list[int]],
    call_sites: dict[int, int],
    indirect_pcs: set[int],
    leaders: set[int],
) -> dict[int, BasicBlock]:
    blocks: dict[int, BasicBlock] = {}
    for leader in sorted(leaders):
        if leader not in insns:
            continue
        block = BasicBlock(start=leader)
        pc = leader
        while True:
            insn = insns[pc]
            block.instructions.append((pc, insn))
            if OPCODES[insn.op].is_terminator:
                block.successors = tuple(edges.get(pc, ()))
                block.call_target = call_sites.get(pc)
                block.indirect = pc in indirect_pcs
                break
            next_pc = pc + insn.length
            if next_pc in leaders or next_pc not in insns:
                block.successors = tuple(edges.get(pc, ()))
                break
            pc = next_pc
        blocks[leader] = block
    return blocks


def _partition_functions(
    blocks: dict[int, BasicBlock],
    entry: int,
    call_targets: set[int],
) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """Group blocks into functions: blocks reachable from each entry without
    following call edges (a CALL's successor is its own return point)."""
    functions: dict[int, set[int]] = {}
    call_graph: dict[int, set[int]] = {}
    for fn_entry in sorted({entry} | call_targets):
        if fn_entry not in blocks:
            functions[fn_entry] = set()
            call_graph[fn_entry] = set()
            continue
        seen = {fn_entry}
        callees: set[int] = set()
        stack = [fn_entry]
        while stack:
            at = stack.pop()
            block = blocks.get(at)
            if block is None:
                continue
            if block.call_target is not None:
                callees.add(block.call_target)
            for succ in block.successors:
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        functions[fn_entry] = seen
        call_graph[fn_entry] = callees
    return functions, call_graph
